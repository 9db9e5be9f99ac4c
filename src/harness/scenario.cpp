#include "harness/scenario.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "harness/world.hpp"

namespace cbs::harness {

cbs::core::ControllerConfig Scenario::controller_config() const {
  cbs::core::ControllerConfig cfg =
      config_override.value_or(
          cbs::core::default_controller_config(high_network_variation));
  if (config_override && high_network_variation) {
    for (cbs::core::EcSiteConfig& site : cfg.ec_sites) {
      for (cbs::net::LinkConfig* link : {&site.uplink, &site.downlink}) {
        link->noise_rho = 0.95;
        link->noise_sigma = 0.25;
        link->noise_step = 120.0;
      }
    }
  }
  cfg.scheduler = scheduler;
  if (scheduler == cbs::core::SchedulerKind::kLookahead) {
    const auto& order = LookaheadController::candidate_order();
    const auto end = order.begin() + static_cast<std::ptrdiff_t>(
        LookaheadController::candidate_count(lookahead_candidates));
    cfg.admits_bandwidth_split =
        std::find(order.begin(), end,
                  cbs::core::SchedulerKind::kBandwidthSplit) != end;
  }
  cfg.estimator = estimator;
  cfg.enable_rescheduler = enable_rescheduler;
  if (faults.enabled()) cfg.faults = faults;
  if (resilience.enabled()) cfg.resilience = resilience;
  cfg.log_threshold = log_threshold;
  return cfg;
}

std::vector<std::string> validate_scenario(const Scenario& s) {
  std::vector<std::string> problems;
  const auto require = [&problems](bool ok, const char* field, double value,
                                   const char* rule) {
    if (ok) return;
    std::ostringstream msg;
    msg << field << " must be " << rule << " (got " << value << ")";
    problems.push_back(msg.str());
  };
  const auto positive = [](double v) { return std::isfinite(v) && v > 0.0; };
  const auto non_negative = [](double v) {
    return std::isfinite(v) && v >= 0.0;
  };
  require(s.num_batches >= 1, "num_batches",
          static_cast<double>(s.num_batches), "at least 1");
  require(positive(s.mean_jobs_per_batch), "mean_jobs_per_batch",
          s.mean_jobs_per_batch, "finite and > 0");
  require(positive(s.batch_interval_seconds), "batch_interval_seconds",
          s.batch_interval_seconds, "finite and > 0");
  require(non_negative(s.truth.noise_sigma), "truth.noise_sigma",
          s.truth.noise_sigma, "finite and >= 0");
  require(positive(s.oo_sampling_interval), "oo_sampling_interval",
          s.oo_sampling_interval, "finite and > 0");
  require(non_negative(s.faults.ic_vm_mtbf), "faults.ic_vm_mtbf",
          s.faults.ic_vm_mtbf, "finite and >= 0");
  require(non_negative(s.faults.ec_vm_mtbf), "faults.ec_vm_mtbf",
          s.faults.ec_vm_mtbf, "finite and >= 0");
  require(non_negative(s.faults.vm_recovery_seconds),
          "faults.vm_recovery_seconds", s.faults.vm_recovery_seconds,
          "finite and >= 0");
  require(non_negative(s.faults.retraction_deadline_factor),
          "faults.retraction_deadline_factor",
          s.faults.retraction_deadline_factor, "finite and >= 0");
  for (std::string& problem :
       cbs::core::ec_site_problems(s.controller_config())) {
    problems.push_back(std::move(problem));
  }
  return problems;
}

Scenario make_scenario(cbs::core::SchedulerKind scheduler,
                       cbs::workload::SizeBucket bucket, std::uint64_t seed,
                       bool high_network_variation) {
  Scenario s;
  s.scheduler = scheduler;
  s.bucket = bucket;
  s.seed = seed;
  s.high_network_variation = high_network_variation;
  std::ostringstream name;
  name << cbs::core::to_string(scheduler) << "/"
       << cbs::workload::to_string(bucket);
  if (high_network_variation) name << "/high-var";
  s.name = name.str();
  return s;
}

}  // namespace cbs::harness
