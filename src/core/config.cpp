#include "core/config.hpp"

#include <cmath>
#include <sstream>

namespace cbs::core {

std::string_view to_string(SchedulerKind kind) noexcept {
  switch (kind) {
    case SchedulerKind::kIcOnly: return "ic-only";
    case SchedulerKind::kGreedy: return "greedy";
    case SchedulerKind::kOrderPreserving: return "order-preserving";
    case SchedulerKind::kBandwidthSplit: return "op-bandwidth-split";
    case SchedulerKind::kRandom: return "random";
    case SchedulerKind::kLookahead: return "lookahead";
  }
  return "?";
}

ControllerConfig default_controller_config(bool high_network_variation) {
  ControllerConfig cfg;

  // The pipe: a thin business line with a per-connection cap that requires
  // ~6 parallel threads to saturate (Fig. 4b), diurnal variation and AR(1)
  // noise. Calibrated against the default ground-truth law so a mean-size
  // document's one-way transfer is of the order of its processing time —
  // the paper's regime. (The paper quotes "250kbps" but moves hundreds of
  // MB per job in tens of minutes, so its unit is clearly not bits/s; we
  // keep everything in bytes/s.)
  EcSiteConfig& ec = cfg.ec_sites.front();
  ec.uplink.name = "uplink";
  ec.uplink.base_rate = 1.3e6;
  ec.uplink.per_connection_cap = 320.0e3;
  ec.uplink.profile = cbs::net::DiurnalProfile::business_pipe();
  // Normal regime: short-lived fluctuations (correlation time ~5 min).
  // High variation (Fig. 9/10): congestion epochs lasting tens of minutes —
  // the regime where transient-bandwidth decisions strand whole clusters of
  // bursted jobs behind a trough.
  ec.uplink.noise_rho = high_network_variation ? 0.95 : 0.9;
  ec.uplink.noise_sigma = high_network_variation ? 0.25 : 0.12;
  ec.uplink.noise_step = high_network_variation ? 120.0 : 30.0;
  ec.uplink.setup_latency = 0.3;

  ec.downlink = ec.uplink;
  ec.downlink.name = "downlink";
  ec.downlink.base_rate = 1.5e6;  // asymmetric line: downstream is wider

  cfg.bandwidth_estimator.prior_rate = 1.0e6;
  cfg.bandwidth_estimator.alpha = 0.3;
  cfg.bandwidth_estimator.slots_per_day = 48;

  // Per-transfer parallelism is bounded by the application (multipart
  // upload limits, connection quotas): one transfer cannot saturate the
  // pipe at peak hours — which is exactly why Algorithm 3's parallel
  // size-interval queues raise upload-bandwidth utilization.
  cfg.thread_tuner.min_threads = 1;
  cfg.thread_tuner.max_threads = 4;
  cfg.thread_tuner.initial_threads = 4;

  return cfg;
}

std::vector<std::string> ec_site_problems(const ControllerConfig& config) {
  std::vector<std::string> problems;
  const std::vector<EcSiteConfig>& sites = config.ec_sites;
  if (sites.empty()) {
    problems.emplace_back("ec_sites must list at least one EC site (got 0)");
    return problems;
  }
  const auto require = [&problems](bool ok, std::size_t site,
                                   const char* field, double value,
                                   const char* rule) {
    if (ok) return;
    std::ostringstream msg;
    msg << "ec_sites[" << site << "]." << field << " must be " << rule
        << " (got " << value << ")";
    problems.push_back(msg.str());
  };
  for (std::size_t i = 0; i < sites.size(); ++i) {
    const EcSiteConfig& site = sites[i];
    require(site.machines >= 1, i, "machines",
            static_cast<double>(site.machines), "at least 1");
    require(std::isfinite(site.speed) && site.speed > 0.0, i, "speed",
            site.speed, "finite and > 0");
    require(std::isfinite(site.job_overhead_seconds) &&
                site.job_overhead_seconds >= 0.0,
            i, "job_overhead_seconds", site.job_overhead_seconds,
            "finite and >= 0");
  }
  if (sites.size() == 1) return problems;

  // Only order-preserving placement picks a site per job; the features
  // below drive site 0's cluster, links and queues alone.
  const auto single_site_only = [&problems, &sites](bool used,
                                                    std::string_view what) {
    if (!used) return;
    std::ostringstream msg;
    msg << what << " acts on one EC site; it cannot run with "
        << sites.size() << " ec_sites";
    problems.push_back(msg.str());
  };
  if (config.scheduler != SchedulerKind::kOrderPreserving &&
      config.scheduler != SchedulerKind::kIcOnly) {
    std::ostringstream what;
    what << "scheduler " << to_string(config.scheduler);
    single_site_only(true, what.str());
  }
  single_site_only(config.faults.enabled(), "fault injection");
  single_site_only(config.elastic_ec.enabled, "elastic EC scaling");
  single_site_only(config.enable_rescheduler, "the rescheduler");
  single_site_only(config.resilience.enabled(), "the hazard predictor");
  return problems;
}

}  // namespace cbs::core
