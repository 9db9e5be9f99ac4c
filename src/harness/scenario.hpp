#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/config.hpp"
#include "simcore/logging.hpp"
#include "sla/cost.hpp"
#include "sla/tickets.hpp"
#include "workload/arrival.hpp"
#include "workload/generator.hpp"
#include "workload/ground_truth.hpp"

namespace cbs::harness {

/// A complete experiment description: workload, network regime, scheduler.
/// Two scenarios with the same seed and workload fields face byte-identical
/// arrivals and service times, so scheduler comparisons are paired.
struct Scenario {
  std::string name = "scenario";
  std::uint64_t seed = 42;

  // Workload (§V.A defaults: λ=15 jobs per 3-minute batch, 1–300 MB docs).
  cbs::workload::SizeBucket bucket = cbs::workload::SizeBucket::kUniform;
  std::size_t num_batches = 8;
  double mean_jobs_per_batch = 15.0;
  double batch_interval_seconds = 180.0;
  cbs::workload::GroundTruthModel::Config truth{};

  // System.
  cbs::core::SchedulerKind scheduler =
      cbs::core::SchedulerKind::kOrderPreserving;
  cbs::core::EstimatorKind estimator = cbs::core::EstimatorKind::kQrsm;
  bool high_network_variation = false;
  bool enable_rescheduler = false;

  /// Fault injection and burst-retraction recovery (simcore/fault_plan.hpp).
  /// Default-constructed = disabled; the run is then byte-identical to one
  /// without the fault layer.
  cbs::sim::FaultConfig faults{};

  /// Proactive failure resilience (models/hazard.hpp, DESIGN.md §13).
  /// Default-constructed = predictor off; the run is then byte-identical
  /// to one without the resilience layer.
  cbs::core::ResilienceConfig resilience{};

  // QRSM factory prior: corpus size used for pretraining (0 disables).
  std::size_t pretrain_samples = 120;

  // Model-predictive lookahead (scheduler == kLookahead): at every batch
  // arrival the world is forked once per candidate policy, each fork is
  // rolled `lookahead_horizon_seconds` forward, and the batch is committed
  // under the best-scoring candidate. The candidate list is a fixed
  // priority order (order-preserving, greedy, ic-only, bandwidth-split,
  // random) truncated to `lookahead_candidates`; when bandwidth-split is
  // among them, the run has its size-interval upload queues.
  double lookahead_horizon_seconds = 900.0;
  int lookahead_candidates = 3;

  // OO metric parameters (§V.B.2: 2-minute sampling; Fig. 10: t_l = 4).
  double oo_sampling_interval = 120.0;
  std::uint64_t oo_tolerance = 4;

  // Ticket SLA (§I) and pay-as-you-go billing evaluated on every run.
  cbs::sla::TicketPolicy ticket_policy{};
  cbs::sla::CostRates cost_rates{};

  /// Per-run logging: each run's controller owns its Logger configured
  /// from this threshold, so concurrent run_scenario calls never share
  /// mutable logging state. Messages go to stderr.
  cbs::sim::LogLevel log_threshold = cbs::sim::LogLevel::kWarn;

  /// Full controller override; when set, scheduler/estimator/rescheduler
  /// and network fields above are still applied on top of it.
  std::optional<cbs::core::ControllerConfig> config_override;

  /// Resolves the effective controller configuration.
  [[nodiscard]] cbs::core::ControllerConfig controller_config() const;
};

/// Checks the fields whose bad values the simulator would otherwise abort
/// on (an `assert` in a constructor) or silently accept (a negative MTBF
/// switches the fault layer off), and the effective controller config's
/// EC sites (core::ec_site_problems): one message per problem, empty when
/// the scenario is runnable. The CLI rejects a scenario with any.
[[nodiscard]] std::vector<std::string> validate_scenario(const Scenario& s);

/// Named constructor for the §V experiment grid.
[[nodiscard]] Scenario make_scenario(cbs::core::SchedulerKind scheduler,
                                     cbs::workload::SizeBucket bucket,
                                     std::uint64_t seed = 42,
                                     bool high_network_variation = false);

}  // namespace cbs::harness
