#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "compute/job_store.hpp"
#include "models/hazard.hpp"
#include "net/bandwidth_estimator.hpp"
#include "net/link.hpp"
#include "net/thread_tuner.hpp"
#include "simcore/fault_plan.hpp"
#include "simcore/logging.hpp"
#include "simcore/time.hpp"
#include "workload/chunker.hpp"

namespace cbs::core {

/// Which burst scheduler drives the run (§IV).
enum class SchedulerKind : std::uint8_t {
  kIcOnly,           ///< baseline: never burst
  kGreedy,           ///< Algorithm 1
  kOrderPreserving,  ///< Algorithm 2
  kBandwidthSplit,   ///< Algorithm 2 + Algorithm 3 (size-interval splitting)
  kRandom,           ///< model-free baseline (§III cites [8]'s random scheduler)
  kLookahead,        ///< model-predictive: fork the sim, roll candidates forward
};

[[nodiscard]] std::string_view to_string(SchedulerKind kind) noexcept;

/// Which processing-time estimator the scheduler consults.
enum class EstimatorKind : std::uint8_t {
  kQrsm,          ///< the paper's learned model (production path)
  kOracle,        ///< ground-truth expectation (perfect-information ablation)
  kPerClassQrsm,  ///< one surface per job class (§III.A.1 future work)
};

/// Tunables of the scheduling policies.
struct SchedulerParams {
  /// Algorithm 2: look-ahead window x for the size-variability test
  /// σ(i:i+x) and the threshold th (MB of standard deviation) above which
  /// the head job is chunked.
  int variability_window = 5;
  double variability_threshold_mb = 55.0;
  cbs::workload::PdfChunker::Config chunker{};
  /// Safety margin τ subtracted from the slack before admitting a burst —
  /// the Order Preserving scheduler targets finishing τ early (§IV), which
  /// is what buys its robustness to bandwidth dips.
  cbs::sim::SimDuration slack_safety_margin = 30.0;
  /// Algorithm 3: number of size-interval upload queues (small/medium/large).
  int size_interval_queues = 3;
  /// §VII future work: "modulating the chunking of jobs as a function of
  /// their position in the input queue". When enabled, the chunk target
  /// grows linearly from `chunker.target_size_mb` at the batch head to
  /// `tail_chunk_scale` times that at the tail — head jobs are needed soon
  /// (fine chunks, early availability), tail jobs can afford coarse chunks
  /// (less per-chunk overhead).
  bool position_aware_chunking = false;
  double tail_chunk_scale = 2.5;
  /// Random baseline: probability a job is bursted, and the draw seed.
  double random_burst_probability = 0.15;
  std::uint64_t random_seed = 12345;
};

/// Internal-cloud topology and the job shape on either cloud (§V.A test
/// bed: 8 internal VMs; the external side is ControllerConfig::ec_sites).
struct TopologyConfig {
  std::size_t ic_machines = 8;
  double ic_speed = 1.0;
  /// Map-task granularity on either cluster (MB of input per map task).
  double map_chunk_mb = 16.0;
  /// Hadoop task-slot cap: how many map tasks of ONE job may run
  /// concurrently. 1 reproduces the paper's Fig. 2 semantics (each job
  /// occupies one resource; parallelism comes from concurrent jobs, and
  /// Algorithm 2's pdfchunk is what splits big jobs across machines).
  int max_map_tasks_per_job = 1;
  /// Merge/compress cost per MB of output on the executing cluster.
  double merge_seconds_per_output_mb = 0.05;
};

/// One external cloud provider: its cluster and its own pipe. The paper's
/// test bed is one site (2 EMR VMs); several sites are the pool of §I
/// ("one could possibly choose from a pool of Cloud Providers at
/// run-time"), differing in instance count, speed and path bandwidth.
struct EcSiteConfig {
  std::string name = "ec";
  std::size_t machines = 2;
  double speed = 1.0;
  /// Fixed per-job overhead on this site (S3 staging, EMR job setup and
  /// task scheduling) — machine-occupying time added to every job run
  /// here. This is what makes bursting a small job unattractive when the
  /// internal queue is short.
  double job_overhead_seconds = 30.0;
  cbs::net::LinkConfig uplink{};
  cbs::net::LinkConfig downlink{};
};

/// §V.B.4 future work: elastic scaling of the external cloud — "the
/// scaling (at EC) must be just enough to ensure saturation of the
/// download bandwidth". A periodic autonomic check grows the EC while
/// work queues behind it and shrinks it when instances idle.
struct ElasticEcConfig {
  bool enabled = false;
  std::size_t min_machines = 1;
  std::size_t max_machines = 8;
  cbs::sim::SimDuration check_interval = 60.0;
  /// Instance spin-up delay (an EC2 boot); capacity arrives late.
  cbs::sim::SimDuration boot_delay = 45.0;
  /// Grow when the believed EC queue wait exceeds this many seconds.
  double grow_wait_threshold_seconds = 90.0;
  /// Shrink when more than this fraction of instances sit idle with an
  /// empty queue.
  double shrink_idle_fraction = 0.5;
};

/// Proactive failure resilience: an online per-VM hazard predictor
/// (models/hazard.hpp) feeding three controller policies — pre-emptive
/// drain of high-hazard machines, risk-weighted burst pricing (believed EC
/// round trips inflate with predicted failure probability, which every
/// scheduler consumes through BeliefState), and hazard-shortened burst
/// retraction deadlines. Default-constructed = predictor off: nothing is
/// built, no estimate changes, runs stay byte-identical.
struct ResilienceConfig {
  cbs::models::HazardModelConfig hazard{};
  /// Drain a machine once its predicted failure probability within
  /// `drain_window_seconds` reaches this; it is undrained when the
  /// probability falls back below. Drains are soft: dispatch avoids the
  /// machine while a healthy one is free, but never stalls the queue
  /// (compute::Cluster::drain_machine).
  double drain_threshold = 0.35;
  cbs::sim::SimDuration drain_window_seconds = 600.0;
  /// Risk pricing lever: believed EC processing scales by
  /// (1 + risk_weight × mean P(EC VM fails within the drain window)).
  double risk_weight = 0.5;
  /// Checkpoint-restart the running task when its machine drains (the
  /// completed fraction is preserved); otherwise the task runs to the end
  /// and only new dispatches are blocked.
  bool preempt_on_drain = true;

  [[nodiscard]] bool enabled() const noexcept {
    return hazard.kind != cbs::models::HazardPredictorKind::kOff;
  }
};

/// The full controller configuration.
struct ControllerConfig {
  SchedulerKind scheduler = SchedulerKind::kOrderPreserving;
  EstimatorKind estimator = EstimatorKind::kQrsm;
  SchedulerParams params{};
  TopologyConfig topology{};

  /// The external sites. Site 0 is the paper's single EC; with more than
  /// one, order-preserving placement bursts each job to the site with the
  /// earliest believed round trip. Faults, elastic scaling, the
  /// rescheduler and the hazard predictor act on site 0 only, so
  /// ec_site_problems() rejects them with several sites.
  std::vector<EcSiteConfig> ec_sites{EcSiteConfig{}};
  cbs::net::BandwidthEstimator::Config bandwidth_estimator{};
  cbs::net::ThreadTuner::Config thread_tuner{};

  /// Periodic 1 MB bandwidth probes (§III.A.2); 0 disables probing.
  cbs::sim::SimDuration probe_interval = 150.0;
  double probe_bytes = 1.0e6;

  /// §IV.D rescheduling strategies (paper future work; off by default).
  bool enable_rescheduler = false;

  ElasticEcConfig elastic_ec{};

  /// Fault injection and burst-retraction recovery. Default-constructed =
  /// fully disabled and zero-cost: no FaultPlan is built, no events are
  /// scheduled, runs are byte-identical to a fault-free build.
  cbs::sim::FaultConfig faults{};

  /// Proactive failure resilience (hazard prediction + drains). Disabled by
  /// default; zero-cost and byte-identical when off.
  ResilienceConfig resilience{};

  /// EC staging-store retry/backoff/capacity knobs (S3 best-effort model).
  cbs::compute::JobStore::Config store{};

  /// Concurrent uploads when a single upload queue is used; the
  /// size-interval scheduler uses one slot per interval queue instead.
  int single_queue_upload_slots = 1;
  /// Some batches are admitted under bandwidth-split although `scheduler`
  /// is not: a lookahead run whose candidates include it. Derived, not a
  /// setting: harness::Scenario::controller_config() writes it. The upload
  /// stage then has bandwidth-split's size-interval queues from the start.
  bool admits_bandwidth_split = false;
  int download_slots = 1;

  /// Record every job's pipeline-stage transitions (Fig. 5 observability);
  /// costs memory proportional to jobs x stages, so off by default.
  bool record_stage_log = false;

  /// Per-run logging threshold. Every controller owns its Logger, so
  /// concurrent runs (the parallel experiment runner) never share mutable
  /// logging state.
  cbs::sim::LogLevel log_threshold = cbs::sim::LogLevel::kWarn;
};

/// Checks the EC site list: at least one site, each with machines, a
/// positive finite speed and a finite non-negative overhead, and several
/// sites only with a scheduler and features that handle them. One message
/// per problem; empty when the controller can be built.
[[nodiscard]] std::vector<std::string> ec_site_problems(
    const ControllerConfig& config);

/// Returns a config calibrated so that mean transfer time is of the order
/// of mean processing time on the default workload — the regime the paper
/// studies. `high_network_variation` raises the AR(1) sigma (Fig. 9/10).
[[nodiscard]] ControllerConfig default_controller_config(
    bool high_network_variation = false);

}  // namespace cbs::core
