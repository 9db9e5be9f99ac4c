#pragma once

#include <memory>
#include <string>
#include <vector>

#include "compute/cluster.hpp"
#include "compute/job_store.hpp"
#include "compute/mapreduce.hpp"
#include "core/belief_state.hpp"
#include "core/config.hpp"
#include "core/ec_site.hpp"
#include "core/job.hpp"
#include "core/scheduler.hpp"
#include "core/upload_queues.hpp"
#include "util/chunked_log.hpp"
#include "util/flat_map.hpp"
#include "util/seq_ring.hpp"
#include "models/estimator.hpp"
#include "models/hazard.hpp"
#include "net/bandwidth_estimator.hpp"
#include "net/link.hpp"
#include "net/thread_tuner.hpp"
#include "simcore/fault_plan.hpp"
#include "simcore/logging.hpp"
#include "simcore/rng.hpp"
#include "simcore/simulation.hpp"
#include "sla/cost.hpp"
#include "sla/job_outcome.hpp"
#include "workload/arrival.hpp"
#include "workload/ground_truth.hpp"

namespace cbs::core {

/// The cloud-bursting controller: the pipelined, event-based architecture
/// of the paper's Fig. 5, wiring together
///
///   job queue → scheduler → { IC MapReduce }  or
///                           { upload queue(s) → EC store → EC MapReduce →
///                             compress/merge → download queue } → results
///
/// Every stage is asynchronous; the controller reacts to completion events.
/// It owns the autonomic loop: QRSM observations after every job, EWMA
/// bandwidth updates after every transfer, periodic 1 MB probes, and
/// thread-count tuning.
///
/// The external side is a vector of EC sites (ControllerConfig::ec_sites),
/// each with its own pipe, queues, store and cluster. The paper's setting
/// is one site; with several, order-preserving placement answers *where*
/// per job (the site with the earliest believed round trip) while the
/// slack rule of Eq. 1–2 still answers *when*.
class CloudBurstController {
 public:
  CloudBurstController(cbs::sim::Simulation& sim, ControllerConfig config,
                       cbs::workload::GroundTruthModel& truth,
                       cbs::sim::RngStream rng);
  CloudBurstController(const CloudBurstController&) = delete;
  CloudBurstController& operator=(const CloudBurstController&) = delete;

  /// Fork support: deep-copies `src` into a controller bound to the (empty)
  /// destination engine `dst` and the fork's ground-truth model. Every
  /// sub-component is value-cloned and rebound to its forked peers; call
  /// rebuild_events() afterwards to re-schedule the pending work, then
  /// SnapshotContext::finish() to verify nothing was orphaned.
  CloudBurstController(cbs::sim::Simulation& dst,
                       const CloudBurstController& src,
                       cbs::workload::GroundTruthModel& truth);

  /// Re-schedules all pending events owned by this controller and its
  /// sub-components after a fork.
  void rebuild_events(cbs::sim::SnapshotContext& ctx);

  /// Seeds the QRSM with a labeled factory corpus (§III.A.1: "initial best
  /// estimate model based on a standard set of production data"). No-op for
  /// the oracle estimator.
  void pretrain(const std::vector<cbs::workload::Document>& docs,
                const std::vector<double>& observed_runtimes);

  /// Handles one arriving batch (wire this to BatchArrivalProcess).
  void on_batch(const cbs::workload::Batch& batch);

  /// Handles one arriving batch using a temporarily swapped-in scheduler of
  /// `kind` (the lookahead controller commits its chosen candidate through
  /// this). The belief's bandwidth view follows the candidate the way the
  /// primary constructor wires it (Greedy conditions on the transient
  /// reading); both scheduler and view are restored before returning.
  void on_batch_as(const cbs::workload::Batch& batch, SchedulerKind kind);

  // ---- results & introspection -------------------------------------

  /// Every finished job's outcome, in completion order, assembled into one
  /// vector (a copy: O(outcomes)).
  [[nodiscard]] std::vector<cbs::sla::JobOutcome> outcomes() const {
    return outcomes_.to_vector();
  }
  /// The same outcomes as stored: chunks shared with forks, readable
  /// from any index without assembling the whole history.
  [[nodiscard]] const cbs::util::ChunkedLog<cbs::sla::JobOutcome>& outcome_log()
      const noexcept {
    return outcomes_;
  }
  [[nodiscard]] std::size_t outstanding_jobs() const noexcept { return outstanding_; }
  [[nodiscard]] const compute::Cluster& ic_cluster() const noexcept { return ic_cluster_; }
  /// The EC sites, in ControllerConfig::ec_sites order.
  [[nodiscard]] std::size_t site_count() const noexcept { return sites_.size(); }
  [[nodiscard]] const EcSite& site(std::size_t index) const {
    return *sites_.at(index);
  }
  // Views of site 0, the paper's single EC.
  [[nodiscard]] const compute::Cluster& ec_cluster() const noexcept {
    return sites_.front()->cluster;
  }
  [[nodiscard]] const net::Link& uplink() const noexcept {
    return sites_.front()->uplink;
  }
  [[nodiscard]] const net::Link& downlink() const noexcept {
    return sites_.front()->downlink;
  }
  [[nodiscard]] const compute::JobStore& store() const noexcept {
    return sites_.front()->store;
  }
  [[nodiscard]] const models::ProcessingTimeEstimator& service_estimator() const {
    return *proc_estimator_;
  }
  [[nodiscard]] const Scheduler& scheduler() const noexcept { return *scheduler_; }
  [[nodiscard]] const ControllerConfig& config() const noexcept { return config_; }
  /// Number of §IV.D rescheduler interventions that occurred.
  [[nodiscard]] std::size_t pull_backs() const noexcept { return pull_backs_; }
  [[nodiscard]] std::size_t push_outs() const noexcept { return push_outs_; }
  /// Elastic-EC activity (scale-ups / scale-downs performed).
  [[nodiscard]] std::size_t scale_ups() const noexcept { return scale_ups_; }
  [[nodiscard]] std::size_t scale_downs() const noexcept { return scale_downs_; }
  /// Bursts retracted by the recovery policy (deadline blown, EC outage
  /// observed, or staging abandoned): the job was re-admitted to the IC
  /// queue at its FCFS position and re-executed internally.
  [[nodiscard]] std::size_t retractions() const noexcept { return retractions_; }
  /// Periodic probes skipped because of a probe-blackout window.
  [[nodiscard]] std::size_t probe_blackout_skips() const noexcept {
    return probe_blackout_skips_;
  }
  /// The per-VM hazard estimators, or nullptr when the predictor is off.
  [[nodiscard]] const models::VmHazardEstimator* ic_hazard() const noexcept {
    return ic_hazard_.get();
  }
  [[nodiscard]] const models::VmHazardEstimator* ec_hazard() const noexcept {
    return ec_hazard_.get();
  }
  /// Mean predicted probability that a usable (non-drained) EC machine
  /// fails within the drain window; 0 when the predictor is off. This is
  /// the risk signal the burst pricing and the lookahead scoring consume.
  [[nodiscard]] double ec_failure_risk() const;
  /// Outstanding jobs the belief currently places on the EC.
  [[nodiscard]] std::size_t outstanding_ec_jobs() const noexcept {
    return belief_.outstanding_ec_jobs();
  }
  /// The fault generator, or nullptr when faults are disabled.
  // cbs-lint: snapshot-ok(observer return of the owned unique_ptr, never stored)
  [[nodiscard]] const cbs::sim::FaultPlan* fault_plan() const noexcept {
    return fault_plan_.get();
  }
  /// Billing inputs accumulated so far (provisioned EC machine-seconds,
  /// bytes moved each way, staging byte-seconds — summed over the sites —
  /// and IC machine-seconds).
  [[nodiscard]] sla::CostInputs cost_inputs() const;

  /// One pipeline-stage transition of one job (recorded when
  /// ControllerConfig::record_stage_log is set).
  struct StageEvent {
    std::uint64_t seq_id = 0;
    JobState state = JobState::kArrived;
    cbs::sim::SimTime time = 0.0;
  };
  [[nodiscard]] const std::vector<StageEvent>& stage_log() const noexcept {
    return stage_log_;
  }

 private:
  void wire_hooks();
  /// Registers the controller's hooks on site `index`. Registration order
  /// is part of the fork contract: it must give the clone the source's
  /// link and store slots.
  void wire_site(std::size_t index);
  /// Site 0: the one the single-site features (faults, elastic scaling,
  /// the rescheduler, the hazard predictor) act on.
  [[nodiscard]] EcSite& first_site() noexcept { return *sites_.front(); }
  void dispatch_ic();
  void run_on_ic(std::uint64_t seq);
  void on_ic_done(std::uint64_t seq);
  void on_upload_done(std::size_t site, std::uint64_t seq,
                      const net::TransferRecord& rec);
  void on_input_staged(std::size_t site, std::uint64_t seq, bool ok);
  void on_output_staged(std::size_t site, std::uint64_t seq, bool ok);
  void start_ec_processing(std::size_t site, std::uint64_t seq);
  void on_ec_proc_done(std::size_t site, std::uint64_t seq);
  void on_boot_done(std::uint64_t boot_id);
  void arm_burst_deadline(std::uint64_t seq);
  void disarm_burst_deadline(std::uint64_t seq);
  void on_burst_deadline(std::uint64_t seq);
  void readmit_to_ic(std::uint64_t seq, double pending_upload_bytes,
                     const char* why);
  void admit_ic_in_order(std::uint64_t seq);
  void on_outage_begin();
  void on_outage_end();
  void on_download_done(std::size_t site, std::uint64_t seq,
                        const net::TransferRecord& rec);
  void finish_job(Job& job);
  void set_state(Job& job, JobState state);
  void ensure_probing();
  void probe();
  void ensure_elastic_check();
  void elastic_check();
  void maybe_pull_back();
  void maybe_push_out();
  // ---- proactive resilience (hazard prediction + drains) ----
  void on_ic_crash(std::size_t machine);
  void on_ic_recover(std::size_t machine);
  void on_ec_crash(std::size_t machine);
  void on_ec_recover(std::size_t machine);
  /// Re-evaluates drains and the believed EC risk factor; no-op when the
  /// predictor is off. Runs at every crash, recovery and batch arrival —
  /// existing deterministic event points, so no new events are created and
  /// nothing extra crosses a fork.
  void update_resilience();
  void update_cluster_drains(compute::Cluster& cluster,
                             models::VmHazardEstimator& hazard);
  [[nodiscard]] compute::MapReduceSpec spec_for(const Job& job,
                                                double merge_per_mb) const;
  [[nodiscard]] Job& job_at(std::uint64_t seq);

  cbs::sim::Simulation& sim_;
  ControllerConfig config_;
  cbs::workload::GroundTruthModel& truth_;
  sim::Logger log_;

  compute::Cluster ic_cluster_;
  compute::MapReduceRuntime ic_runtime_;
  /// Heap-held so each site keeps its address: the queue sets and hooks
  /// reference site members. Hooks capture the site index.
  std::vector<std::unique_ptr<EcSite>> sites_;
  std::unique_ptr<models::ProcessingTimeEstimator> proc_estimator_;
  BeliefState belief_;
  std::unique_ptr<Scheduler> scheduler_;

  /// Live jobs by seq: finish_job() erases each job, so a fork copies the
  /// jobs in flight, not the run's history.
  cbs::util::SeqRing<Job> jobs_;
  std::deque<std::uint64_t> ic_wait_;  ///< IC feed queue (enables rescheduling)
  /// Finished jobs' outcomes: append-only history, so forks share its full
  /// chunks and copy only the partial tail.
  cbs::util::ChunkedLog<cbs::sla::JobOutcome> outcomes_;
  std::uint64_t next_seq_ = 1;
  std::uint64_t next_doc_id_ = 1ULL << 32;  ///< chunk ids, disjoint from inputs
  std::size_t outstanding_ = 0;
  bool probe_scheduled_ = false;
  std::size_t pull_backs_ = 0;
  std::size_t push_outs_ = 0;
  std::vector<StageEvent> stage_log_;
  bool elastic_check_scheduled_ = false;
  std::size_t pending_boots_ = 0;  ///< instances spinning up
  std::size_t scale_ups_ = 0;
  std::size_t scale_downs_ = 0;

  // ---- controller-owned pending events (restored across forks) ----
  cbs::sim::EventId probe_event_{};
  cbs::sim::EventId elastic_event_{};
  cbs::util::FlatMap<std::uint64_t, cbs::sim::EventId> boot_events_;
  std::uint64_t next_boot_id_ = 1;
  /// Lazily created schedulers for on_batch_as(); cloned across forks.
  std::vector<std::pair<SchedulerKind, std::unique_ptr<Scheduler>>>
      alt_schedulers_;

  // ---- fault layer (absent and cost-free unless configured) ----
  std::unique_ptr<cbs::sim::FaultPlan> fault_plan_;
  /// Pending burst-retraction deadlines: seq -> the deadline event.
  cbs::util::FlatMap<std::uint64_t, cbs::sim::EventId> burst_deadlines_;
  std::size_t retractions_ = 0;
  std::size_t probe_blackout_skips_ = 0;

  // ---- proactive resilience (absent and cost-free unless configured) ----
  // Pure value state (no events, no hooks), so forks copy-construct them.
  std::unique_ptr<models::VmHazardEstimator> ic_hazard_;
  std::unique_ptr<models::VmHazardEstimator> ec_hazard_;
};

}  // namespace cbs::core
