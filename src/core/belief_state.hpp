#pragma once

#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "models/estimator.hpp"
#include "util/seq_ring.hpp"
#include "net/bandwidth_estimator.hpp"
#include "simcore/time.hpp"
#include "workload/document.hpp"

namespace cbs::core {

/// How a scheduler reads the network when estimating transfers.
/// kLearned uses the per-slot EWMA model (§III.A.2); kTransient uses the
/// latest raw observation — Algorithm 1's "current transit bandwidth",
/// whose fragility §IV.D analyses.
enum class BandwidthView : std::uint8_t { kLearned, kTransient };

/// Breakdown of an estimated external round trip (the terms of Eq. 2).
struct EcEstimate {
  std::size_t site = 0;              ///< the EC site the estimate is for
  double upload_seconds = 0.0;
  double ec_wait_seconds = 0.0;      ///< queueing behind earlier EC work
  double processing_seconds = 0.0;   ///< wall time on the EC cluster
  double download_seconds = 0.0;
  cbs::sim::SimTime finish = 0.0;    ///< absolute estimated completion (ft^ec)
};

/// The scheduler's belief about the state of both clouds — everything the
/// finish-time estimators ft^ic(i,S) and ft^ec(i,S) of §III.A condition on.
///
/// The belief is built only from information a real controller has: its own
/// placement decisions, the QRSM's service estimates, the EWMA bandwidth
/// estimates, and completion notifications. It never peeks at ground truth
/// (link noise state, realized service times); the gap between belief and
/// reality is exactly the estimation error whose consequences §IV.D
/// analyses.
class BeliefState {
 public:
  /// The internal cloud alone; add the EC sites with add_ec_site().
  /// `ic_job_parallelism` is how many machines one job's tasks can occupy
  /// at once (TopologyConfig::max_map_tasks_per_job clamped to the cluster
  /// size) — it divides the job's own service time, while the backlog
  /// always drains at full aggregate rate.
  BeliefState(const cbs::models::ProcessingTimeEstimator& service_estimator,
              std::size_t ic_machines, double ic_speed,
              int ic_job_parallelism = 1);

  /// The paper's setting: the internal cloud and one EC site.
  BeliefState(const cbs::models::ProcessingTimeEstimator& service_estimator,
              const cbs::net::BandwidthEstimator& uplink_estimator,
              const cbs::net::BandwidthEstimator& downlink_estimator,
              std::size_t ic_machines, double ic_speed, std::size_t ec_machines,
              double ec_speed, int ic_job_parallelism = 1,
              int ec_job_parallelism = 1, double ec_job_overhead_seconds = 0.0);

  /// Fork support: copies `src`'s believed state wholesale, rebinding the
  /// service estimator to the fork's clone. Each EC site still reads the
  /// source's bandwidth estimators until rebind_ec_site() points it at
  /// the fork's clones. Pure value copy otherwise.
  BeliefState(const BeliefState& src,
              const cbs::models::ProcessingTimeEstimator& service_estimator);

  /// Adds an EC site with its own pipe estimators, machines and per-job
  /// overhead; returns its index (the first site is 0).
  std::size_t add_ec_site(const cbs::net::BandwidthEstimator& uplink_estimator,
                          const cbs::net::BandwidthEstimator& downlink_estimator,
                          std::size_t machines, double speed,
                          int job_parallelism = 1,
                          double job_overhead_seconds = 0.0);
  /// Points `site` at the fork's bandwidth estimators.
  void rebind_ec_site(std::size_t site,
                      const cbs::net::BandwidthEstimator& uplink_estimator,
                      const cbs::net::BandwidthEstimator& downlink_estimator);
  [[nodiscard]] std::size_t ec_site_count() const noexcept {
    return ec_sites_.size();
  }

  /// Estimated standard-machine service seconds for a document (t^e(i)).
  [[nodiscard]] double estimate_service(const cbs::workload::Document& doc) const;

  /// ft^ic: estimated absolute completion time if `doc` were appended to
  /// the internal queue now. The cluster is modeled as draining its
  /// estimated backlog at aggregate rate (machines × speed) — accurate for
  /// the map-task-granular FCFS dispatch the controller uses.
  [[nodiscard]] cbs::sim::SimTime ft_ic(const cbs::workload::Document& doc,
                                        cbs::sim::SimTime now) const;

  /// ft^ec on EC site `site` with the full round-trip breakdown:
  /// upload-queue drain + upload, EC backlog, processing, download (Eq. 2's
  /// terms).
  [[nodiscard]] EcEstimate ft_ec(const cbs::workload::Document& doc,
                                 cbs::sim::SimTime now,
                                 std::size_t site = 0) const;

  /// ft^ec on site 0 ignoring all queueing (Algorithm 3, line 5:
  /// completion "under no load": t_up + e_ec + t_down).
  [[nodiscard]] double ec_round_trip_no_load(const cbs::workload::Document& doc,
                                             cbs::sim::SimTime now) const;

  /// The *job-level* ft^ec of Algorithm 1 on site 0: the greedy scheduler
  /// evaluates each job against the state of the system as observed at
  /// batch arrival (`observed_upload_backlog_bytes` is the real upload
  /// queue then) — but it does NOT model the backlog its own earlier
  /// in-batch decisions are creating. This blind spot is precisely how greedy-bursted jobs end up
  /// on the critical path (§IV.D): each decision looks locally fine, and
  /// the queueing delay only materializes at download time.
  [[nodiscard]] EcEstimate ft_ec_job_level(
      const cbs::workload::Document& doc, cbs::sim::SimTime now,
      double observed_upload_backlog_bytes,
      double observed_download_backlog_bytes) const;

  /// Eq. 1: the cushion for the next job to be scheduled — the latest
  /// estimated completion among all outstanding (committed, not completed)
  /// jobs on every site, which all precede it in the queue. `now` when
  /// nothing is ahead.
  ///
  /// O(1) amortized: the maximum believed EC finish is maintained
  /// incrementally (lazy-deletion max-heap updated on commit/complete/
  /// retract) instead of rescanned — the rescan made every Poisson batch
  /// O(n²) in outstanding jobs. `slack_bruteforce` is the O(n) reference.
  [[nodiscard]] cbs::sim::SimTime slack(cbs::sim::SimTime now) const;

  /// Reference implementation of `slack` that rescans every believed EC
  /// job. Exists so property tests can pin the incremental structure
  /// against it under arbitrary commit/complete/retract sequences; not for
  /// production call sites.
  [[nodiscard]] cbs::sim::SimTime slack_bruteforce(cbs::sim::SimTime now) const;

  /// Estimated drain time of the internal cloud (absolute).
  [[nodiscard]] cbs::sim::SimTime ic_drain_time(cbs::sim::SimTime now) const;

  /// Estimated IC backlog in standard seconds (Algorithm 3's iload, as
  /// wall-clock seconds once divided by capacity).
  [[nodiscard]] double ic_backlog_standard_seconds() const noexcept {
    return ic_outstanding_seconds_;
  }

  // ---- Commitments (called by the controller as decisions are made) ----

  /// Records an IC placement of `seq` with the given service estimate.
  void commit_ic(std::uint64_t seq, double estimated_service);
  /// Records an EC placement on `estimate.site` with its round-trip
  /// estimate.
  void commit_ec(std::uint64_t seq, const cbs::workload::Document& doc,
                 const EcEstimate& estimate);

  // ---- Observations (completion notifications) ----

  void on_ic_complete(std::uint64_t seq);
  void on_ec_complete(std::uint64_t seq);
  /// An upload to `site` finished; removes its bytes from that site's
  /// believed upload backlog.
  void on_upload_complete(double bytes, std::size_t site = 0);

  /// Moves a job between clouds (rescheduler support). The caller supplies
  /// the new estimate for the receiving side.
  void retract_ic(std::uint64_t seq);
  void retract_ec(std::uint64_t seq, double pending_upload_bytes);

  [[nodiscard]] std::size_t outstanding_ic_jobs() const noexcept {
    return ic_jobs_.size();
  }
  [[nodiscard]] std::size_t outstanding_ec_jobs() const noexcept {
    return ec_jobs_.size();
  }
  /// Site 0's believed upload backlog.
  [[nodiscard]] double upload_backlog_bytes() const noexcept {
    return ec_sites_.front().upload_backlog_bytes;
  }

  void set_bandwidth_view(BandwidthView view) noexcept { view_ = view; }
  [[nodiscard]] BandwidthView bandwidth_view() const noexcept { return view_; }

  /// Elastic EC support: site 0's believed machine count follows the
  /// actual provisioning level.
  void set_ec_machines(std::size_t machines) noexcept {
    if (machines > 0) ec_sites_.front().machines = machines;
  }
  [[nodiscard]] std::size_t ec_machines() const noexcept {
    return ec_sites_.front().machines;
  }

  /// Proactive-resilience risk pricing: believed processing time on site 0
  /// scales by (1 + factor), so every scheduler that consults ft_ec /
  /// ft_ec_job_level / ec_round_trip_no_load prices predicted EC failure
  /// risk into its burst decision. 0 (the default) is an exact no-op.
  void set_ec_risk_factor(double factor) noexcept {
    ec_sites_.front().risk_factor = factor < 0.0 ? 0.0 : factor;
  }
  [[nodiscard]] double ec_risk_factor() const noexcept {
    return ec_sites_.front().risk_factor;
  }

 private:
  /// What the scheduler believes about one EC site.
  struct EcSiteBelief {
    std::reference_wrapper<const cbs::net::BandwidthEstimator> uplink;
    std::reference_wrapper<const cbs::net::BandwidthEstimator> downlink;
    std::size_t machines = 1;
    double speed = 1.0;
    double job_rate = 1.0;      ///< speed × job parallelism
    double job_overhead = 0.0;  ///< fixed wall-clock overhead per job
    double outstanding_seconds = 0.0;  ///< believed standard seconds queued
    double upload_backlog_bytes = 0.0;
    double risk_factor = 0.0;  ///< believed processing inflation, (1 + factor)

    [[nodiscard]] double capacity() const noexcept {
      return static_cast<double>(machines) * speed;
    }
  };

  [[nodiscard]] double ic_capacity() const noexcept {
    return static_cast<double>(ic_machines_) * ic_speed_;
  }
  /// Processing seconds of `doc` on `site` once it reaches a machine.
  [[nodiscard]] double processing_seconds(const EcSiteBelief& site,
                                          const cbs::workload::Document& doc) const;
  [[nodiscard]] double upload_seconds_for(const EcSiteBelief& site,
                                          cbs::sim::SimTime t,
                                          double bytes) const;
  [[nodiscard]] double download_seconds_for(const EcSiteBelief& site,
                                            cbs::sim::SimTime t,
                                            double bytes) const;

  const cbs::models::ProcessingTimeEstimator& service_estimator_;
  std::size_t ic_machines_;
  double ic_speed_;
  double ic_job_rate_;  ///< speed × job parallelism on the IC
  std::vector<EcSiteBelief> ec_sites_;

  // Outstanding IC jobs: seq -> estimated standard seconds. Seq-indexed
  // rings: completing the oldest job is O(1), not a shift of the backlog.
  cbs::util::SeqRing<double> ic_jobs_;
  double ic_outstanding_seconds_ = 0.0;
  // Outstanding EC jobs on every site: seq -> (estimated absolute
  // completion, estimated EC processing seconds still ahead of the store,
  // the site it runs on).
  struct EcJob {
    cbs::sim::SimTime est_finish = 0.0;
    double processing_seconds = 0.0;
    std::size_t site = 0;
  };
  cbs::util::SeqRing<EcJob> ec_jobs_;
  /// Lazy-deletion max-heap over (est_finish, seq) of the believed EC jobs.
  /// Completions/retractions leave stale records; slack() pops them when
  /// they surface (an entry is live iff ec_jobs_[seq].est_finish matches),
  /// and commit_ec compacts when stale records dominate. `mutable` because
  /// popping stale tops is a read-side maintenance step.
  mutable std::vector<std::pair<cbs::sim::SimTime, std::uint64_t>> ec_finish_heap_;
  BandwidthView view_ = BandwidthView::kLearned;
};

}  // namespace cbs::core
