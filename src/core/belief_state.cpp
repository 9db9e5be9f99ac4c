#include "core/belief_state.hpp"

#include <algorithm>
#include <cassert>

namespace cbs::core {

using cbs::sim::SimTime;

BeliefState::BeliefState(
    const cbs::models::ProcessingTimeEstimator& service_estimator,
    std::size_t ic_machines, double ic_speed, int ic_job_parallelism)
    : service_estimator_(service_estimator),
      ic_machines_(ic_machines),
      ic_speed_(ic_speed) {
  assert(ic_machines > 0 && ic_speed > 0.0);
  assert(ic_job_parallelism >= 1);
  ic_job_rate_ = ic_speed * static_cast<double>(std::min<std::size_t>(
                                ic_machines, static_cast<std::size_t>(
                                                 ic_job_parallelism)));
}

BeliefState::BeliefState(
    const cbs::models::ProcessingTimeEstimator& service_estimator,
    const cbs::net::BandwidthEstimator& uplink_estimator,
    const cbs::net::BandwidthEstimator& downlink_estimator,
    std::size_t ic_machines, double ic_speed, std::size_t ec_machines,
    double ec_speed, int ic_job_parallelism, int ec_job_parallelism,
    double ec_job_overhead_seconds)
    : BeliefState(service_estimator, ic_machines, ic_speed,
                  ic_job_parallelism) {
  add_ec_site(uplink_estimator, downlink_estimator, ec_machines, ec_speed,
              ec_job_parallelism, ec_job_overhead_seconds);
}

BeliefState::BeliefState(
    const BeliefState& src,
    const cbs::models::ProcessingTimeEstimator& service_estimator)
    : service_estimator_(service_estimator),
      ic_machines_(src.ic_machines_),
      ic_speed_(src.ic_speed_),
      ic_job_rate_(src.ic_job_rate_),
      ec_sites_(src.ec_sites_),
      ic_jobs_(src.ic_jobs_),
      ic_outstanding_seconds_(src.ic_outstanding_seconds_),
      ec_jobs_(src.ec_jobs_),
      ec_finish_heap_(src.ec_finish_heap_),
      view_(src.view_) {}

std::size_t BeliefState::add_ec_site(
    const cbs::net::BandwidthEstimator& uplink_estimator,
    const cbs::net::BandwidthEstimator& downlink_estimator,
    std::size_t machines, double speed, int job_parallelism,
    double job_overhead_seconds) {
  assert(machines > 0 && speed > 0.0);
  assert(job_parallelism >= 1);
  assert(job_overhead_seconds >= 0.0);
  EcSiteBelief site{.uplink = uplink_estimator,
                    .downlink = downlink_estimator,
                    .machines = machines,
                    .speed = speed};
  site.job_rate = speed * static_cast<double>(std::min<std::size_t>(
                              machines,
                              static_cast<std::size_t>(job_parallelism)));
  site.job_overhead = job_overhead_seconds;
  ec_sites_.push_back(site);
  return ec_sites_.size() - 1;
}

void BeliefState::rebind_ec_site(
    std::size_t site, const cbs::net::BandwidthEstimator& uplink_estimator,
    const cbs::net::BandwidthEstimator& downlink_estimator) {
  ec_sites_[site].uplink = uplink_estimator;
  ec_sites_[site].downlink = downlink_estimator;
}

double BeliefState::estimate_service(const cbs::workload::Document& doc) const {
  return service_estimator_.estimate_seconds(doc);
}

double BeliefState::processing_seconds(
    const EcSiteBelief& site, const cbs::workload::Document& doc) const {
  // Risk pricing: predicted EC failure risk inflates the believed
  // processing term (× 1.0 exactly when the hazard predictor is off).
  return (site.job_overhead + estimate_service(doc) / site.job_rate) *
         (1.0 + site.risk_factor);
}

double BeliefState::upload_seconds_for(const EcSiteBelief& site, SimTime t,
                                       double bytes) const {
  if (view_ == BandwidthView::kTransient) {
    return bytes / std::max(site.uplink.get().last_observed(), 1.0);
  }
  return site.uplink.get().estimate_transfer_seconds(t, bytes);
}

double BeliefState::download_seconds_for(const EcSiteBelief& site, SimTime t,
                                         double bytes) const {
  if (view_ == BandwidthView::kTransient) {
    return bytes / std::max(site.downlink.get().last_observed(), 1.0);
  }
  return site.downlink.get().estimate_transfer_seconds(t, bytes);
}

SimTime BeliefState::ic_drain_time(SimTime now) const {
  return now + ic_outstanding_seconds_ / ic_capacity();
}

SimTime BeliefState::ft_ic(const cbs::workload::Document& doc, SimTime now) const {
  const double est = estimate_service(doc);
  // Backlog drains at full aggregate rate; the new job's own work then
  // runs at the per-job rate (task-slot cap).
  return now + ic_outstanding_seconds_ / ic_capacity() + est / ic_job_rate_;
}

EcEstimate BeliefState::ft_ec(const cbs::workload::Document& doc, SimTime now,
                              std::size_t site) const {
  const EcSiteBelief& ec = ec_sites_[site];
  EcEstimate e;
  e.site = site;
  // Upload: queued bytes ahead of us plus our own, at the believed rate.
  e.upload_seconds =
      upload_seconds_for(ec, now, ec.upload_backlog_bytes + doc.input_bytes());
  const SimTime upload_done = now + e.upload_seconds;

  // EC compute: outstanding believed work drains meanwhile; whatever is
  // left when our bytes land queues ahead of us.
  const double drained = (upload_done - now) * ec.capacity();
  const double backlog_left = std::max(0.0, ec.outstanding_seconds - drained);
  e.ec_wait_seconds = backlog_left / ec.capacity();
  e.processing_seconds = processing_seconds(ec, doc);
  const SimTime proc_done =
      upload_done + e.ec_wait_seconds + e.processing_seconds;

  // Download of the (estimated) output at the believed downlink rate at
  // that future time — the l(t_i + t') term of Eq. 2.
  e.download_seconds = download_seconds_for(ec, proc_done, doc.output_bytes());
  e.finish = proc_done + e.download_seconds;
  return e;
}

EcEstimate BeliefState::ft_ec_job_level(
    const cbs::workload::Document& doc, SimTime now,
    double observed_upload_backlog_bytes,
    double observed_download_backlog_bytes) const {
  const EcSiteBelief& ec = ec_sites_.front();
  EcEstimate e;
  e.upload_seconds = upload_seconds_for(
      ec, now, observed_upload_backlog_bytes + doc.input_bytes());
  const SimTime upload_done = now + e.upload_seconds;
  const double drained = (upload_done - now) * ec.capacity();
  const double backlog_left = std::max(0.0, ec.outstanding_seconds - drained);
  e.ec_wait_seconds = backlog_left / ec.capacity();
  e.processing_seconds = processing_seconds(ec, doc);
  const SimTime proc_done = upload_done + e.ec_wait_seconds + e.processing_seconds;
  e.download_seconds = download_seconds_for(
      ec, proc_done, observed_download_backlog_bytes + doc.output_bytes());
  e.finish = proc_done + e.download_seconds;
  return e;
}

double BeliefState::ec_round_trip_no_load(const cbs::workload::Document& doc,
                                          SimTime now) const {
  const EcSiteBelief& ec = ec_sites_.front();
  const double up = upload_seconds_for(ec, now, doc.input_bytes());
  const double proc = processing_seconds(ec, doc);
  const double down =
      download_seconds_for(ec, now + up + proc, doc.output_bytes());
  return up + proc + down;
}

SimTime BeliefState::slack(SimTime now) const {
  SimTime cushion = now;
  if (!ic_jobs_.empty()) {
    cushion = std::max(cushion, ic_drain_time(now));
  }
  // Pop stale heap tops (completed/retracted jobs, or a seq re-committed
  // with a different estimate) until a live maximum surfaces. Each stale
  // record is popped exactly once, so the amortized cost per slack() call
  // is O(1) heap maintenance.
  while (!ec_finish_heap_.empty()) {
    const auto& [finish, seq] = ec_finish_heap_.front();
    const EcJob* job = ec_jobs_.find(seq);
    if (job != nullptr && job->est_finish == finish) {
      cushion = std::max(cushion, finish);
      break;
    }
    std::pop_heap(ec_finish_heap_.begin(), ec_finish_heap_.end());
    ec_finish_heap_.pop_back();
  }
  return cushion;
}

SimTime BeliefState::slack_bruteforce(SimTime now) const {
  SimTime cushion = now;
  if (!ic_jobs_.empty()) {
    cushion = std::max(cushion, ic_drain_time(now));
  }
  ec_jobs_.for_each([&cushion](std::uint64_t, const EcJob& job) {
    cushion = std::max(cushion, job.est_finish);
  });
  return cushion;
}

void BeliefState::commit_ic(std::uint64_t seq, double estimated_service) {
  assert(estimated_service >= 0.0);
  const bool inserted = ic_jobs_.emplace(seq, estimated_service);
  assert(inserted && "seq committed to IC twice");
  (void)inserted;
  ic_outstanding_seconds_ += estimated_service;
}

void BeliefState::commit_ec(std::uint64_t seq, const cbs::workload::Document& doc,
                            const EcEstimate& estimate) {
  const double proc_standard = estimate_service(doc);
  const bool inserted = ec_jobs_.emplace(
      seq, EcJob{estimate.finish, proc_standard, estimate.site});
  assert(inserted && "seq committed to EC twice");
  (void)inserted;
  // Stale records (from completions/retractions) accumulate until they
  // surface in slack(); rebuild from the live table when they dominate so
  // churn-heavy runs stay bounded.
  if (ec_finish_heap_.size() > 2 * ec_jobs_.size() + 64) {
    ec_finish_heap_.clear();
    ec_jobs_.for_each([this](std::uint64_t live_seq, const EcJob& job) {
      ec_finish_heap_.emplace_back(job.est_finish, live_seq);
    });
    std::make_heap(ec_finish_heap_.begin(), ec_finish_heap_.end());
  }
  ec_finish_heap_.emplace_back(estimate.finish, seq);
  std::push_heap(ec_finish_heap_.begin(), ec_finish_heap_.end());
  EcSiteBelief& site = ec_sites_[estimate.site];
  site.outstanding_seconds += proc_standard;
  site.upload_backlog_bytes += doc.input_bytes();
}

void BeliefState::on_ic_complete(std::uint64_t seq) {
  const double* estimated_service = ic_jobs_.find(seq);
  assert(estimated_service != nullptr);
  ic_outstanding_seconds_ =
      std::max(0.0, ic_outstanding_seconds_ - *estimated_service);
  ic_jobs_.erase(seq);
}

void BeliefState::on_ec_complete(std::uint64_t seq) {
  const EcJob* job = ec_jobs_.find(seq);
  assert(job != nullptr);
  double& outstanding = ec_sites_[job->site].outstanding_seconds;
  outstanding = std::max(0.0, outstanding - job->processing_seconds);
  ec_jobs_.erase(seq);
}

void BeliefState::on_upload_complete(double bytes, std::size_t site) {
  double& backlog = ec_sites_[site].upload_backlog_bytes;
  backlog = std::max(0.0, backlog - bytes);
}

void BeliefState::retract_ic(std::uint64_t seq) {
  on_ic_complete(seq);  // identical bookkeeping: the work leaves the IC belief
}

void BeliefState::retract_ec(std::uint64_t seq, double pending_upload_bytes) {
  const EcJob* job = ec_jobs_.find(seq);
  assert(job != nullptr);
  const std::size_t site = job->site;
  on_ec_complete(seq);
  on_upload_complete(pending_upload_bytes, site);
}

}  // namespace cbs::core
