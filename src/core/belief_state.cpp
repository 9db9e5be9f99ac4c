#include "core/belief_state.hpp"

#include <algorithm>
#include <cassert>

namespace cbs::core {

using cbs::sim::SimTime;

BeliefState::BeliefState(
    const cbs::models::ProcessingTimeEstimator& service_estimator,
    const cbs::net::BandwidthEstimator& uplink_estimator,
    const cbs::net::BandwidthEstimator& downlink_estimator,
    std::size_t ic_machines, double ic_speed, std::size_t ec_machines,
    double ec_speed, int ic_job_parallelism, int ec_job_parallelism,
    double ec_job_overhead_seconds)
    : service_estimator_(service_estimator),
      uplink_(uplink_estimator),
      downlink_(downlink_estimator),
      ic_machines_(ic_machines),
      ic_speed_(ic_speed),
      ec_machines_(ec_machines),
      ec_speed_(ec_speed) {
  assert(ic_machines > 0 && ic_speed > 0.0);
  assert(ec_machines > 0 && ec_speed > 0.0);
  assert(ic_job_parallelism >= 1 && ec_job_parallelism >= 1);
  assert(ec_job_overhead_seconds >= 0.0);
  ec_job_overhead_ = ec_job_overhead_seconds;
  ic_job_rate_ = ic_speed * static_cast<double>(std::min<std::size_t>(
                                ic_machines, static_cast<std::size_t>(
                                                 ic_job_parallelism)));
  ec_job_rate_ = ec_speed * static_cast<double>(std::min<std::size_t>(
                                ec_machines, static_cast<std::size_t>(
                                                 ec_job_parallelism)));
}

BeliefState::BeliefState(
    const BeliefState& src,
    const cbs::models::ProcessingTimeEstimator& service_estimator,
    const cbs::net::BandwidthEstimator& uplink_estimator,
    const cbs::net::BandwidthEstimator& downlink_estimator)
    : service_estimator_(service_estimator),
      uplink_(uplink_estimator),
      downlink_(downlink_estimator),
      ic_machines_(src.ic_machines_),
      ic_speed_(src.ic_speed_),
      ec_machines_(src.ec_machines_),
      ec_speed_(src.ec_speed_),
      ic_job_rate_(src.ic_job_rate_),
      ec_job_rate_(src.ec_job_rate_),
      ec_job_overhead_(src.ec_job_overhead_),
      ic_jobs_(src.ic_jobs_),
      ic_outstanding_seconds_(src.ic_outstanding_seconds_),
      ec_jobs_(src.ec_jobs_),
      ec_finish_heap_(src.ec_finish_heap_),
      ec_outstanding_seconds_(src.ec_outstanding_seconds_),
      upload_backlog_bytes_(src.upload_backlog_bytes_),
      view_(src.view_),
      ec_risk_factor_(src.ec_risk_factor_) {}

double BeliefState::estimate_service(const cbs::workload::Document& doc) const {
  return service_estimator_.estimate_seconds(doc);
}

double BeliefState::upload_seconds_for(SimTime t, double bytes) const {
  if (view_ == BandwidthView::kTransient) {
    return bytes / std::max(uplink_.last_observed(), 1.0);
  }
  return uplink_.estimate_transfer_seconds(t, bytes);
}

double BeliefState::download_seconds_for(SimTime t, double bytes) const {
  if (view_ == BandwidthView::kTransient) {
    return bytes / std::max(downlink_.last_observed(), 1.0);
  }
  return downlink_.estimate_transfer_seconds(t, bytes);
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

EcEstimate BeliefState::ft_ec(const cbs::workload::Document& doc,
                              SimTime now) const {
  EcEstimate e;
  // Upload: queued bytes ahead of us plus our own, at the believed rate.
  e.upload_seconds =
      upload_seconds_for(now, upload_backlog_bytes_ + doc.input_bytes());
  const SimTime upload_done = now + e.upload_seconds;

  // EC compute: outstanding believed work drains meanwhile; whatever is
  // left when our bytes land queues ahead of us.
  const double drained = (upload_done - now) * ec_capacity();
  const double backlog_left = std::max(0.0, ec_outstanding_seconds_ - drained);
  e.ec_wait_seconds = backlog_left / ec_capacity();
  // Risk pricing: predicted EC failure risk inflates the believed
  // processing term (× 1.0 exactly when the hazard predictor is off).
  e.processing_seconds =
      (ec_job_overhead_ + estimate_service(doc) / ec_job_rate_) *
      (1.0 + ec_risk_factor_);
  const SimTime proc_done =
      upload_done + e.ec_wait_seconds + e.processing_seconds;

  // Download of the (estimated) output at the believed downlink rate at
  // that future time — the l(t_i + t') term of Eq. 2.
  e.download_seconds = download_seconds_for(proc_done, doc.output_bytes());
  e.finish = proc_done + e.download_seconds;
  return e;
}

EcEstimate BeliefState::ft_ec_job_level(
    const cbs::workload::Document& doc, SimTime now,
    double observed_upload_backlog_bytes,
    double observed_download_backlog_bytes) const {
  EcEstimate e;
  e.upload_seconds = upload_seconds_for(
      now, observed_upload_backlog_bytes + doc.input_bytes());
  const SimTime upload_done = now + e.upload_seconds;
  const double drained = (upload_done - now) * ec_capacity();
  const double backlog_left = std::max(0.0, ec_outstanding_seconds_ - drained);
  e.ec_wait_seconds = backlog_left / ec_capacity();
  e.processing_seconds =
      (ec_job_overhead_ + estimate_service(doc) / ec_job_rate_) *
      (1.0 + ec_risk_factor_);
  const SimTime proc_done = upload_done + e.ec_wait_seconds + e.processing_seconds;
  e.download_seconds = download_seconds_for(
      proc_done, observed_download_backlog_bytes + doc.output_bytes());
  e.finish = proc_done + e.download_seconds;
  return e;
}

double BeliefState::ec_round_trip_no_load(const cbs::workload::Document& doc,
                                          SimTime now) const {
  const double up = upload_seconds_for(now, doc.input_bytes());
  const double proc =
      (ec_job_overhead_ + estimate_service(doc) / ec_job_rate_) *
      (1.0 + ec_risk_factor_);
  const double down = download_seconds_for(now + up + proc, doc.output_bytes());
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
  const bool inserted =
      ec_jobs_.emplace(seq, EcJob{estimate.finish, proc_standard});
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
  ec_outstanding_seconds_ += proc_standard;
  upload_backlog_bytes_ += doc.input_bytes();
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
  ec_outstanding_seconds_ =
      std::max(0.0, ec_outstanding_seconds_ - job->processing_seconds);
  ec_jobs_.erase(seq);
}

void BeliefState::on_upload_complete(double bytes) {
  upload_backlog_bytes_ = std::max(0.0, upload_backlog_bytes_ - bytes);
}

void BeliefState::retract_ic(std::uint64_t seq) {
  on_ic_complete(seq);  // identical bookkeeping: the work leaves the IC belief
}

void BeliefState::retract_ec(std::uint64_t seq, double pending_upload_bytes) {
  on_ec_complete(seq);
  on_upload_complete(pending_upload_bytes);
}

}  // namespace cbs::core
