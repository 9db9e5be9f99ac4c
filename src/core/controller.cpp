#include "core/controller.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <stdexcept>
#include <string>

#include "models/per_class_qrsm.hpp"
#include "simcore/snapshot.hpp"
#include "sla/slack.hpp"

namespace cbs::core {

using cbs::sim::SimTime;
using cbs::sla::Placement;

namespace {

std::unique_ptr<models::ProcessingTimeEstimator> make_estimator(
    EstimatorKind kind, const cbs::workload::GroundTruthModel& truth) {
  switch (kind) {
    case EstimatorKind::kQrsm:
      return std::make_unique<models::QrsmEstimator>();
    case EstimatorKind::kOracle:
      return std::make_unique<models::OracleEstimator>(truth);
    case EstimatorKind::kPerClassQrsm:
      return std::make_unique<models::PerClassQrsmEstimator>();
  }
  assert(false && "unknown estimator kind");
  return nullptr;
}

std::string input_key(std::uint64_t seq) { return "in/" + std::to_string(seq); }
std::string output_key(std::uint64_t seq) { return "out/" + std::to_string(seq); }

/// The config, once ec_site_problems() finds nothing wrong with it: bad
/// sites are an error here, before any member asserts on them.
ControllerConfig checked(ControllerConfig config) {
  const std::vector<std::string> problems = ec_site_problems(config);
  if (!problems.empty()) throw std::invalid_argument(problems.front());
  return config;
}

std::vector<std::unique_ptr<EcSite>> make_sites(cbs::sim::Simulation& sim,
                                                const ControllerConfig& config,
                                                const cbs::sim::RngStream& rng) {
  std::vector<std::unique_ptr<EcSite>> sites;
  sites.reserve(config.ec_sites.size());
  for (std::size_t i = 0; i < config.ec_sites.size(); ++i) {
    sites.push_back(std::make_unique<EcSite>(sim, config, i, rng));
  }
  return sites;
}

std::vector<std::unique_ptr<EcSite>> clone_sites(
    cbs::sim::Simulation& dst, const std::vector<std::unique_ptr<EcSite>>& src) {
  std::vector<std::unique_ptr<EcSite>> sites;
  sites.reserve(src.size());
  for (const auto& site : src) {
    sites.push_back(std::make_unique<EcSite>(dst, *site));
  }
  return sites;
}

}  // namespace

CloudBurstController::CloudBurstController(cbs::sim::Simulation& sim,
                                           ControllerConfig config,
                                           cbs::workload::GroundTruthModel& truth,
                                           cbs::sim::RngStream rng)
    : sim_(sim),
      config_(checked(std::move(config))),
      truth_(truth),
      log_("controller", config_.log_threshold),
      ic_cluster_(sim, "ic", config_.topology.ic_machines, config_.topology.ic_speed),
      ic_runtime_(sim, ic_cluster_),
      sites_(make_sites(sim, config_, rng)),
      proc_estimator_(make_estimator(config_.estimator, truth)),
      belief_(*proc_estimator_, config_.topology.ic_machines,
              config_.topology.ic_speed,
              config_.topology.max_map_tasks_per_job),
      scheduler_(make_scheduler(config_.scheduler)) {
  wire_hooks();
  for (std::size_t i = 0; i < sites_.size(); ++i) {
    const EcSiteConfig& site = config_.ec_sites[i];
    belief_.add_ec_site(sites_[i]->uplink_estimator,
                        sites_[i]->downlink_estimator, site.machines,
                        site.speed, config_.topology.max_map_tasks_per_job,
                        site.job_overhead_seconds);
    wire_site(i);
  }
  if (config_.scheduler == SchedulerKind::kGreedy) {
    // Algorithm 1 conditions on "the current transit bandwidth" — the
    // transient reading, not the learned time-of-day model (§IV.D).
    belief_.set_bandwidth_view(BandwidthView::kTransient);
  }
  const std::size_t ec_machines = config_.ec_sites.front().machines;
  if (config_.faults.enabled()) {
    fault_plan_ = std::make_unique<sim::FaultPlan>(sim_, config_.faults,
                                                   rng.substream("faults"));
    fault_plan_->set_active([this] { return outstanding_ > 0; });
    fault_plan_->drive_vm_crashes(
        "ic", config_.topology.ic_machines, config_.faults.ic_vm_mtbf,
        [this](std::size_t m) { on_ic_crash(m); },
        [this](std::size_t m) { on_ic_recover(m); });
    fault_plan_->drive_vm_crashes(
        "ec", ec_machines, config_.faults.ec_vm_mtbf,
        [this](std::size_t m) { on_ec_crash(m); },
        [this](std::size_t m) { on_ec_recover(m); });
    fault_plan_->drive_outages(
        [this](const sim::OutageWindow&) { on_outage_begin(); },
        [this] { on_outage_end(); });
  }
  if (config_.resilience.enabled()) {
    ic_hazard_ = std::make_unique<models::VmHazardEstimator>(
        config_.resilience.hazard, config_.topology.ic_machines, sim_.now());
    ec_hazard_ = std::make_unique<models::VmHazardEstimator>(
        config_.resilience.hazard, ec_machines, sim_.now());
  }
}

CloudBurstController::CloudBurstController(cbs::sim::Simulation& dst,
                                           const CloudBurstController& src,
                                           cbs::workload::GroundTruthModel& truth)
    : sim_(dst),
      config_(src.config_),
      truth_(truth),
      log_("controller", config_.log_threshold),
      ic_cluster_(dst, src.ic_cluster_),
      ic_runtime_(dst, src.ic_runtime_, ic_cluster_),
      sites_(clone_sites(dst, src.sites_)),
      proc_estimator_(src.proc_estimator_->clone(truth)),
      belief_(src.belief_, *proc_estimator_),
      scheduler_(src.scheduler_->clone()),
      jobs_(src.jobs_),
      ic_wait_(src.ic_wait_),
      outcomes_(src.outcomes_),
      next_seq_(src.next_seq_),
      next_doc_id_(src.next_doc_id_),
      outstanding_(src.outstanding_),
      probe_scheduled_(src.probe_scheduled_),
      pull_backs_(src.pull_backs_),
      push_outs_(src.push_outs_),
      stage_log_(src.stage_log_),
      elastic_check_scheduled_(src.elastic_check_scheduled_),
      pending_boots_(src.pending_boots_),
      scale_ups_(src.scale_ups_),
      scale_downs_(src.scale_downs_),
      probe_event_(src.probe_event_),
      elastic_event_(src.elastic_event_),
      boot_events_(src.boot_events_),
      next_boot_id_(src.next_boot_id_),
      burst_deadlines_(src.burst_deadlines_),
      retractions_(src.retractions_),
      probe_blackout_skips_(src.probe_blackout_skips_) {
  assert(proc_estimator_ != nullptr &&
         "estimator kind does not support forking");
  assert(scheduler_ != nullptr && "scheduler does not support forking");
  wire_hooks();
  for (std::size_t i = 0; i < sites_.size(); ++i) {
    EcSite& site = *sites_[i];
    belief_.rebind_ec_site(i, site.uplink_estimator, site.downlink_estimator);
    wire_site(i);
    // Slot indices are the cross-fork contract: pending transfers/ops
    // carry them, so registration on the clone must reproduce the source's.
    const EcSite& from = *src.sites_[i];
    assert(site.store_input_slot == from.store_input_slot);
    assert(site.store_output_slot == from.store_output_slot);
    assert(site.probe_up_slot == from.probe_up_slot);
    assert(site.probe_down_slot == from.probe_down_slot);
    (void)from;
  }
  for (const auto& entry : src.alt_schedulers_) {
    auto copy = entry.second->clone();
    assert(copy != nullptr);
    alt_schedulers_.emplace_back(entry.first, std::move(copy));
  }
  if (src.fault_plan_) {
    fault_plan_ = std::make_unique<sim::FaultPlan>(dst, *src.fault_plan_);
    fault_plan_->set_active([this] { return outstanding_ > 0; });
    // Hook indices follow the primary constructor's drive_vm_crashes()
    // order: IC (when driven) before EC (when driven).
    std::size_t idx = 0;
    if (config_.faults.ic_vm_mtbf > 0.0 && config_.topology.ic_machines > 0) {
      fault_plan_->rebind_cluster_hooks(
          idx++, [this](std::size_t m) { on_ic_crash(m); },
          [this](std::size_t m) { on_ic_recover(m); });
    }
    if (config_.faults.ec_vm_mtbf > 0.0) {
      fault_plan_->rebind_cluster_hooks(
          idx++, [this](std::size_t m) { on_ec_crash(m); },
          [this](std::size_t m) { on_ec_recover(m); });
    }
    fault_plan_->rebind_outage_hooks(
        [this](const sim::OutageWindow&) { on_outage_begin(); },
        [this] { on_outage_end(); });
  }
  if (src.ic_hazard_) {
    ic_hazard_ = std::make_unique<models::VmHazardEstimator>(*src.ic_hazard_);
    ec_hazard_ = std::make_unique<models::VmHazardEstimator>(*src.ec_hazard_);
  }
}

void CloudBurstController::wire_hooks() {
  ic_cluster_.set_task_done_hook([this] { dispatch_ic(); });
  ic_runtime_.set_on_complete(
      [this](const compute::MapReduceRecord& rec) { on_ic_done(rec.job_id); });
  if (config_.enable_rescheduler) {
    ic_cluster_.set_idle_hook([this](std::size_t) { maybe_pull_back(); });
  }
}

void CloudBurstController::wire_site(std::size_t index) {
  EcSite& site = *sites_[index];
  site.upload_queues.set_on_complete(
      [this, index](std::uint64_t seq, int, const net::TransferRecord& rec) {
        on_upload_done(index, seq, rec);
      });
  site.download_queue.set_on_complete(
      [this, index](std::uint64_t seq, int, const net::TransferRecord& rec) {
        on_download_done(index, seq, rec);
      });
  site.runtime.set_on_complete(
      [this, index](const compute::MapReduceRecord& rec) {
        on_ec_proc_done(index, rec.job_id);
      });
  // The transfer queue sets claimed slot 0 of each link when the site was
  // built, so the probe handlers land on slot 1 in source and clone alike.
  site.probe_up_slot = site.uplink.register_handler(
      [this, index](std::uint64_t, const net::TransferRecord& rec) {
        EcSite& s = *sites_[index];
        s.uplink_estimator.observe(sim_.now(), rec.transfer_rate());
        s.up_tuner.report(sim_.now(), rec.threads, rec.transfer_rate());
      });
  site.probe_down_slot = site.downlink.register_handler(
      [this, index](std::uint64_t, const net::TransferRecord& rec) {
        EcSite& s = *sites_[index];
        s.downlink_estimator.observe(sim_.now(), rec.transfer_rate());
        s.down_tuner.report(sim_.now(), rec.threads, rec.transfer_rate());
      });
  site.store_input_slot = site.store.register_continuation(
      [this, index](std::uint64_t seq, bool ok) {
        on_input_staged(index, seq, ok);
      });
  site.store_output_slot = site.store.register_continuation(
      [this, index](std::uint64_t seq, bool ok) {
        on_output_staged(index, seq, ok);
      });
}

void CloudBurstController::rebuild_events(cbs::sim::SnapshotContext& ctx) {
  ic_cluster_.rebuild_events(ctx);
  for (auto& site : sites_) site->rebuild_events(ctx);
  if (fault_plan_) fault_plan_->rebuild_events(ctx);
  for (auto& entry : burst_deadlines_) {
    const std::uint64_t seq = entry.first;
    entry.second =
        ctx.restore(entry.second, [this, seq] { on_burst_deadline(seq); });
  }
  if (probe_scheduled_) {
    probe_event_ = ctx.restore(probe_event_, [this] { probe(); });
  }
  if (elastic_check_scheduled_) {
    elastic_event_ = ctx.restore(elastic_event_, [this] { elastic_check(); });
  }
  for (auto& entry : boot_events_) {
    const std::uint64_t boot_id = entry.first;
    entry.second =
        ctx.restore(entry.second, [this, boot_id] { on_boot_done(boot_id); });
  }
}

void CloudBurstController::pretrain(
    const std::vector<cbs::workload::Document>& docs,
    const std::vector<double>& observed_runtimes) {
  assert(docs.size() == observed_runtimes.size());
  if (auto* per_class =
          dynamic_cast<models::PerClassQrsmEstimator*>(proc_estimator_.get())) {
    per_class->pretrain(docs, observed_runtimes);
    return;
  }
  auto* qrsm = dynamic_cast<models::QrsmEstimator*>(proc_estimator_.get());
  if (qrsm == nullptr) return;  // oracle needs no training
  std::vector<cbs::workload::DocumentFeatures> features;
  features.reserve(docs.size());
  for (const auto& d : docs) features.push_back(d.features);
  qrsm->model().fit(features, observed_runtimes);
}

Job& CloudBurstController::job_at(std::uint64_t seq) {
  Job* job = jobs_.find(seq);
  assert(job != nullptr);
  return *job;
}

void CloudBurstController::on_batch(const cbs::workload::Batch& batch) {
  // Refresh the hazard picture before pricing this batch: drains, the
  // believed EC capacity and the risk factor all feed the decisions below.
  update_resilience();
  Scheduler::Context ctx{
      .now = sim_.now(),
      .belief = belief_,
      .params = config_.params,
      .truth = truth_,
      .next_seq = &next_seq_,
      .next_doc_id = &next_doc_id_,
      .ic_machines = config_.topology.ic_machines,
      .upload_queues = &first_site().upload_queues,
      .download_queue = &first_site().download_queue,
  };
  auto decisions = scheduler_->schedule_batch(batch.documents, ctx);

  for (auto& d : decisions) {
    Job job;
    job.seq_id = d.seq_id;
    job.doc = d.doc;
    job.batch_index = batch.batch_index;
    job.arrival = sim_.now();
    job.scheduled_time = sim_.now();
    job.placement = d.placement;
    job.estimated_service_seconds = d.estimated_service_seconds;
    // Realized service is a deterministic function of the document's
    // identity, so the job is identical work wherever (and under whichever
    // scheduler) it runs; only the simulated clusters consume this value.
    job.true_service_seconds = truth_.realized_seconds(d.doc);

    const bool inserted = jobs_.emplace(d.seq_id, job);
    assert(inserted);
    (void)inserted;
    ++outstanding_;

    if (d.placement == Placement::kInternal) {
      set_state(job_at(d.seq_id), JobState::kIcWaiting);
      ic_wait_.push_back(d.seq_id);
    } else {
      set_state(job_at(d.seq_id), JobState::kUploadQueued);
      EcSite& site = *sites_[d.ec_estimate.site];
      site.upload_queues.enqueue(d.seq_id, d.doc.input_bytes(), d.upload_class);
      ++site.bursts;
      arm_burst_deadline(d.seq_id);
    }
  }
  dispatch_ic();
  ensure_probing();
  ensure_elastic_check();
  if (fault_plan_) fault_plan_->ensure_armed();
  if (config_.enable_rescheduler && first_site().upload_queues.idle()) {
    maybe_push_out();
  }
}

void CloudBurstController::on_batch_as(const cbs::workload::Batch& batch,
                                       SchedulerKind kind) {
  std::unique_ptr<Scheduler>* alt = nullptr;
  for (auto& entry : alt_schedulers_) {
    if (entry.first == kind) {
      alt = &entry.second;
      break;
    }
  }
  if (alt == nullptr) {
    alt_schedulers_.emplace_back(kind, make_scheduler(kind));
    alt = &alt_schedulers_.back().second;
  }
  std::swap(scheduler_, *alt);
  const BandwidthView saved_view = belief_.bandwidth_view();
  belief_.set_bandwidth_view(kind == SchedulerKind::kGreedy
                                 ? BandwidthView::kTransient
                                 : BandwidthView::kLearned);
  on_batch(batch);
  belief_.set_bandwidth_view(saved_view);
  std::swap(scheduler_, *alt);
}

compute::MapReduceSpec CloudBurstController::spec_for(const Job& job,
                                                      double merge_per_mb) const {
  compute::MapReduceSpec spec;
  spec.job_id = job.seq_id;
  spec.total_map_seconds = job.true_service_seconds;
  // Task granularity is capped by the per-job slot limit: with a cap of k,
  // splitting finer than k tasks cannot add concurrency, so we emit at most
  // k (equal) tasks.
  spec.num_map_tasks = std::clamp(
      static_cast<int>(
          std::ceil(job.doc.features.size_mb / config_.topology.map_chunk_mb)),
      1, config_.topology.max_map_tasks_per_job);
  spec.merge_seconds = merge_per_mb * job.doc.output_size_mb;
  return spec;
}

void CloudBurstController::dispatch_ic() {
  // Feed-ahead window: keep about one machine's worth of tasks queued, so
  // machines never starve while preserving the controller's ability to
  // reschedule jobs that have not started (the §IV.D strategies).
  while (!ic_wait_.empty() &&
         ic_cluster_.queued_tasks() < config_.topology.ic_machines) {
    const std::uint64_t seq = ic_wait_.front();
    ic_wait_.pop_front();
    run_on_ic(seq);
  }
  if (config_.enable_rescheduler && ic_wait_.empty() && ic_cluster_.idle()) {
    maybe_pull_back();
  }
}

void CloudBurstController::set_state(Job& job, JobState state) {
  job.state = state;
  if (config_.record_stage_log) {
    stage_log_.push_back(StageEvent{job.seq_id, state, sim_.now()});
  }
}

void CloudBurstController::run_on_ic(std::uint64_t seq) {
  Job& job = job_at(seq);
  set_state(job, JobState::kIcRunning);
  ic_runtime_.run(spec_for(job, config_.topology.merge_seconds_per_output_mb));
}

void CloudBurstController::on_ic_done(std::uint64_t seq) {
  Job& job = job_at(seq);
  belief_.on_ic_complete(seq);
  proc_estimator_->observe(job.doc, job.true_service_seconds);
  finish_job(job);
  dispatch_ic();
  // Each internal completion is a fresh look at the §IV.D condition: "when
  // the EC upload queue is idle and IC has jobs waiting to execute".
  if (config_.enable_rescheduler && first_site().upload_queues.idle() &&
      outstanding_ > 0) {
    maybe_push_out();
  }
}

void CloudBurstController::on_upload_done(std::size_t site_index,
                                          std::uint64_t seq,
                                          const net::TransferRecord& rec) {
  EcSite& site = *sites_[site_index];
  disarm_burst_deadline(seq);  // past the retractable phase
  site.uplink_estimator.observe(sim_.now(), rec.transfer_rate());
  site.up_tuner.report(sim_.now(), rec.threads, rec.transfer_rate());
  belief_.on_upload_complete(rec.bytes, site_index);

  // Stage the input. With the store healthy this completes synchronously;
  // during an outage it retries with backoff, and a permanent failure
  // falls back to internal execution (the upload was wasted).
  site.store.put_async(input_key(seq), rec.bytes, site.store_input_slot, seq);

  if (config_.enable_rescheduler && site.upload_queues.idle()) {
    maybe_push_out();
  }
}

void CloudBurstController::on_input_staged(std::size_t site_index,
                                           std::uint64_t seq, bool ok) {
  if (ok) {
    start_ec_processing(site_index, seq);
  } else {
    readmit_to_ic(seq, 0.0, "input staging abandoned");
  }
}

void CloudBurstController::start_ec_processing(std::size_t site_index,
                                               std::uint64_t seq) {
  Job& job = job_at(seq);
  set_state(job, JobState::kEcRunning);
  compute::MapReduceSpec spec =
      spec_for(job, config_.topology.merge_seconds_per_output_mb);
  // EMR job setup/staging occupies the executing instance; book it on the
  // merge task (speed-scaled so it costs the configured wall seconds).
  const EcSiteConfig& site = config_.ec_sites[site_index];
  spec.merge_seconds += site.job_overhead_seconds * site.speed;
  sites_[site_index]->runtime.run(spec);
}

void CloudBurstController::on_ec_proc_done(std::size_t site_index,
                                           std::uint64_t seq) {
  EcSite& site = *sites_[site_index];
  Job& job = job_at(seq);
  // The merge task already covered compression cost; swap input for the
  // compressed output in the store and ship it home.
  site.store.erase(input_key(seq));
  site.store.put_async(output_key(seq), job.doc.output_bytes(),
                       site.store_output_slot, seq);
}

void CloudBurstController::on_output_staged(std::size_t site_index,
                                            std::uint64_t seq, bool ok) {
  if (!ok) {
    // The result exists only on EC and cannot be staged for download:
    // the external execution is wasted, re-run internally.
    readmit_to_ic(seq, 0.0, "output staging abandoned");
    return;
  }
  Job& job = job_at(seq);
  set_state(job, JobState::kDownloading);
  sites_[site_index]->download_queue.enqueue(seq, job.doc.output_bytes(), 0);
}

void CloudBurstController::on_download_done(std::size_t site_index,
                                            std::uint64_t seq,
                                            const net::TransferRecord& rec) {
  EcSite& site = *sites_[site_index];
  site.downlink_estimator.observe(sim_.now(), rec.transfer_rate());
  site.down_tuner.report(sim_.now(), rec.threads, rec.transfer_rate());

  Job& job = job_at(seq);
  site.store.erase(output_key(seq));
  belief_.on_ec_complete(seq);
  proc_estimator_->observe(job.doc, job.true_service_seconds);
  finish_job(job);
}

void CloudBurstController::finish_job(Job& job) {
  set_state(job, JobState::kCompleted);
  job.completed_time = sim_.now();
  outcomes_.push_back(job.to_outcome());
  assert(outstanding_ > 0);
  --outstanding_;
  log_.debug(sim_.now(), "job ", job.seq_id, " done on ",
             cbs::sla::to_string(job.placement));
  jobs_.erase(job.seq_id);  // `job` dangles from here on
}

sla::CostInputs CloudBurstController::cost_inputs() const {
  sla::CostInputs in;
  for (const auto& site : sites_) {
    in.ec_provisioned_machine_seconds +=
        site->cluster.provisioned_machine_seconds();
    in.uplink_bytes += site->uplink.total_bytes_delivered();
    in.downlink_bytes += site->downlink.total_bytes_delivered();
    in.store_byte_seconds += site->store.occupancy_byte_seconds();
  }
  in.ic_machine_seconds = ic_cluster_.provisioned_machine_seconds();
  return in;
}

// ---- autonomic probing (§III.A.2) -----------------------------------

void CloudBurstController::ensure_probing() {
  if (probe_scheduled_ || config_.probe_interval <= 0.0) return;
  probe_scheduled_ = true;
  probe_event_ = sim_.schedule_in(config_.probe_interval, [this] { probe(); });
}

void CloudBurstController::probe() {
  probe_scheduled_ = false;
  probe_event_ = cbs::sim::EventId{};
  if (outstanding_ == 0) return;  // run over; stop generating events
  if (config_.faults.in_probe_blackout(sim_.now())) {
    // Probe infrastructure is down: skip the measurement but keep the
    // cadence, so the EWMA model simply goes stale for the window.
    ++probe_blackout_skips_;
    ensure_probing();
    return;
  }

  for (auto& site : sites_) {
    const int up_threads = site->up_tuner.suggest(sim_.now());
    site->uplink.submit(config_.probe_bytes, up_threads, site->probe_up_slot, 0);
    const int down_threads = site->down_tuner.suggest(sim_.now());
    site->downlink.submit(config_.probe_bytes, down_threads,
                          site->probe_down_slot, 0);
  }
  ensure_probing();
}

// ---- fault recovery: burst retraction (deadline / outage / staging) -----

void CloudBurstController::arm_burst_deadline(std::uint64_t seq) {
  if (config_.faults.retraction_deadline_factor <= 0.0) return;
  Job& job = job_at(seq);
  // Allow `factor` times the believed unloaded round trip for the upload
  // phase; past that, the burst is doing worse than the estimate that
  // justified it and an internal re-execution is the safer bet.
  const double round_trip = belief_.ec_round_trip_no_load(job.doc, sim_.now());
  double delay =
      config_.faults.retraction_deadline_factor * std::max(round_trip, 1.0);
  // Hazard-aware retraction: when the predictor sees EC failure risk, give
  // the burst proportionally less patience before pulling it home — the
  // expected cost of waiting out a predicted outage rises with the risk.
  if (ec_hazard_) delay /= (1.0 + belief_.ec_risk_factor());
  burst_deadlines_[seq] =
      sim_.schedule_in(delay, [this, seq] { on_burst_deadline(seq); });
}

void CloudBurstController::disarm_burst_deadline(std::uint64_t seq) {
  auto it = burst_deadlines_.find(seq);
  if (it == burst_deadlines_.end()) return;
  sim_.cancel(it->second);
  burst_deadlines_.erase(it);
}

void CloudBurstController::on_burst_deadline(std::uint64_t seq) {
  burst_deadlines_.erase(seq);
  Job& job = job_at(seq);
  // Only the upload phase is retractable: once the input is staged the
  // remaining EC work is believed cheaper than starting over internally.
  if (job.state != JobState::kUploadQueued) return;
  TransferQueueSet& uploads = first_site().upload_queues;
  const bool cancelled = uploads.try_cancel(seq) || uploads.try_cancel_active(seq);
  assert(cancelled);
  (void)cancelled;
  readmit_to_ic(seq, job.doc.input_bytes(), "round-trip deadline exceeded");
}

void CloudBurstController::readmit_to_ic(std::uint64_t seq,
                                         double pending_upload_bytes,
                                         const char* why) {
  Job& job = job_at(seq);
  belief_.retract_ec(seq, pending_upload_bytes);
  belief_.commit_ic(seq, job.estimated_service_seconds);
  job.placement = Placement::kInternal;
  set_state(job, JobState::kIcWaiting);
  admit_ic_in_order(seq);
  ++retractions_;
  log_.info(sim_.now(), "burst retraction of job ", seq, ": ", why);
  dispatch_ic();
}

void CloudBurstController::admit_ic_in_order(std::uint64_t seq) {
  // Re-admission preserves FCFS: the job re-enters the IC feed queue at
  // its sequence position, not at the tail.
  const auto pos = std::lower_bound(ic_wait_.begin(), ic_wait_.end(), seq);
  ic_wait_.insert(pos, seq);
}

void CloudBurstController::on_outage_begin() {
  log_.warn(sim_.now(), "EC outage begins: links down, store unavailable");
  EcSite& ec = first_site();
  ec.uplink.set_outage(true);
  ec.downlink.set_outage(true);
  ec.store.set_available(false);
  // The outage is observable (connection resets): pull every upload that
  // has not started back to the IC instead of letting it queue into a
  // dead pipe. In-flight transfers keep their slot and resume — or hit
  // their retraction deadline — on their own.
  for (const std::uint64_t seq : ec.upload_queues.queued_tags()) {
    if (!ec.upload_queues.try_cancel(seq)) continue;
    disarm_burst_deadline(seq);
    readmit_to_ic(seq, job_at(seq).doc.input_bytes(), "EC outage observed");
  }
}

void CloudBurstController::on_outage_end() {
  log_.info(sim_.now(), "EC outage ends");
  EcSite& ec = first_site();
  ec.uplink.set_outage(false);
  ec.downlink.set_outage(false);
  ec.store.set_available(true);
}

// ---- proactive failure resilience (hazard prediction, DESIGN.md §13) ----

void CloudBurstController::on_ic_crash(std::size_t machine) {
  // Feed the estimator *before* applying the crash so the gap sample ends
  // exactly at the crash instant, then re-evaluate the proactive policy.
  if (ic_hazard_) ic_hazard_->on_failure(machine, sim_.now());
  ic_cluster_.crash_machine(machine);
  if (ic_hazard_) update_resilience();
}

void CloudBurstController::on_ic_recover(std::size_t machine) {
  ic_cluster_.recover_machine(machine);
  if (ic_hazard_) update_resilience();
}

void CloudBurstController::on_ec_crash(std::size_t machine) {
  if (ec_hazard_) {
    // Elastic EC may have grown the cluster since construction.
    ec_hazard_->ensure_machines(first_site().cluster.machine_slots(),
                                sim_.now());
    ec_hazard_->on_failure(machine, sim_.now());
  }
  first_site().cluster.crash_machine(machine);
  if (ec_hazard_) update_resilience();
}

void CloudBurstController::on_ec_recover(std::size_t machine) {
  first_site().cluster.recover_machine(machine);
  if (ec_hazard_) update_resilience();
}

void CloudBurstController::update_resilience() {
  if (!ic_hazard_) return;
  const sim::SimTime now = sim_.now();
  // Expire stale crash predictions first so precision/recall bookkeeping
  // never credits a drain that simply outlived its window.
  ic_hazard_->settle(now);
  ec_hazard_->settle(now);
  update_cluster_drains(ic_cluster_, *ic_hazard_);
  update_cluster_drains(first_site().cluster, *ec_hazard_);
  // Fold the predicted EC outage risk into every believed-EC estimate via
  // a single lever: ft_ec and friends inflate their processing term by
  // (1 + risk_weight * mean failure probability). Drains are soft (they
  // re-route dispatch, not remove capacity), so the believed machine count
  // is left alone.
  belief_.set_ec_risk_factor(config_.resilience.risk_weight *
                             ec_failure_risk());
}

void CloudBurstController::update_cluster_drains(
    compute::Cluster& cluster, models::VmHazardEstimator& hazard) {
  const sim::SimTime now = sim_.now();
  const sim::SimDuration window = config_.resilience.drain_window_seconds;
  hazard.ensure_machines(cluster.machine_slots(), now);
  for (std::size_t m = 0; m < cluster.machine_slots(); ++m) {
    if (cluster.machine_retired(m)) continue;
    const double p = hazard.failure_probability(m, now, window);
    if (p >= config_.resilience.drain_threshold) {
      if (cluster.machine_drained(m) ||
          cluster.drain_machine(m, config_.resilience.preempt_on_drain)) {
        // Flag (or keep flagging) the machine as predicted-to-crash; the
        // estimator scores the prediction when the crash lands or the
        // window expires.
        hazard.note_prediction(m, now, window);
      }
    } else if (cluster.machine_drained(m)) {
      cluster.undrain_machine(m);
    }
  }
}

double CloudBurstController::ec_failure_risk() const {
  if (!ec_hazard_) return 0.0;
  return models::mean_failure_probability(
      *ec_hazard_, sim_.now(), config_.resilience.drain_window_seconds);
}

// ---- elastic EC scaling (§V.B.4 future work, behind a flag) -------------

void CloudBurstController::ensure_elastic_check() {
  if (!config_.elastic_ec.enabled || elastic_check_scheduled_) return;
  elastic_check_scheduled_ = true;
  elastic_event_ = sim_.schedule_in(config_.elastic_ec.check_interval,
                                    [this] { elastic_check(); });
}

void CloudBurstController::elastic_check() {
  elastic_check_scheduled_ = false;
  elastic_event_ = cbs::sim::EventId{};
  if (outstanding_ == 0) return;  // run over; let the simulation drain
  const ElasticEcConfig& e = config_.elastic_ec;
  compute::Cluster& ec_cluster = first_site().cluster;

  const std::size_t provisioned = ec_cluster.machine_count() + pending_boots_;
  // Believed wait of a newly arriving EC job behind the current queue.
  const double wait_seconds =
      ec_cluster.queued_standard_seconds() /
      (static_cast<double>(std::max<std::size_t>(provisioned, 1)) *
       config_.ec_sites.front().speed);

  if (wait_seconds > e.grow_wait_threshold_seconds &&
      provisioned < e.max_machines) {
    ++pending_boots_;
    ++scale_ups_;
    log_.info(sim_.now(), "elastic EC: scaling up to ", provisioned + 1);
    const std::uint64_t boot_id = next_boot_id_++;
    boot_events_[boot_id] =
        sim_.schedule_in(e.boot_delay, [this, boot_id] { on_boot_done(boot_id); });
  } else if (provisioned > e.min_machines && pending_boots_ == 0) {
    const auto idle = static_cast<double>(ec_cluster.machine_count() -
                                          ec_cluster.running_tasks());
    if (ec_cluster.queued_tasks() == 0 &&
        idle > e.shrink_idle_fraction *
                   static_cast<double>(ec_cluster.machine_count())) {
      if (ec_cluster.remove_machine()) {
        ++scale_downs_;
        belief_.set_ec_machines(ec_cluster.machine_count());
        log_.info(sim_.now(), "elastic EC: scaling down to ",
                  ec_cluster.machine_count());
      }
    }
  }
  ensure_elastic_check();
}

void CloudBurstController::on_boot_done(std::uint64_t boot_id) {
  boot_events_.erase(boot_id);
  --pending_boots_;
  first_site().cluster.add_machine();
  belief_.set_ec_machines(first_site().cluster.machine_count());
}

// ---- §IV.D rescheduling strategies (paper future work, behind a flag) --

void CloudBurstController::maybe_pull_back() {
  // An internal machine is idle with nothing waiting: reclaim the earliest
  // still-queued upload whose believed external completion is further away
  // than an internal re-execution.
  TransferQueueSet& uploads = first_site().upload_queues;
  const auto tags = uploads.queued_tags();
  for (const std::uint64_t seq : tags) {
    Job& job = job_at(seq);
    const double reexec_seconds =
        job.estimated_service_seconds /
        (static_cast<double>(config_.topology.ic_machines) *
         config_.topology.ic_speed);
    const double remaining_ec =
        belief_.ec_round_trip_no_load(job.doc, sim_.now());
    if (remaining_ec <= reexec_seconds) continue;
    if (!uploads.try_cancel(seq)) continue;
    // The job may finish on IC before its retraction deadline would fire,
    // and finish_job() erases it.
    disarm_burst_deadline(seq);

    belief_.retract_ec(seq, job.doc.input_bytes());
    belief_.commit_ic(seq, job.estimated_service_seconds);
    job.placement = Placement::kInternal;
    set_state(job, JobState::kIcWaiting);
    ic_wait_.push_back(seq);
    ++pull_backs_;
    log_.info(sim_.now(), "pull-back of job ", seq, " to IC");
    dispatch_ic();
    return;
  }
}

void CloudBurstController::maybe_push_out() {
  // The upload pipe is idle while internal jobs wait: scan the IC wait
  // queue from the tail for a job whose round trip fits the current slack.
  for (auto it = ic_wait_.rbegin(); it != ic_wait_.rend(); ++it) {
    const std::uint64_t seq = *it;
    Job& job = job_at(seq);
    // The cushion must exclude the candidate's own believed IC work, so
    // retract first and re-commit if the move is rejected.
    belief_.retract_ic(seq);
    const EcEstimate ec = belief_.ft_ec(job.doc, sim_.now());
    if (!cbs::sla::satisfies_slack(ec.finish, belief_.slack(sim_.now()),
                                   config_.params.slack_safety_margin)) {
      belief_.commit_ic(seq, job.estimated_service_seconds);
      continue;
    }
    ic_wait_.erase(std::next(it).base());
    belief_.commit_ec(seq, job.doc, ec);
    job.placement = Placement::kExternal;
    set_state(job, JobState::kUploadQueued);
    first_site().upload_queues.enqueue(seq, job.doc.input_bytes(), 0);
    ++first_site().bursts;
    arm_burst_deadline(seq);
    ++push_outs_;
    log_.info(sim_.now(), "push-out of job ", seq, " to EC");
    return;
  }
}

}  // namespace cbs::core
