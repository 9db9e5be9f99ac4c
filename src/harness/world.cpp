#include "harness/world.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

#include "models/estimator.hpp"
#include "simcore/rng.hpp"
#include "simcore/snapshot.hpp"
#include "sla/cost.hpp"
#include "sla/oo_metric.hpp"
#include "sla/report.hpp"
#include "sla/tickets.hpp"
#include "workload/generator.hpp"

namespace cbs::harness {

namespace {

/// The "standard set of production data observed across a variety of
/// locations" (§III.A.1): a uniform corpus, labeled by actually observed
/// (noisy) runtimes.
void pretrain_controller(cbs::core::CloudBurstController& controller,
                         cbs::workload::GroundTruthModel& truth,
                         std::size_t samples, cbs::sim::RngStream rng) {
  if (samples == 0) return;
  cbs::workload::WorkloadGenerator::Config gen_cfg;
  gen_cfg.bucket = cbs::workload::SizeBucket::kUniform;
  cbs::workload::WorkloadGenerator corpus_gen(gen_cfg, truth,
                                              rng.substream("corpus"));
  std::vector<cbs::workload::Document> docs = corpus_gen.batch(samples);
  std::vector<double> runtimes;
  runtimes.reserve(docs.size());
  for (const auto& d : docs) runtimes.push_back(truth.sample_seconds(d.features));
  controller.pretrain(docs, runtimes);
}

}  // namespace

ScenarioWorld::ScenarioWorld(const Scenario& scenario)
    : scenario_(std::make_shared<const Scenario>(scenario)),
      truth_(scenario.truth,
             cbs::sim::RngStream(scenario.seed).substream("truth")),
      tally_(scenario.ticket_policy) {
  // The build order below mirrors the historical run_scenario body line by
  // line (substream derivation is a pure function of (parent, name), so
  // the local root here draws identically to the original's).
  cbs::sim::RngStream root(scenario.seed);

  cbs::workload::WorkloadGenerator::Config gen_cfg;
  gen_cfg.bucket = scenario.bucket;
  cbs::workload::WorkloadGenerator generator(gen_cfg, truth_,
                                             root.substream("workload"));

  controller_ = std::make_unique<cbs::core::CloudBurstController>(
      sim_, scenario.controller_config(), truth_, root.substream("system"));
  pretrain_controller(*controller_, truth_, scenario.pretrain_samples,
                      root.substream("pretrain"));

  cbs::workload::BatchArrivalProcess::Config arr_cfg;
  arr_cfg.batch_interval = scenario.batch_interval_seconds;
  arr_cfg.mean_jobs_per_batch = scenario.mean_jobs_per_batch;
  arr_cfg.num_batches = scenario.num_batches;
  cbs::workload::BatchArrivalProcess arrivals(arr_cfg, generator,
                                              root.substream("arrivals"));
  batches_ = std::make_shared<const std::vector<cbs::workload::Batch>>(
      arrivals.generate_all());
  const std::vector<cbs::workload::Batch>& batches = *batches_;

  // Pre-size the event slab for the per-job events of roughly two batches
  // in flight (jobs overlap at the batch boundary, not across the whole
  // horizon); only one batch arrival is ever pending.
  std::size_t max_batch_jobs = 0;
  for (const auto& b : batches) {
    max_batch_jobs = std::max(max_batch_jobs, b.documents.size());
  }
  sim_.reserve_events(4 * max_batch_jobs + 64);

  first_arrival_seq_ = sim_.reserve_seqs(batches.size());
  arm_next_arrival();
}

ScenarioWorld::ScenarioWorld(const ScenarioWorld& src, bool keep_decisions)
    : scenario_(src.scenario_),
      batches_(src.batches_),
      truth_(src.truth_),
      first_arrival_seq_(src.first_arrival_seq_),
      next_batch_(src.next_batch_),
      tally_(src.tally_),
      rollout_(src.rollout_),
      rollout_kind_(src.rollout_kind_) {
  if (keep_decisions) {
    lookahead_choices_ = src.lookahead_choices_;
    lookahead_scores_ = src.lookahead_scores_;
    rollout_observer_ = src.rollout_observer_;
  }
  cbs::sim::SnapshotContext ctx(src.sim_, sim_);
  controller_ = std::make_unique<cbs::core::CloudBurstController>(
      sim_, *src.controller_, truth_);
  arrival_event_ = ctx.restore(src.arrival_event_, [this] { deliver_batch(); });
  controller_->rebuild_events(ctx);
  const std::size_t orphaned = ctx.finish();
  if (orphaned != 0) {
    throw std::runtime_error(
        "ScenarioWorld fork left " + std::to_string(orphaned) +
        " pending event(s) unclaimed (missing rebuild_events coverage)");
  }
}

std::unique_ptr<ScenarioWorld> ScenarioWorld::fork_rollout(
    cbs::core::SchedulerKind kind) const {
  auto rollout =
      std::make_unique<ScenarioWorld>(*this, /*keep_decisions=*/false);
  rollout->rollout_ = true;
  rollout->rollout_kind_ = kind;
  return rollout;
}

cbs::sim::SimTime ScenarioWorld::run() { return sim_.run(); }

cbs::sim::SimTime ScenarioWorld::run_until(cbs::sim::SimTime deadline) {
  return sim_.run_until(deadline);
}

void ScenarioWorld::arm_next_arrival() {
  if (next_batch_ >= batches_->size()) {
    arrival_event_ = cbs::sim::EventId{};
    return;
  }
  arrival_event_ = sim_.restore_event((*batches_)[next_batch_].arrival_time,
                                      first_arrival_seq_ + next_batch_,
                                      [this] { deliver_batch(); });
}

void ScenarioWorld::deliver_batch() {
  const cbs::workload::Batch& batch = (*batches_)[next_batch_++];
  // Arm the next arrival before admitting this batch: a lookahead decision
  // below forks the world, and its rollouts must see that arrival.
  arm_next_arrival();
  if (rollout_) {
    // Inside a candidate rollout the policy under evaluation persists for
    // every in-horizon arrival; no nested lookahead.
    controller_->on_batch_as(batch, rollout_kind_);
    return;
  }
  if (scenario_->scheduler == cbs::core::SchedulerKind::kLookahead) {
    LookaheadController::Config cfg;
    cfg.horizon_seconds = scenario_->lookahead_horizon_seconds;
    cfg.candidates = scenario_->lookahead_candidates;
    const LookaheadController lookahead(cfg);
    const LookaheadController::Decision decision =
        lookahead.decide(*this, batch, rollout_observer_);
    lookahead_choices_.push_back(decision.kind);
    for (const auto& candidate : decision.scores) {
      lookahead_scores_.push_back(candidate.second);
    }
    controller_->on_batch_as(batch, decision.kind);
    return;
  }
  controller_->on_batch(batch);
}

const cbs::sla::OutcomeTally& ScenarioWorld::outcome_tally() const {
  controller_->outcome_log().for_each_from(
      tally_.count(), [this](const cbs::sla::JobOutcome& o) { tally_.add(o); });
  return tally_;
}

RunResult ScenarioWorld::result() const {
  if (controller_->outstanding_jobs() != 0) {
    throw std::runtime_error("run_scenario: simulation drained with " +
                             std::to_string(controller_->outstanding_jobs()) +
                             " jobs outstanding");
  }
  const cbs::core::CloudBurstController& controller = *controller_;
  RunResult result;
  result.outcomes = controller.outcomes();
  const std::string violation = cbs::sla::validate_outcomes(result.outcomes);
  if (!violation.empty()) {
    throw std::runtime_error("run_scenario: outcome invariants violated: " +
                             violation);
  }
  const Scenario& scenario = *scenario_;
  result.scenario = scenario;
  result.sim_end_time = sim_.now();
  result.events_processed = static_cast<std::size_t>(sim_.events_processed());
  result.pull_backs = controller.pull_backs();
  result.push_outs = controller.push_outs();
  result.peak_store_bytes = controller.store().peak_occupancy_bytes();

  result.faults.ic_crashes = controller.ic_cluster().crashes();
  result.faults.ec_crashes = controller.ec_cluster().crashes();
  result.faults.reexecutions = controller.ic_cluster().reexecutions() +
                               controller.ec_cluster().reexecutions();
  result.faults.wasted_compute_seconds =
      controller.ic_cluster().wasted_standard_seconds() +
      controller.ec_cluster().wasted_standard_seconds();
  result.faults.link_outage_aborts =
      controller.uplink().outage_aborts() + controller.downlink().outage_aborts();
  result.faults.link_drops = controller.uplink().injected_failures() +
                             controller.downlink().injected_failures();
  result.faults.wasted_transfer_bytes =
      controller.uplink().wasted_bytes() + controller.downlink().wasted_bytes();
  result.faults.retractions = controller.retractions();
  result.faults.store_retries = controller.store().failed_attempts();
  result.faults.store_abandoned = controller.store().abandoned_ops();
  result.faults.probe_blackout_skips = controller.probe_blackout_skips();
  if (const auto* plan = controller.fault_plan()) {
    result.faults.crashes_injected = plan->crashes_injected();
    result.faults.outages = plan->outages_started();
  }
  result.faults.drains =
      controller.ic_cluster().drains() + controller.ec_cluster().drains();
  result.faults.undrains =
      controller.ic_cluster().undrains() + controller.ec_cluster().undrains();
  result.faults.drain_preemptions = controller.ic_cluster().drain_preemptions() +
                                    controller.ec_cluster().drain_preemptions();
  result.faults.idle_crashes_absorbed =
      controller.ic_cluster().idle_crashes_absorbed() +
      controller.ec_cluster().idle_crashes_absorbed();
  result.faults.checkpointed_compute_seconds =
      controller.ic_cluster().checkpointed_standard_seconds() +
      controller.ec_cluster().checkpointed_standard_seconds();
  for (const auto* hazard : {controller.ic_hazard(), controller.ec_hazard()}) {
    if (hazard == nullptr) continue;
    const cbs::models::HazardPredictionStats& hs = hazard->stats();
    result.faults.hazard_predictions += hs.predictions;
    result.faults.hazard_true_positives += hs.true_positives;
    result.faults.hazard_false_positives += hs.false_positives;
    result.faults.hazard_false_negatives += hs.false_negatives;
  }

  cbs::sla::OoMetricCalculator oo(result.outcomes);
  result.oo_series =
      oo.ordered_mb_series(scenario.oo_sampling_interval,
                           scenario.oo_tolerance);
  double ec_busy_time = 0.0;
  std::size_t ec_machines = 0;
  for (std::size_t i = 0; i < controller.site_count(); ++i) {
    ec_busy_time += controller.site(i).cluster.total_busy_time();
    ec_machines += controller.site(i).cluster.machine_count();
  }
  result.report = cbs::sla::build_report(
      std::string(cbs::core::to_string(scenario.scheduler)),
      std::string(cbs::workload::to_string(scenario.bucket)), result.outcomes,
      controller.ic_cluster().total_busy_time(),
      controller.ic_cluster().machine_count(), ec_busy_time, ec_machines,
      result.oo_series, scenario.oo_tolerance);
  if (controller.config().elastic_ec.enabled) {
    // An elastic EC's machine count at the end is not the count it ran
    // with: divide by the machine-seconds it was provisioned for instead.
    double provisioned = 0.0;
    for (std::size_t i = 0; i < controller.site_count(); ++i) {
      provisioned += controller.site(i).cluster.provisioned_machine_seconds();
    }
    result.report.ec_utilization =
        provisioned > 0.0 ? ec_busy_time / provisioned : 0.0;
  }

  result.tickets =
      cbs::sla::evaluate_tickets(result.outcomes, scenario.ticket_policy);
  result.cost =
      cbs::sla::compute_cost(controller.cost_inputs(), scenario.cost_rates);

  if (const auto* qrsm = dynamic_cast<const cbs::models::QrsmEstimator*>(
          &controller.service_estimator());
      qrsm != nullptr && qrsm->model().last_fit()) {
    result.qrsm_r_squared = qrsm->model().last_fit()->r_squared;
    result.qrsm_mape = qrsm->model().last_fit()->mape;
  } else {
    result.qrsm_r_squared = std::nan("");
    result.qrsm_mape = std::nan("");
  }
  return result;
}

const std::vector<cbs::core::SchedulerKind>&
LookaheadController::candidate_order() {
  static const std::vector<cbs::core::SchedulerKind> kOrder = {
      cbs::core::SchedulerKind::kOrderPreserving,
      cbs::core::SchedulerKind::kGreedy,
      cbs::core::SchedulerKind::kIcOnly,
      cbs::core::SchedulerKind::kBandwidthSplit,
      cbs::core::SchedulerKind::kRandom,
  };
  return kOrder;
}

LookaheadController::Decision LookaheadController::decide(
    const ScenarioWorld& parent, const cbs::workload::Batch& batch,
    const RolloutObserver& observe) const {
  const auto& order = candidate_order();
  const std::size_t count = std::min(
      order.size(),
      static_cast<std::size_t>(std::max(1, config_.candidates)));

  // Bring the parent's tally up to date once, so that each rollout tallies
  // only the outcomes it finishes itself.
  (void)parent.outcome_tally();
  Decision decision;
  decision.scores.reserve(count);
  for (std::size_t c = 0; c < count; ++c) {
    const cbs::core::SchedulerKind kind = order[c];
    std::unique_ptr<ScenarioWorld> rollout = parent.fork_rollout(kind);
    // The decision point's arrival event has already fired in the parent,
    // so the fork never sees it — inject the batch by hand.
    rollout->inject_batch_as(batch, kind);
    rollout->run_until(parent.now() + config_.horizon_seconds);
    const double score = score_world(*rollout);
    if (observe) observe(*rollout, kind, score);
    decision.scores.emplace_back(kind, score);
    if (c == 0 || score < decision.score) {
      decision.kind = kind;
      decision.score = score;
    }
  }
  return decision;
}

double LookaheadController::score_world(const ScenarioWorld& world) const {
  const cbs::sla::OutcomeTally& tally = world.outcome_tally();
  const double lateness = tally.lateness();
  const double unfinished =
      config_.unfinished_penalty_seconds *
      static_cast<double>(world.controller().outstanding_jobs());
  const cbs::sla::CostReport cost = cbs::sla::compute_cost(
      world.controller().cost_inputs(), world.scenario().cost_rates);
  const double oo = tally.ordered_output_mb(world.scenario().oo_tolerance);
  // Predicted-outage exposure: jobs the horizon-end belief still places on
  // the EC are at risk of a predicted crash; price that as a fraction of
  // the unfinished penalty. Zero exactly when the hazard predictor is off
  // (ec_failure_risk() is 0), so the score is unchanged.
  const double hazard_exposure =
      config_.hazard_risk_weight * world.controller().ec_failure_risk() *
      static_cast<double>(world.controller().outstanding_ec_jobs()) *
      config_.unfinished_penalty_seconds;
  return lateness + unfinished + hazard_exposure +
         config_.seconds_per_dollar * cost.cloud_total() -
         config_.oo_weight_seconds_per_mb * oo;
}

RunResult run_scenario_via_fork(const Scenario& scenario,
                                cbs::sim::SimTime fork_time) {
  ScenarioWorld parent(scenario);
  // fork_time 0 means a pristine fork: run_until(0) would already fire the
  // t=0 batch (events at exactly the deadline fire), so skip it.
  if (fork_time > 0.0) parent.run_until(fork_time);
  std::unique_ptr<ScenarioWorld> resumed = parent.fork();
  resumed->run();
  return resumed->result();
}

}  // namespace cbs::harness
