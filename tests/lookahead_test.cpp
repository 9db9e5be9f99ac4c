// Tests for the model-predictive lookahead policy (harness/world.hpp):
// decision mechanics, determinism, and the acceptance bar — lookahead must
// improve an SLA-cost dimension over both greedy and order-preserving on
// at least one workload family.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "harness/experiment.hpp"
#include "harness/scenario.hpp"
#include "harness/world.hpp"

namespace {

using cbs::core::SchedulerKind;
using cbs::harness::LookaheadController;
using cbs::harness::RunResult;
using cbs::harness::Scenario;
using cbs::harness::ScenarioWorld;
using cbs::harness::run_scenario;

Scenario lookahead_scenario(std::uint64_t seed) {
  return cbs::harness::make_scenario(SchedulerKind::kLookahead,
                                     cbs::workload::SizeBucket::kUniform, seed);
}

// ---- full-rescan reference for the rollout score ---------------------------

/// Σ max(0, completed − deadline) over every outcome, in outcome order.
double reference_lateness(const std::vector<cbs::sla::JobOutcome>& outcomes,
                          const cbs::sla::TicketPolicy& policy) {
  double lateness = 0.0;
  for (const auto& o : outcomes) {
    lateness += std::max(0.0, o.completed - policy.deadline_for(o));
  }
  return lateness;
}

/// The cumulative output MB of completed jobs with id <= m, where m is the
/// largest id with at most `tolerance` missing jobs below it, by a rescan
/// of the whole id space.
double reference_ordered_output_mb(
    const std::vector<cbs::sla::JobOutcome>& outcomes,
    std::uint64_t tolerance) {
  if (outcomes.empty()) return 0.0;
  std::uint64_t max_id = 0;
  for (const auto& o : outcomes) max_id = std::max(max_id, o.seq_id);
  std::vector<double> output_by_id(max_id + 1, -1.0);  // -1 = missing
  for (const auto& o : outcomes) output_by_id[o.seq_id] = o.output_mb;
  double ordered = 0.0;
  double running = 0.0;
  std::uint64_t missing = 0;
  for (std::uint64_t id = 1; id <= max_id; ++id) {
    if (output_by_id[id] < 0.0) {
      if (++missing > tolerance) break;
      continue;
    }
    running += output_by_id[id];
    ordered = running;
  }
  return ordered;
}

/// LookaheadController::score_world recomputed from the whole outcome
/// history, term by term in the same order.
double reference_score(const ScenarioWorld& world,
                       const LookaheadController::Config& cfg) {
  const auto& c = world.controller();
  const std::vector<cbs::sla::JobOutcome> outcomes = c.outcomes();
  const double lateness =
      reference_lateness(outcomes, world.scenario().ticket_policy);
  const double unfinished = cfg.unfinished_penalty_seconds *
                            static_cast<double>(c.outstanding_jobs());
  const cbs::sla::CostReport cost =
      cbs::sla::compute_cost(c.cost_inputs(), world.scenario().cost_rates);
  const double oo =
      reference_ordered_output_mb(outcomes, world.scenario().oo_tolerance);
  const double hazard_exposure =
      cfg.hazard_risk_weight * c.ec_failure_risk() *
      static_cast<double>(c.outstanding_ec_jobs()) *
      cfg.unfinished_penalty_seconds;
  return lateness + unfinished + hazard_exposure +
         cfg.seconds_per_dollar * cost.cloud_total() -
         cfg.oo_weight_seconds_per_mb * oo;
}

/// Runs `s` and checks every candidate rollout's score against the
/// full-rescan reference with exact ==. Returns {rollouts, rollouts whose
/// outcomes completed out of id order}.
std::pair<std::size_t, std::size_t> check_every_rollout_score(
    const Scenario& s) {
  LookaheadController::Config cfg;
  cfg.horizon_seconds = s.lookahead_horizon_seconds;
  cfg.candidates = s.lookahead_candidates;
  std::size_t rollouts = 0;
  std::size_t out_of_order = 0;
  ScenarioWorld world(s);
  world.set_rollout_observer(
      [&](const ScenarioWorld& rollout, SchedulerKind kind, double score) {
        ++rollouts;
        EXPECT_EQ(score, reference_score(rollout, cfg))
            << "rollout " << rollouts << " ("
            << cbs::core::to_string(kind) << ")";
        const auto outcomes = rollout.controller().outcomes();
        const bool sorted = std::is_sorted(
            outcomes.begin(), outcomes.end(),
            [](const auto& a, const auto& b) { return a.seq_id < b.seq_id; });
        if (!sorted) ++out_of_order;
      });
  world.run();
  (void)world.result();  // the committed run still validates
  return {rollouts, out_of_order};
}

TEST(Lookahead, DecidesAtEveryBatchAndValidates) {
  Scenario s = lookahead_scenario(42);
  s.num_batches = 4;
  ScenarioWorld world(s);
  world.run();
  const RunResult r = world.result();  // throws on invariant violations
  EXPECT_EQ(world.lookahead_choices().size(), s.num_batches);
  EXPECT_FALSE(r.outcomes.empty());
  EXPECT_EQ(world.controller().outstanding_jobs(), 0u);
}

TEST(LookaheadScore, MatchesFullRescanWithFaultsAndHazard) {
  // The perfbench lookahead_faults scenario (OO tolerance 4), shortened.
  Scenario s = lookahead_scenario(1);
  s.num_batches = 12;
  s.mean_jobs_per_batch = 10.0;
  s.faults.ic_vm_mtbf = 7200.0;
  s.faults.ec_vm_mtbf = 3600.0;
  s.resilience.hazard.kind = cbs::models::HazardPredictorKind::kEwma;
  ASSERT_GT(s.oo_tolerance, 0u);
  const auto [rollouts, out_of_order] = check_every_rollout_score(s);
  EXPECT_EQ(rollouts, 3 * s.num_batches);
  EXPECT_GT(out_of_order, 0u);
}

TEST(LookaheadScore, MatchesFullRescanAtZeroTolerance) {
  Scenario s = lookahead_scenario(2);
  s.num_batches = 10;
  s.oo_tolerance = 0;
  const auto [rollouts, out_of_order] = check_every_rollout_score(s);
  EXPECT_EQ(rollouts, 3 * s.num_batches);
  EXPECT_GT(out_of_order, 0u);
}

TEST(LookaheadScore, MatchesFullRescanWithReschedulerAndRetraction) {
  // Pull-backs, push-outs and retracted bursts re-admitted at their FCFS
  // position complete far out of id order.
  Scenario s = cbs::harness::make_scenario(
      SchedulerKind::kLookahead, cbs::workload::SizeBucket::kLargeBiased, 3);
  s.num_batches = 10;
  s.enable_rescheduler = true;
  s.faults.ec_vm_mtbf = 900.0;
  s.faults.retraction_deadline_factor = 3.0;
  const auto [rollouts, out_of_order] = check_every_rollout_score(s);
  EXPECT_EQ(rollouts, 3 * s.num_batches);
  EXPECT_GT(out_of_order, 0u);
}

TEST(Lookahead, CandidatePriorityOrderIsStable) {
  const auto& order = LookaheadController::candidate_order();
  ASSERT_GE(order.size(), 3u);
  EXPECT_EQ(order[0], SchedulerKind::kOrderPreserving);
  EXPECT_EQ(order[1], SchedulerKind::kGreedy);
  EXPECT_EQ(order[2], SchedulerKind::kIcOnly);
}

TEST(Lookahead, DecisionEvaluatesRequestedCandidateCount) {
  Scenario s = lookahead_scenario(42);
  s.num_batches = 2;
  s.lookahead_candidates = 2;
  ScenarioWorld world(s);
  LookaheadController::Config cfg;
  cfg.horizon_seconds = s.lookahead_horizon_seconds;
  cfg.candidates = s.lookahead_candidates;
  const LookaheadController lookahead(cfg);
  const auto decision = lookahead.decide(world, world.batches().front());
  EXPECT_EQ(decision.scores.size(), 2u);
  EXPECT_EQ(decision.scores[0].first, SchedulerKind::kOrderPreserving);
  EXPECT_EQ(decision.scores[1].first, SchedulerKind::kGreedy);
  // The winner is one of the evaluated candidates, at the winning score.
  double best = decision.scores[0].second;
  for (const auto& [kind, score] : decision.scores) best = std::min(best, score);
  EXPECT_EQ(decision.score, best);
}

TEST(Lookahead, DecisionDoesNotPerturbTheParent) {
  Scenario s = lookahead_scenario(42);
  s.num_batches = 2;
  ScenarioWorld a(s);
  ScenarioWorld b(s);
  LookaheadController::Config cfg;
  const LookaheadController lookahead(cfg);
  (void)lookahead.decide(a, a.batches().front());  // rollouts run in forks
  a.run();
  b.run();
  const RunResult ra = a.result();
  const RunResult rb = b.result();
  ASSERT_EQ(ra.outcomes.size(), rb.outcomes.size());
  for (std::size_t i = 0; i < ra.outcomes.size(); ++i) {
    EXPECT_EQ(ra.outcomes[i].completed, rb.outcomes[i].completed);
  }
  EXPECT_EQ(ra.events_processed, rb.events_processed);
}

TEST(Lookahead, DeterministicAcrossRuns) {
  Scenario s = lookahead_scenario(7);
  s.num_batches = 4;
  const RunResult a = run_scenario(s);
  const RunResult b = run_scenario(s);
  ASSERT_EQ(a.outcomes.size(), b.outcomes.size());
  for (std::size_t i = 0; i < a.outcomes.size(); ++i) {
    EXPECT_EQ(a.outcomes[i].completed, b.outcomes[i].completed);
    EXPECT_EQ(a.outcomes[i].placement, b.outcomes[i].placement);
  }
  EXPECT_EQ(a.cost.cloud_total(), b.cost.cloud_total());
}

// The acceptance bar: on the uniform bucket (the paper's §V default
// family, low network variation) the lookahead policy produces a cheaper
// cloud bill than BOTH fixed baselines — the horizon roll sees when a
// burst's transfer cost outweighs its deadline benefit and keeps the work
// internal. Pinned on two seeds so a single lucky draw can't carry it.
TEST(Lookahead, BeatsBothBaselinesOnCloudCostUniformFamily) {
  for (const std::uint64_t seed : {42ull, 7ull}) {
    const Scenario base = cbs::harness::make_scenario(
        SchedulerKind::kOrderPreserving, cbs::workload::SizeBucket::kUniform,
        seed);
    Scenario la = base;
    la.scheduler = SchedulerKind::kLookahead;
    Scenario greedy = base;
    greedy.scheduler = SchedulerKind::kGreedy;

    const double la_cost = run_scenario(la).cost.cloud_total();
    const double op_cost = run_scenario(base).cost.cloud_total();
    const double greedy_cost = run_scenario(greedy).cost.cloud_total();

    EXPECT_LT(la_cost, op_cost) << "seed " << seed;
    EXPECT_LT(la_cost, greedy_cost) << "seed " << seed;
  }
}

}  // namespace
