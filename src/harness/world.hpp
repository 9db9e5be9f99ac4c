#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "core/config.hpp"
#include "core/controller.hpp"
#include "harness/experiment.hpp"
#include "harness/scenario.hpp"
#include "simcore/simulation.hpp"
#include "sla/outcome_tally.hpp"
#include "workload/arrival.hpp"
#include "workload/ground_truth.hpp"

namespace cbs::harness {

class ScenarioWorld;

/// The model-predictive burst policy: at a decision point it forks the live
/// world once per candidate scheduler, injects the batch into each fork,
/// rolls the fork `horizon_seconds` forward and scores the resulting
/// trajectory; the lowest score wins (first candidate wins ties, so
/// decisions are deterministic).
///
/// The score is an SLA-cost surrogate in "penalty seconds":
///
///   Σ ticket lateness  +  penalty × unfinished jobs
///     + seconds_per_dollar × cloud bill  −  oo_weight × ordered output MB
///
/// Lateness and the cloud bill are the two SLA terms the paper optimizes;
/// the ordered-output credit is its OO metric (Eq. 6) evaluated at horizon
/// end; the unfinished penalty keeps a candidate from looking good by
/// merely deferring work past the horizon.
class LookaheadController {
 public:
  struct Config {
    double horizon_seconds = 900.0;
    /// Candidates evaluated, a prefix of candidate_order() (min 1).
    int candidates = 3;
    /// Charged per job still outstanding at horizon end, seconds.
    double unfinished_penalty_seconds = 900.0;
    /// Exchange rate folding the cloud bill into penalty seconds.
    double seconds_per_dollar = 3600.0;
    /// Credit per MB of in-order output available at horizon end.
    double oo_weight_seconds_per_mb = 1.0;
    /// Weight of the predicted-EC-outage term: each job the rolled-forward
    /// world still believes on the EC is charged this fraction of the
    /// unfinished penalty times the controller's predicted EC failure
    /// risk. Exactly zero contribution when the hazard predictor is off.
    double hazard_risk_weight = 1.0;
  };

  struct Decision {
    cbs::core::SchedulerKind kind = cbs::core::SchedulerKind::kOrderPreserving;
    double score = 0.0;
    /// Every candidate's score, in evaluation order.
    std::vector<std::pair<cbs::core::SchedulerKind, double>> scores;
  };

  /// Fixed candidate priority: order-preserving, greedy, ic-only,
  /// bandwidth-split, random.
  [[nodiscard]] static const std::vector<cbs::core::SchedulerKind>&
  candidate_order();

  /// Called once per candidate rollout, after it is rolled forward and
  /// scored: the imagined future behind each candidate's score.
  using RolloutObserver =
      std::function<void(const ScenarioWorld& rollout,
                         cbs::core::SchedulerKind kind, double score)>;

  explicit LookaheadController(Config config) : config_(config) {}

  /// Evaluates the candidates for `batch` against `parent` (which is not
  /// modified — each rollout runs in its own fork). `observe`, when set,
  /// sees every rollout before it is discarded.
  [[nodiscard]] Decision decide(const ScenarioWorld& parent,
                                const cbs::workload::Batch& batch,
                                const RolloutObserver& observe = {}) const;

  /// The trajectory score of a (rolled-forward) world; lower is better.
  [[nodiscard]] double score_world(const ScenarioWorld& world) const;

  [[nodiscard]] const Config& config() const noexcept { return config_; }

 private:
  Config config_;
};

/// A scenario's entire running state as a first-class, *forkable* value:
/// the engine, the ground-truth model, the controller and the pre-drawn
/// arrival schedule. `run_scenario` is a thin wrapper over this class;
/// holding the world directly additionally buys
///
///  - checkpoint/resume: `run_until(t)` then `fork()` yields an independent
///    deep copy whose continuation is byte-identical to the original's
///    (the fork-equivalence contract, enforced by tests/test_fork_golden);
///  - model-predictive lookahead: with `SchedulerKind::kLookahead` every
///    batch arrival forks the world once per candidate policy, rolls each
///    fork `lookahead_horizon_seconds` forward, and commits the batch under
///    the best-scoring candidate (LookaheadController below).
///
/// Construction replicates run_scenario's historical build order exactly —
/// same RNG substreams, same event (time, seq) assignment — so results are
/// byte-identical to the pre-world harness.
class ScenarioWorld {
 public:
  explicit ScenarioWorld(const Scenario& scenario);

  /// Fork: deep-copies `src` into an independent world via the
  /// SnapshotContext protocol. Throws std::runtime_error if any pending
  /// event of the source is left unclaimed (a component missed its
  /// rebuild_events hook — a bug, not a user error). The cost is the live
  /// state's, not the run's: immutable inputs and full outcome chunks are
  /// shared, and only the next batch arrival is pending. With
  /// `keep_decisions` false the decision record and rollout observer stay
  /// behind (fork_rollout: a rollout never decides or reports).
  ScenarioWorld(const ScenarioWorld& src, bool keep_decisions = true);
  ScenarioWorld& operator=(const ScenarioWorld&) = delete;

  /// Drives the world to completion; returns the final clock.
  cbs::sim::SimTime run();

  /// Runs every event with timestamp <= `deadline`, then advances the
  /// clock to `deadline`. The natural checkpoint primitive: run_until(t),
  /// fork(), continue either copy.
  cbs::sim::SimTime run_until(cbs::sim::SimTime deadline);

  [[nodiscard]] std::unique_ptr<ScenarioWorld> fork() const {
    return std::make_unique<ScenarioWorld>(*this);
  }

  /// A fork for a lookahead rollout: every in-horizon batch arrival is
  /// admitted under `kind` instead of the scenario scheduler, no nested
  /// lookahead decisions are made, and the decision record (history a
  /// rollout never reads) is left behind.
  [[nodiscard]] std::unique_ptr<ScenarioWorld> fork_rollout(
      cbs::core::SchedulerKind kind) const;

  /// Validates the finished run and assembles the metrics (exactly what
  /// run_scenario returns). Throws on invariant violations.
  [[nodiscard]] RunResult result() const;

  [[nodiscard]] cbs::sim::SimTime now() const noexcept { return sim_.now(); }
  /// The world's event engine (clock and counters). An event scheduled on
  /// it from outside belongs to no component, so the world cannot fork (or
  /// make a lookahead decision) while such an event is pending.
  [[nodiscard]] cbs::sim::Simulation& simulation() noexcept { return sim_; }
  [[nodiscard]] const cbs::sim::Simulation& simulation() const noexcept {
    return sim_;
  }
  [[nodiscard]] const Scenario& scenario() const noexcept { return *scenario_; }
  [[nodiscard]] const cbs::core::CloudBurstController& controller() const {
    return *controller_;
  }
  [[nodiscard]] const std::vector<cbs::workload::Batch>& batches() const noexcept {
    return *batches_;
  }

  /// Admits one batch under a temporarily swapped-in candidate scheduler
  /// (forwards to CloudBurstController::on_batch_as).
  void inject_batch_as(const cbs::workload::Batch& batch,
                       cbs::core::SchedulerKind kind) {
    controller_->on_batch_as(batch, kind);
  }

  /// Batch arrivals that have fired so far.
  [[nodiscard]] std::size_t batches_delivered() const noexcept {
    return next_batch_;
  }

  /// Running ticket lateness and ordered-output sums over the controller's
  /// outcomes, first brought up to date with the outcomes finished since
  /// the last read (so a rollout forked from an up-to-date world reads only
  /// its own new outcomes).
  [[nodiscard]] const cbs::sla::OutcomeTally& outcome_tally() const;

  /// The candidate committed at each lookahead decision point, in batch
  /// order (empty unless scheduler == kLookahead).
  [[nodiscard]] const std::vector<cbs::core::SchedulerKind>& lookahead_choices()
      const noexcept {
    return lookahead_choices_;
  }

  /// Every candidate's score at each lookahead decision point, decision by
  /// decision: decision d's k scores (k candidates evaluated, in
  /// LookaheadController::candidate_order()) are entries [d·k, (d+1)·k).
  [[nodiscard]] const std::vector<double>& lookahead_scores() const noexcept {
    return lookahead_scores_;
  }

  /// Sees every candidate rollout of this world's lookahead decisions
  /// (LookaheadController::RolloutObserver).
  void set_rollout_observer(LookaheadController::RolloutObserver observer) {
    rollout_observer_ = std::move(observer);
  }

 private:
  /// Puts arrival `next_batch_` in the queue under its reserved seq (no-op
  /// past the last batch).
  void arm_next_arrival();
  /// The armed arrival fired: arms the one after it, then admits the batch.
  void deliver_batch();

  /// Immutable inputs, shared by forks instead of copied: the scenario and
  /// the pre-drawn arrival schedule (every batch's documents).
  std::shared_ptr<const Scenario> scenario_;
  std::shared_ptr<const std::vector<cbs::workload::Batch>> batches_;
  cbs::sim::Simulation sim_;
  cbs::workload::GroundTruthModel truth_;
  std::unique_ptr<cbs::core::CloudBurstController> controller_;
  /// Batch i arrives under event seq first_arrival_seq_ + i, reserved at
  /// build where scheduling every arrival up front would have put them, so
  /// arming one arrival at a time keeps that (time, seq) pop order.
  std::uint64_t first_arrival_seq_ = 0;
  std::size_t next_batch_ = 0;       ///< the armed arrival's index
  cbs::sim::EventId arrival_event_;  ///< the armed arrival (restored by forks)
  mutable cbs::sla::OutcomeTally tally_;
  bool rollout_ = false;
  cbs::core::SchedulerKind rollout_kind_ =
      cbs::core::SchedulerKind::kOrderPreserving;
  std::vector<cbs::core::SchedulerKind> lookahead_choices_;
  std::vector<double> lookahead_scores_;
  LookaheadController::RolloutObserver rollout_observer_;
};

/// Checkpoint/resume driver used by the fork-equivalence suite: builds a
/// fresh world, advances it to `fork_time`, forks it, abandons the parent
/// and completes the fork. The result must be byte-identical to
/// run_scenario(scenario) — for any fork_time. A fork_time of 0 forks the
/// pristine world before any event (including the t=0 batch) fires.
[[nodiscard]] RunResult run_scenario_via_fork(const Scenario& scenario,
                                              cbs::sim::SimTime fork_time);

}  // namespace cbs::harness
