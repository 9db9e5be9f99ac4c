#pragma once

// Span recorder for the traced benchmark build (perfbench_traced).
//
// Spans are opened by the benchmark around its own calls into the harness
// and by the link-time interposers in trace_wrap.cpp around cross-module
// entry points inside the run. Each span's self time (its duration minus
// the time covered by spans nested in it) is added to its kind's total, so
// the per-kind totals partition the traced wall time. Totals stay in
// memory and are written out once, when a measured run ends.
//
// In the untraced build (perfbench) every call here is a no-op.

#include <array>
#include <cstdint>

namespace perfbench::trace {

enum Kind : int {
  kHarnessBuild,       // ScenarioWorld constructor (benchmark span)
  kHarnessFork,        // snapshot + controller clone + event re-registration
  kHarnessResult,      // ScenarioWorld::result (benchmark span)
  kWorkloadGenerate,   // document and batch generation
  kModelsObserve,      // QrsmModel::observe, refits included
  kModelsPredict,      // QrsmModel::predict
  kModelsPretrain,     // CloudBurstController::pretrain (QRSM factory prior)
  kModelsHazard,       // VmHazardEstimator entry points
  kLinalgSolve,        // linalg::ridge_least_squares
  kLinalgGram,         // linalg::Matrix::gram
  kSlaOoSeries,        // OoMetricCalculator::ordered_mb_series
  kSlaReport,          // sla::build_report
  kSlaValidate,        // sla::validate_outcomes
  kCoreAdmit,          // CloudBurstController::on_batch / on_batch_as
  kCoreBelief,         // BeliefState::on_ic_complete
  kNetLink,            // Link::submit / Link::cancel
  kNetBwEstimate,      // BandwidthEstimator::observe / estimate
  kComputeMapReduce,   // MapReduceRuntime::run
  kSimcoreQueue,       // EventQueue::push / pop
  kRunLoop,            // Simulation::run / run_until: time no span covers
  kKindCount
};

/// What one traced run accumulates. Trivially copyable: a forked run
/// writes it to its parent as raw bytes.
struct Totals {
  std::array<std::uint64_t, kKindCount> calls{};
  std::array<std::int64_t, kKindCount> self_ns{};
  std::uint64_t forks = 0;           // SnapshotContext constructions
  std::uint64_t slack_checks = 0;    // sla::satisfies_slack (Eq. 1-2)
  std::uint64_t events = 0;          // EventQueue::pop, rollouts included
  std::uint64_t rollout_events = 0;  // events run by nested run_until calls
};

#ifdef CBS_PERFBENCH_TRACED
inline constexpr bool kEnabled = true;
void enter(Kind kind);
void leave();
Totals& totals();
void reset();
#else
inline constexpr bool kEnabled = false;
inline void enter(Kind) {}
inline void leave() {}
inline Totals& totals() {
  static Totals empty;
  return empty;
}
inline void reset() {}
#endif

/// Scoped span; also closes on exception unwind.
class Span {
 public:
  explicit Span(Kind kind) { enter(kind); }
  ~Span() { leave(); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
};

}  // namespace perfbench::trace
