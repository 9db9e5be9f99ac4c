// Link-time interposers for the traced benchmark build.
//
// perfbench_traced is linked with GNU ld `--wrap=<symbol>` for every symbol
// named in a CBS_DECLARE / CBS_INTERPOSE line below (CMakeLists.txt reads
// them from this file). The linker then routes every *cross-object*
// reference to <symbol> to `__wrap_<symbol>`, defined here, which opens a
// span and calls the original through `__real_<symbol>`. The simulator's
// sources are compiled unchanged.
//
// Limits, by construction of --wrap: a call from inside the defining
// translation unit, or through a vtable, is not interposed; its time lands
// in the nearest enclosing span (ultimately the run loop, reported as
// other.self_s). The declarations must match the originals exactly: the
// wrappers are ordinary functions whose first parameter is `this`, which
// the Itanium C++ ABI passes like a leading pointer argument (after the
// hidden return slot, when there is one). A signature change in src/
// fails the traced link with an undefined __real_ symbol.

#include <array>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include "compute/mapreduce.hpp"
#include "core/belief_state.hpp"
#include "core/controller.hpp"
#include "linalg/least_squares.hpp"
#include "linalg/matrix.hpp"
#include "models/hazard.hpp"
#include "models/qrsm.hpp"
#include "net/bandwidth_estimator.hpp"
#include "net/link.hpp"
#include "simcore/event_queue.hpp"
#include "simcore/simulation.hpp"
#include "simcore/snapshot.hpp"
#include "sla/job_outcome.hpp"
#include "sla/oo_metric.hpp"
#include "sla/report.hpp"
#include "sla/slack.hpp"
#include "stats/timeseries.hpp"
#include "trace.hpp"
#include "workload/arrival.hpp"
#include "workload/generator.hpp"

namespace perfbench::trace {

namespace {

struct Frame {
  Kind kind;
  std::int64_t start_ns;
  std::int64_t child_ns;  // time covered by spans nested in this one
};

constexpr int kMaxDepth = 256;
std::array<Frame, kMaxDepth> g_stack;
int g_depth = 0;
Totals g_totals;

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

void enter(Kind kind) {
  if (g_depth == kMaxDepth) {
    std::fputs("perfbench: span stack overflow\n", stderr);
    std::abort();
  }
  g_stack[static_cast<std::size_t>(g_depth++)] = {kind, now_ns(), 0};
}

void leave() {
  const std::int64_t end = now_ns();
  const Frame& frame = g_stack[static_cast<std::size_t>(--g_depth)];
  const std::int64_t duration = end - frame.start_ns;
  g_totals.self_ns[frame.kind] += duration - frame.child_ns;
  ++g_totals.calls[frame.kind];
  if (g_depth > 0) {
    g_stack[static_cast<std::size_t>(g_depth - 1)].child_ns += duration;
  }
}

Totals& totals() { return g_totals; }

void reset() { g_totals = Totals{}; }

}  // namespace perfbench::trace

namespace perfbench::wrap {

using trace::Span;
namespace sim = cbs::sim;
using cbs::sim::SimTime;

#define CBS_DECLARE(SYM, NAME, RET, PARAMS)      \
  RET real_##NAME PARAMS __asm__("__real_" #SYM); \
  RET wrap_##NAME PARAMS __asm__("__wrap_" #SYM)

#define CBS_INTERPOSE(SYM, NAME, KIND, RET, PARAMS, ARGS) \
  CBS_DECLARE(SYM, NAME, RET, PARAMS);                    \
  RET wrap_##NAME PARAMS {                                \
    const Span span(trace::KIND);                         \
    return real_##NAME ARGS;                              \
  }

// ---- simcore: event queue and run loop -----------------------------------

CBS_INTERPOSE(_ZN3cbs3sim10EventQueue4pushEdNS0_14UniqueFunctionIFvvEEE,
              push, kSimcoreQueue, sim::EventId,
              (sim::EventQueue * self, SimTime t, sim::EventQueue::Callback cb),
              (self, t, std::move(cb)))

CBS_DECLARE(_ZN3cbs3sim10EventQueue3popEv, pop, sim::EventQueue::Popped,
            (sim::EventQueue * self));
sim::EventQueue::Popped wrap_pop(sim::EventQueue* self) {
  ++trace::totals().events;
  const Span span(trace::kSimcoreQueue);
  return real_pop(self);
}

namespace {

// Outermost run loop = the committed run; nested ones are lookahead
// rollouts on forked worlds, whose events are counted separately.
int g_run_depth = 0;

class RunLoopSpan {
 public:
  explicit RunLoopSpan(const sim::Simulation& simulation)
      : sim_(simulation), events_before_(simulation.events_processed()) {
    ++g_run_depth;
  }
  ~RunLoopSpan() {
    if (--g_run_depth > 0) {
      trace::totals().rollout_events +=
          sim_.events_processed() - events_before_;
    }
  }
  RunLoopSpan(const RunLoopSpan&) = delete;
  RunLoopSpan& operator=(const RunLoopSpan&) = delete;

 private:
  const sim::Simulation& sim_;
  std::uint64_t events_before_;
  Span span_{trace::kRunLoop};
};

}  // namespace

CBS_DECLARE(_ZN3cbs3sim10Simulation3runEv, run, SimTime,
            (sim::Simulation * self));
SimTime wrap_run(sim::Simulation* self) {
  const RunLoopSpan span(*self);
  return real_run(self);
}

CBS_DECLARE(_ZN3cbs3sim10Simulation9run_untilEd, run_until, SimTime,
            (sim::Simulation * self, SimTime deadline));
SimTime wrap_run_until(sim::Simulation* self, SimTime deadline) {
  const RunLoopSpan span(*self);
  return real_run_until(self, deadline);
}

// ---- harness: fork (snapshot, controller clone, event re-registration) ----

CBS_DECLARE(_ZN3cbs3sim15SnapshotContextC1ERKNS0_10SimulationERS2_,
            snapshot_ctor, void,
            (sim::SnapshotContext * self, const sim::Simulation& src,
             sim::Simulation& dst));
void wrap_snapshot_ctor(sim::SnapshotContext* self, const sim::Simulation& src,
                        sim::Simulation& dst) {
  ++trace::totals().forks;
  const Span span(trace::kHarnessFork);
  real_snapshot_ctor(self, src, dst);
}

CBS_INTERPOSE(_ZNK3cbs3sim15SnapshotContext6finishEv, snapshot_finish,
              kHarnessFork, std::size_t, (const sim::SnapshotContext* self),
              (self))

CBS_INTERPOSE(
    _ZN3cbs4core20CloudBurstControllerC1ERNS_3sim10SimulationERKS1_RNS_8workload16GroundTruthModelE,
    controller_clone, kHarnessFork, void,
    (cbs::core::CloudBurstController * self, sim::Simulation& dst,
     const cbs::core::CloudBurstController& src,
     cbs::workload::GroundTruthModel& truth),
    (self, dst, src, truth))

CBS_INTERPOSE(
    _ZN3cbs4core20CloudBurstController14rebuild_eventsERNS_3sim15SnapshotContextE,
    controller_rebuild, kHarnessFork, void,
    (cbs::core::CloudBurstController * self, sim::SnapshotContext& ctx),
    (self, ctx))

// ---- workload: arrivals and documents ------------------------------------

CBS_INTERPOSE(
    _ZN3cbs8workload17WorkloadGeneratorC1ENS1_6ConfigERKNS0_16GroundTruthModelENS_3sim9RngStreamE,
    generator_ctor, kWorkloadGenerate, void,
    (cbs::workload::WorkloadGenerator * self,
     cbs::workload::WorkloadGenerator::Config config,
     const cbs::workload::GroundTruthModel& truth, sim::RngStream rng),
    (self, std::move(config), truth, std::move(rng)))

CBS_INTERPOSE(_ZN3cbs8workload17WorkloadGenerator5batchEm, generator_batch,
              kWorkloadGenerate, std::vector<cbs::workload::Document>,
              (cbs::workload::WorkloadGenerator * self, std::size_t count),
              (self, count))

CBS_INTERPOSE(
    _ZN3cbs8workload19BatchArrivalProcessC1ENS1_6ConfigERNS0_17WorkloadGeneratorENS_3sim9RngStreamE,
    arrivals_ctor, kWorkloadGenerate, void,
    (cbs::workload::BatchArrivalProcess * self,
     cbs::workload::BatchArrivalProcess::Config config,
     cbs::workload::WorkloadGenerator& generator, sim::RngStream rng),
    (self, std::move(config), generator, std::move(rng)))

CBS_INTERPOSE(_ZN3cbs8workload19BatchArrivalProcess12generate_allEv,
              arrivals_generate, kWorkloadGenerate,
              std::vector<cbs::workload::Batch>,
              (cbs::workload::BatchArrivalProcess * self), (self))

// ---- models: QRSM runtime estimate and VM hazard -------------------------

CBS_INTERPOSE(_ZN3cbs6models9QrsmModel7observeERKNS_8workload16DocumentFeaturesEd,
              qrsm_observe, kModelsObserve, void,
              (cbs::models::QrsmModel * self,
               const cbs::workload::DocumentFeatures& features,
               double runtime),
              (self, features, runtime))

CBS_INTERPOSE(_ZNK3cbs6models9QrsmModel7predictERKNS_8workload16DocumentFeaturesE,
              qrsm_predict, kModelsPredict, double,
              (const cbs::models::QrsmModel* self,
               const cbs::workload::DocumentFeatures& features),
              (self, features))

CBS_INTERPOSE(
    _ZN3cbs4core20CloudBurstController8pretrainERKSt6vectorINS_8workload8DocumentESaIS4_EERKS2_IdSaIdEE,
    pretrain, kModelsPretrain, void,
    (cbs::core::CloudBurstController * self,
     const std::vector<cbs::workload::Document>& docs,
     const std::vector<double>& runtimes),
    (self, docs, runtimes))

CBS_INTERPOSE(_ZN3cbs6models17VmHazardEstimator15ensure_machinesEmd,
              hazard_ensure, kModelsHazard, void,
              (cbs::models::VmHazardEstimator * self, std::size_t machines,
               SimTime now),
              (self, machines, now))

CBS_INTERPOSE(_ZN3cbs6models17VmHazardEstimator10on_failureEmd,
              hazard_failure, kModelsHazard, void,
              (cbs::models::VmHazardEstimator * self, std::size_t machine,
               SimTime now),
              (self, machine, now))

CBS_INTERPOSE(_ZNK3cbs6models17VmHazardEstimator19failure_probabilityEmdd,
              hazard_probability, kModelsHazard, double,
              (const cbs::models::VmHazardEstimator* self, std::size_t machine,
               SimTime now, double window),
              (self, machine, now, window))

CBS_INTERPOSE(_ZN3cbs6models17VmHazardEstimator15note_predictionEmdd,
              hazard_note, kModelsHazard, void,
              (cbs::models::VmHazardEstimator * self, std::size_t machine,
               SimTime now, double window),
              (self, machine, now, window))

CBS_INTERPOSE(_ZN3cbs6models17VmHazardEstimator6settleEd, hazard_settle,
              kModelsHazard, void,
              (cbs::models::VmHazardEstimator * self, SimTime now),
              (self, now))

// ---- linalg ----------------------------------------------------------------

CBS_INTERPOSE(_ZN3cbs6linalg19ridge_least_squaresERKNS0_6MatrixERKSt6vectorIdSaIdEEd,
              ridge, kLinalgSolve, cbs::linalg::FitResult,
              (const cbs::linalg::Matrix& a, const cbs::linalg::Vector& b,
               double lambda),
              (a, b, lambda))

CBS_INTERPOSE(_ZNK3cbs6linalg6Matrix4gramEv, gram, kLinalgGram,
              cbs::linalg::Matrix, (const cbs::linalg::Matrix* self), (self))

// ---- sla -------------------------------------------------------------------

CBS_INTERPOSE(_ZNK3cbs3sla18OoMetricCalculator17ordered_mb_seriesEdm,
              oo_series, kSlaOoSeries, cbs::stats::TimeSeries,
              (const cbs::sla::OoMetricCalculator* self, double interval,
               std::uint64_t tolerance),
              (self, interval, tolerance))

CBS_INTERPOSE(
    _ZN3cbs3sla12build_reportENSt7__cxx1112basic_stringIcSt11char_traitsIcESaIcEEES6_RKSt6vectorINS0_10JobOutcomeESaIS8_EEdmdmdm,
    build_report, kSlaReport, cbs::sla::SlaReport,
    (std::string scheduler, std::string bucket,
     const std::vector<cbs::sla::JobOutcome>& outcomes, double ic_total_busy,
     std::size_t ic_machines, double ec_total_busy, std::size_t ec_machines,
     double oo_interval, std::uint64_t oo_tolerance),
    (std::move(scheduler), std::move(bucket), outcomes, ic_total_busy,
     ic_machines, ec_total_busy, ec_machines, oo_interval, oo_tolerance))

CBS_INTERPOSE(
    _ZN3cbs3sla17validate_outcomesB5cxx11ERKSt6vectorINS0_10JobOutcomeESaIS2_EE,
    validate, kSlaValidate, std::string,
    (const std::vector<cbs::sla::JobOutcome>& outcomes), (outcomes))

CBS_DECLARE(_ZN3cbs3sla15satisfies_slackEddd, satisfies_slack, bool,
            (SimTime estimate, SimTime slack, sim::SimDuration margin));
bool wrap_satisfies_slack(SimTime estimate, SimTime slack,
                          sim::SimDuration margin) {
  ++trace::totals().slack_checks;  // counted only: a few comparisons
  return real_satisfies_slack(estimate, slack, margin);
}

// ---- core ------------------------------------------------------------------

CBS_INTERPOSE(_ZN3cbs4core20CloudBurstController8on_batchERKNS_8workload5BatchE,
              on_batch, kCoreAdmit, void,
              (cbs::core::CloudBurstController * self,
               const cbs::workload::Batch& batch),
              (self, batch))

CBS_INTERPOSE(
    _ZN3cbs4core20CloudBurstController11on_batch_asERKNS_8workload5BatchENS0_13SchedulerKindE,
    on_batch_as, kCoreAdmit, void,
    (cbs::core::CloudBurstController * self, const cbs::workload::Batch& batch,
     cbs::core::SchedulerKind kind),
    (self, batch, kind))

CBS_INTERPOSE(_ZN3cbs4core11BeliefState14on_ic_completeEm, belief_complete,
              kCoreBelief, void,
              (cbs::core::BeliefState * self, std::uint64_t seq), (self, seq))

// ---- net -------------------------------------------------------------------

CBS_INTERPOSE(_ZN3cbs3net4Link6submitEdiim, link_submit, kNetLink,
              cbs::net::TransferId,
              (cbs::net::Link * self, double bytes, int threads, int slot,
               std::uint64_t tag),
              (self, bytes, threads, slot, tag))

CBS_INTERPOSE(_ZN3cbs3net4Link6cancelEm, link_cancel, kNetLink, bool,
              (cbs::net::Link * self, cbs::net::TransferId id), (self, id))

CBS_INTERPOSE(_ZN3cbs3net18BandwidthEstimator7observeEdd, bw_observe,
              kNetBwEstimate, void,
              (cbs::net::BandwidthEstimator * self, SimTime t, double rate),
              (self, t, rate))

CBS_INTERPOSE(_ZNK3cbs3net18BandwidthEstimator25estimate_transfer_secondsEdd,
              bw_estimate, kNetBwEstimate, double,
              (const cbs::net::BandwidthEstimator* self, SimTime t,
               double bytes),
              (self, t, bytes))

// ---- compute ---------------------------------------------------------------

CBS_INTERPOSE(_ZN3cbs7compute16MapReduceRuntime3runERKNS0_13MapReduceSpecE,
              mapreduce_run, kComputeMapReduce, void,
              (cbs::compute::MapReduceRuntime * self,
               const cbs::compute::MapReduceSpec& spec),
              (self, spec))

}  // namespace perfbench::wrap
