// Micro-benchmarks of the hot paths: event engine, link allocation, QRSM
// fit/predict, OO metric computation, full scenario throughput.
#include <benchmark/benchmark.h>

#include "core/belief_state.hpp"
#include "core/order_preserving_scheduler.hpp"
#include "core/scheduler.hpp"
#include "harness/experiment.hpp"
#include "models/estimator.hpp"
#include "models/hazard.hpp"
#include "harness/runner.hpp"
#include "harness/scenario.hpp"
#include "harness/world.hpp"
#include "models/qrsm.hpp"
#include "net/bandwidth_estimator.hpp"
#include "net/link.hpp"
#include "simcore/simulation.hpp"
#include "sla/metrics.hpp"
#include "workload/chunker.hpp"
#include "sla/oo_metric.hpp"
#include "workload/generator.hpp"

namespace {

void BM_EventEngineThroughput(benchmark::State& state) {
  const auto n = static_cast<int>(state.range(0));
  for (auto _ : state) {
    cbs::sim::Simulation sim;
    for (int i = 0; i < n; ++i) {
      sim.schedule_at(static_cast<double>(i % 97), [] {});
    }
    sim.run();
    benchmark::DoNotOptimize(sim.events_processed());
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_EventEngineThroughput)->Arg(1000)->Arg(10000);

void BM_EventCancelChurn(benchmark::State& state) {
  // The burst-retraction pattern: most scheduled events are cancelled
  // before firing. Exercises tombstoning + compaction in the event engine.
  const auto n = static_cast<int>(state.range(0));
  for (auto _ : state) {
    cbs::sim::Simulation sim;
    std::vector<cbs::sim::EventId> doomed;
    doomed.reserve(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i) {
      const double t = static_cast<double>(i % 97) + 1.0;
      if (i % 8 == 0) {
        sim.schedule_at(t, [] {});
      } else {
        doomed.push_back(sim.schedule_at(t, [] {}));
      }
      if (doomed.size() >= 32) {
        for (const auto id : doomed) sim.cancel(id);
        doomed.clear();
      }
    }
    for (const auto id : doomed) sim.cancel(id);
    sim.run();
    benchmark::DoNotOptimize(sim.events_processed());
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_EventCancelChurn)->Arg(1000)->Arg(10000);

void BM_SlackMaintenance(benchmark::State& state) {
  // Eq. 1's cushion under commit/complete churn with `n` jobs outstanding.
  // The pre-optimization slack() rescanned all outstanding jobs on every
  // call; the incremental structure makes this flat in n.
  const auto n = static_cast<std::size_t>(state.range(0));
  cbs::sim::RngStream rng(11);
  cbs::workload::GroundTruthModel truth({}, rng.substream("t"));
  cbs::workload::WorkloadGenerator gen({}, truth, rng.substream("g"));
  cbs::models::OracleEstimator estimator(truth);
  cbs::net::BandwidthEstimator uplink(
      {.slots_per_day = 1, .alpha = 0.3, .prior_rate = 1.0e6});
  cbs::net::BandwidthEstimator downlink = uplink;
  cbs::core::BeliefState belief(estimator, uplink, downlink, 50, 1.0, 50, 1.0);
  std::vector<cbs::workload::Document> docs;
  for (std::size_t i = 0; i < n; ++i) docs.push_back(gen.next());
  std::uint64_t seq = 1;
  double now = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    belief.commit_ec(seq++, docs[i], belief.ft_ec(docs[i], now));
  }
  std::size_t oldest = 1;
  std::size_t i = 0;
  for (auto _ : state) {
    // Steady-state churn: complete the oldest, commit a replacement, read
    // the slack — the per-batch pattern of Algorithm 1/2.
    now += 1.0;
    belief.on_ec_complete(oldest++);
    const auto& doc = docs[i++ % docs.size()];
    belief.commit_ec(seq++, doc, belief.ft_ec(doc, now));
    benchmark::DoNotOptimize(belief.slack(now));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SlackMaintenance)->Arg(100)->Arg(1000)->Arg(10000);

void BM_BatchAdmission(benchmark::State& state) {
  // Algorithm 2 over a whole batch: every job consults slack() before
  // admission, so batch cost was quadratic in outstanding jobs before the
  // incremental structure.
  const auto batch_size = static_cast<std::size_t>(state.range(0));
  cbs::sim::RngStream rng(13);
  cbs::workload::GroundTruthModel truth({}, rng.substream("t"));
  cbs::workload::WorkloadGenerator gen({}, truth, rng.substream("g"));
  cbs::models::OracleEstimator estimator(truth);
  cbs::net::BandwidthEstimator uplink(
      {.slots_per_day = 1, .alpha = 0.3, .prior_rate = 1.0e6});
  cbs::net::BandwidthEstimator downlink = uplink;
  std::vector<cbs::workload::Document> batch;
  for (std::size_t i = 0; i < batch_size; ++i) batch.push_back(gen.next());
  cbs::core::SchedulerParams params;
  for (auto _ : state) {
    state.PauseTiming();
    // Fresh belief per iteration so committed state does not accumulate
    // across iterations; seeded with a backlog so jobs are burst-eligible.
    cbs::core::BeliefState belief(estimator, uplink, downlink, 4, 1.0, 50,
                                  1.0);
    belief.commit_ic(999999, 40000.0);
    std::uint64_t next_seq = 1;
    std::uint64_t next_doc_id = 1ULL << 40;
    cbs::core::OrderPreservingScheduler scheduler;
    cbs::core::Scheduler::Context ctx{
        .now = 0.0,
        .belief = belief,
        .params = params,
        .truth = truth,
        .next_seq = &next_seq,
        .next_doc_id = &next_doc_id,
        .ic_machines = 4,
    };
    state.ResumeTiming();
    benchmark::DoNotOptimize(scheduler.schedule_batch(batch, ctx));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(batch_size));
}
BENCHMARK(BM_BatchAdmission)->Arg(64)->Arg(256)->Arg(1024);

void BM_QrsmFit(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  cbs::sim::RngStream rng(7);
  cbs::workload::GroundTruthModel truth({}, rng.substream("t"));
  cbs::workload::WorkloadGenerator gen({}, truth, rng.substream("g"));
  std::vector<cbs::workload::DocumentFeatures> feats;
  std::vector<double> y;
  for (std::size_t i = 0; i < n; ++i) {
    auto doc = gen.next();
    feats.push_back(doc.features);
    y.push_back(truth.expected_seconds(doc.features));
  }
  for (auto _ : state) {
    cbs::models::QrsmModel model;
    model.fit(feats, y);
    benchmark::DoNotOptimize(model.is_fitted());
  }
}
BENCHMARK(BM_QrsmFit)->Arg(128)->Arg(512);

void BM_QrsmPredict(benchmark::State& state) {
  cbs::sim::RngStream rng(7);
  cbs::workload::GroundTruthModel truth({}, rng.substream("t"));
  cbs::workload::WorkloadGenerator gen({}, truth, rng.substream("g"));
  std::vector<cbs::workload::DocumentFeatures> feats;
  std::vector<double> y;
  for (std::size_t i = 0; i < 256; ++i) {
    auto doc = gen.next();
    feats.push_back(doc.features);
    y.push_back(truth.expected_seconds(doc.features));
  }
  cbs::models::QrsmModel model;
  model.fit(feats, y);
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(model.predict(feats[i++ % feats.size()]));
  }
}
BENCHMARK(BM_QrsmPredict);

void BM_QrsmObserveWindow(benchmark::State& state) {
  // Steady state of the online loop: the default 4096-row window is full,
  // so every observation adds one row and evicts another, and every 32nd
  // refits. Per-observation cost must not depend on the window length.
  cbs::sim::RngStream rng(7);
  cbs::workload::GroundTruthModel truth({}, rng.substream("t"));
  cbs::workload::WorkloadGenerator gen({}, truth, rng.substream("g"));
  std::vector<cbs::workload::DocumentFeatures> feats;
  std::vector<double> y;
  for (std::size_t i = 0; i < 8192; ++i) {
    auto doc = gen.next();
    feats.push_back(doc.features);
    y.push_back(truth.expected_seconds(doc.features));
  }
  cbs::models::QrsmModel model;
  for (std::size_t i = 0; i < 4096; ++i) model.observe(feats[i], y[i]);
  std::size_t i = 0;
  for (auto _ : state) {
    model.observe(feats[i], y[i]);
    i = (i + 1) % feats.size();
  }
  benchmark::DoNotOptimize(model.is_fitted());
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_QrsmObserveWindow);

void BM_OoMetricSeries(benchmark::State& state) {
  // Synthetic outcomes: n jobs completing in shuffled order.
  const auto n = static_cast<std::size_t>(state.range(0));
  std::vector<cbs::sla::JobOutcome> outcomes(n);
  cbs::sim::RngStream rng(3);
  for (std::size_t i = 0; i < n; ++i) {
    outcomes[i].seq_id = i + 1;
    outcomes[i].completed = rng.uniform(0.0, 10000.0);
    outcomes[i].output_mb = rng.uniform(1.0, 300.0);
  }
  for (auto _ : state) {
    cbs::sla::OoMetricCalculator oo(outcomes);
    benchmark::DoNotOptimize(oo.series(120.0, 4));
  }
}
BENCHMARK(BM_OoMetricSeries)->Arg(100)->Arg(1000)->Arg(10000);

void BM_LinkAllocationStorm(benchmark::State& state) {
  // Water-filling reallocation cost under many concurrent transfers.
  const auto n = static_cast<int>(state.range(0));
  for (auto _ : state) {
    cbs::sim::Simulation sim;
    cbs::net::LinkConfig cfg;
    cfg.base_rate = 1.0e6;
    cfg.per_connection_cap = 0.1e6;
    cfg.noise_sigma = 0.0;
    cfg.setup_latency = 0.0;
    cbs::net::Link link(sim, cfg, cbs::sim::RngStream(1));
    const int slot = link.register_handler(
        [](std::uint64_t, const cbs::net::TransferRecord&) {});
    for (int i = 0; i < n; ++i) {
      sim.schedule_at(static_cast<double>(i) * 0.1,
                      [&link, slot] { link.submit(1.0e5, 2, slot, 0); });
    }
    sim.run();
    benchmark::DoNotOptimize(link.total_bytes_delivered());
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_LinkAllocationStorm)->Arg(64)->Arg(256)->Arg(1024);

void BM_ChunkerSplit(benchmark::State& state) {
  cbs::sim::RngStream rng(9);
  cbs::workload::GroundTruthModel truth({}, rng.substream("t"));
  cbs::workload::PdfChunker chunker({.target_size_mb = 40.0});
  cbs::workload::Document doc;
  doc.doc_id = 1;
  doc.features.size_mb = 300.0;
  doc.features.pages = 250;
  doc.features.num_images = 120;
  std::uint64_t next_id = 1000;
  for (auto _ : state) {
    benchmark::DoNotOptimize(chunker.chunk(doc, truth, &next_id));
  }
}
BENCHMARK(BM_ChunkerSplit);

void BM_OrderlinessStats(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  std::vector<cbs::sla::JobOutcome> outcomes(n);
  cbs::sim::RngStream rng(4);
  for (std::size_t i = 0; i < n; ++i) {
    outcomes[i].seq_id = i + 1;
    outcomes[i].completed = rng.uniform(0.0, 10000.0);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(cbs::sla::compute_orderliness(outcomes, 120.0));
  }
}
BENCHMARK(BM_OrderlinessStats)->Arg(1000)->Arg(10000);

void BM_BandwidthEstimatorTransferSeconds(benchmark::State& state,
                                          double bytes) {
  cbs::net::BandwidthEstimator est(
      {.slots_per_day = 48, .alpha = 0.3, .prior_rate = 1.0e6});
  for (int s = 0; s < 48; ++s) {
    est.observe(static_cast<double>(s) * 1800.0, 0.5e6 + 2.0e4 * s);
  }
  double t = 0.0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(est.estimate_transfer_seconds(t, bytes));
    t += 137.0;
  }
}
// A short transfer: one or two slots.
void BM_BandwidthEstimatorTransferSeconds(benchmark::State& state) {
  BM_BandwidthEstimatorTransferSeconds(state, 3.0e8);
}
BENCHMARK(BM_BandwidthEstimatorTransferSeconds);
// A backlog of more than a week at these rates (about 8e10 bytes a day):
// the walk runs to its 336-slot cap, as estimates do in saturated runs.
BENCHMARK_CAPTURE(BM_BandwidthEstimatorTransferSeconds, week_backlog, 1.0e12);

void BM_FullScenario(benchmark::State& state) {
  for (auto _ : state) {
    auto scenario = cbs::harness::make_scenario(
        cbs::core::SchedulerKind::kOrderPreserving,
        cbs::workload::SizeBucket::kUniform, 42);
    scenario.num_batches = 2;
    benchmark::DoNotOptimize(cbs::harness::run_scenario(scenario));
  }
}
BENCHMARK(BM_FullScenario)->Unit(benchmark::kMillisecond);

void BM_FaultedScenario(benchmark::State& state) {
  // Full run with the fault layer hot: VM crashes on both clusters, EC
  // outage windows, and burst-retraction deadlines (the cancel-heavy path
  // the tombstoning engine exists for).
  for (auto _ : state) {
    auto scenario = cbs::harness::make_scenario(
        cbs::core::SchedulerKind::kOrderPreserving,
        cbs::workload::SizeBucket::kLargeBiased, 1337);
    scenario.num_batches = 2;
    scenario.faults.ec_vm_mtbf = 1200.0;
    scenario.faults.ic_vm_mtbf = 6000.0;
    scenario.faults.retraction_deadline_factor = 3.0;
    scenario.faults.outage_windows = {cbs::sim::OutageWindow{400.0, 240.0},
                                      cbs::sim::OutageWindow{1500.0, 180.0}};
    scenario.log_threshold = cbs::sim::LogLevel::kOff;  // keep stderr clean
    benchmark::DoNotOptimize(cbs::harness::run_scenario(scenario));
  }
}
BENCHMARK(BM_FaultedScenario)->Unit(benchmark::kMillisecond);

void BM_HazardUpdate(benchmark::State& state) {
  // The per-event cost of the resilience layer: a crash observation plus a
  // full settle + per-machine probability sweep (what update_resilience
  // pays at every fault event) over `n` machines.
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto kind = state.range(1) == 0
                        ? cbs::models::HazardPredictorKind::kEwma
                        : cbs::models::HazardPredictorKind::kBayes;
  cbs::models::HazardModelConfig cfg;
  cfg.kind = kind;
  cbs::models::VmHazardEstimator est(cfg, n);
  double now = 0.0;
  std::size_t m = 0;
  for (auto _ : state) {
    now += 37.0;
    est.on_failure(m++ % n, now);
    est.settle(now);
    double acc = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      acc += est.failure_probability(i, now, 600.0);
    }
    benchmark::DoNotOptimize(acc);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_HazardUpdate)
    ->Args({8, 0})
    ->Args({64, 0})
    ->Args({64, 1});

void BM_HazardFaultedScenario(benchmark::State& state) {
  // BM_FaultedScenario with the predictor on: full run cost including
  // hazard updates, drain/undrain sweeps and risk-priced burst decisions.
  for (auto _ : state) {
    auto scenario = cbs::harness::make_scenario(
        cbs::core::SchedulerKind::kOrderPreserving,
        cbs::workload::SizeBucket::kLargeBiased, 1337);
    scenario.num_batches = 2;
    scenario.faults.ec_vm_mtbf = 1200.0;
    scenario.faults.ic_vm_mtbf = 6000.0;
    scenario.faults.retraction_deadline_factor = 3.0;
    scenario.faults.outage_windows = {cbs::sim::OutageWindow{400.0, 240.0},
                                      cbs::sim::OutageWindow{1500.0, 180.0}};
    scenario.resilience.hazard.kind = cbs::models::HazardPredictorKind::kEwma;
    scenario.log_threshold = cbs::sim::LogLevel::kOff;  // keep stderr clean
    benchmark::DoNotOptimize(cbs::harness::run_scenario(scenario));
  }
}
BENCHMARK(BM_HazardFaultedScenario)->Unit(benchmark::kMillisecond);

void BM_SnapshotFork(benchmark::State& state) {
  // Cost of one deep fork of a live mid-run world (engine + controller +
  // every sub-component + pending-event restoration). The lookahead
  // policy pays this once per candidate per decision, so it must stay a
  // small fraction of the horizon roll it enables (BM_LookaheadDecision).
  auto scenario = cbs::harness::make_scenario(
      cbs::core::SchedulerKind::kOrderPreserving,
      cbs::workload::SizeBucket::kUniform, 42);
  scenario.num_batches = 4;
  cbs::harness::ScenarioWorld world(scenario);
  world.run_until(400.0);  // uploads, EC work and probes all in flight
  for (auto _ : state) {
    auto forked = world.fork();
    benchmark::DoNotOptimize(forked->now());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SnapshotFork)->Unit(benchmark::kMicrosecond);

void BM_SnapshotForkAt(benchmark::State& state, std::size_t fork_batch) {
  // One fork of a 200-batch run at stationary load (IC busy, backlog
  // bounded), taken just after batch `fork_batch` arrives. A fork copies
  // live state — jobs in flight, pending events (one batch arrival among
  // them), the QRSM window — and shares the arrival schedule and the full
  // chunks of the outcome history, so the early and the late fork should
  // cost about the same. The gap left is mostly the QRSM window filling.
  auto scenario = cbs::harness::make_scenario(
      cbs::core::SchedulerKind::kOrderPreserving,
      cbs::workload::SizeBucket::kUniform, 42);
  scenario.num_batches = 200;
  scenario.mean_jobs_per_batch = 10.0;
  cbs::harness::ScenarioWorld world(scenario);
  world.run_until(world.batches()[fork_batch].arrival_time + 1.0);
  for (auto _ : state) {
    auto forked = world.fork();
    benchmark::DoNotOptimize(forked->now());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK_CAPTURE(BM_SnapshotForkAt, early, std::size_t{10})
    ->Unit(benchmark::kMicrosecond);
BENCHMARK_CAPTURE(BM_SnapshotForkAt, late, std::size_t{190})
    ->Unit(benchmark::kMicrosecond);

/// The refit table a world's QRSM shares with the world's forks.
cbs::models::QrsmModel::MemoStats memo_stats(
    const cbs::harness::ScenarioWorld& world) {
  const auto* qrsm = dynamic_cast<const cbs::models::QrsmEstimator*>(
      &world.controller().service_estimator());
  return qrsm != nullptr ? qrsm->model().memo_stats()
                         : cbs::models::QrsmModel::MemoStats{};
}

void BM_LookaheadDecision(benchmark::State& state, bool warm) {
  // One full model-predictive decision: fork the world once per candidate,
  // inject the batch, roll each fork 900 s forward and score it. The forks
  // share the parent's QRSM refit table, so a second decision on the same
  // parent reuses every refit the first one stored. `cold` decides on a
  // freshly built world each iteration (built untimed), as a parent's
  // first decision does; `warm` decides on one world again and again, so
  // every refit after the first iteration is a hit. memo_hit_rate is the
  // share of rollout refits found in the table.
  auto scenario = cbs::harness::make_scenario(
      cbs::core::SchedulerKind::kOrderPreserving,
      cbs::workload::SizeBucket::kUniform, 42);
  scenario.num_batches = 4;
  const auto build = [&scenario] {
    auto world = std::make_unique<cbs::harness::ScenarioWorld>(scenario);
    world->run_until(350.0);
    return world;
  };
  cbs::harness::LookaheadController::Config cfg;
  cfg.horizon_seconds = 900.0;
  cfg.candidates = 3;
  const cbs::harness::LookaheadController lookahead(cfg);
  std::unique_ptr<cbs::harness::ScenarioWorld> world = build();
  std::size_t lookups = 0;
  std::size_t hits = 0;
  const auto tally = [&] {
    const cbs::models::QrsmModel::MemoStats stats = memo_stats(*world);
    lookups += stats.lookups;
    hits += stats.hits;
  };
  for (auto _ : state) {
    if (!warm) {
      state.PauseTiming();
      tally();
      world = build();
      state.ResumeTiming();
    }
    // Batch 2 arrives at t=360, still pending.
    benchmark::DoNotOptimize(lookahead.decide(*world, world->batches()[2]));
  }
  tally();
  state.counters["memo_hit_rate"] =
      lookups == 0 ? 0.0
                   : static_cast<double>(hits) / static_cast<double>(lookups);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK_CAPTURE(BM_LookaheadDecision, cold, false)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_LookaheadDecision, warm, true)
    ->Unit(benchmark::kMillisecond);

void BM_ParallelPlan(benchmark::State& state) {
  // The parallel experiment runner on a 6-cell plan (3 seeds x 2
  // schedulers) at 1/2/4 worker threads, timed in wall-clock time (the
  // main thread only waits, so its CPU time says nothing). Six cells
  // cannot balance evenly over 4 threads, and the speedup is bounded by
  // the host's free cores, so this shows the runner's overhead and that
  // threads help — not linear scaling.
  auto base = cbs::harness::make_scenario(
      cbs::core::SchedulerKind::kOrderPreserving,
      cbs::workload::SizeBucket::kUniform, 42);
  base.num_batches = 2;
  const auto plan = cbs::harness::ExperimentPlan::grid(
      {42, 7, 1337},
      {cbs::core::SchedulerKind::kGreedy,
       cbs::core::SchedulerKind::kOrderPreserving},
      {cbs::workload::SizeBucket::kUniform}, base);
  cbs::harness::RunnerOptions opts;
  opts.threads = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    const auto results = cbs::harness::run_plan(plan, opts);
    benchmark::DoNotOptimize(cbs::harness::failed_cells(results));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(plan.cell_count()));
}
BENCHMARK(BM_ParallelPlan)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
