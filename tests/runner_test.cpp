// Tests for the parallel experiment runner (harness/runner.hpp): plan
// construction, determinism across thread counts, failure isolation,
// result ordering, progress reporting and the aggregation reducers.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <vector>

#include "harness/cli.hpp"
#include "harness/runner.hpp"
#include "harness/scenario.hpp"

namespace {

using namespace cbs;
using core::SchedulerKind;
using workload::SizeBucket;

harness::ExperimentPlan small_grid() {
  harness::Scenario base;
  base.num_batches = 2;  // keep the simulated runs short
  return harness::ExperimentPlan::grid(
      {42, 7}, {SchedulerKind::kGreedy, SchedulerKind::kOrderPreserving},
      {SizeBucket::kUniform}, base);
}

TEST(ExperimentPlanTest, GridIsSeedMajorThenBucketThenScheduler) {
  harness::ExperimentPlan plan = harness::ExperimentPlan::grid(
      {1, 2}, {SchedulerKind::kGreedy, SchedulerKind::kOrderPreserving},
      {SizeBucket::kUniform, SizeBucket::kLargeBiased});
  const auto cells = plan.cells();
  ASSERT_EQ(cells.size(), 8u);
  ASSERT_EQ(plan.cell_count(), 8u);
  // Cell 0: first seed, first bucket, first scheduler.
  EXPECT_EQ(cells[0].scenario.seed, 1u);
  EXPECT_EQ(cells[0].scenario.scheduler, SchedulerKind::kGreedy);
  EXPECT_EQ(cells[0].scenario.bucket, SizeBucket::kUniform);
  // Scheduler is the fastest-moving axis.
  EXPECT_EQ(cells[1].scenario.scheduler, SchedulerKind::kOrderPreserving);
  EXPECT_EQ(cells[1].scenario.bucket, SizeBucket::kUniform);
  // Then the bucket axis.
  EXPECT_EQ(cells[2].scenario.bucket, SizeBucket::kLargeBiased);
  // Seed is the slowest-moving axis.
  EXPECT_EQ(cells[4].scenario.seed, 2u);
  for (std::size_t i = 0; i < cells.size(); ++i) {
    EXPECT_EQ(cells[i].index, i);
    EXPECT_EQ(plan.grid_index(cells[i].seed_index, cells[i].bucket_index,
                              cells[i].scheduler_index),
              i);
  }
  // Names do not embed the seed, so group_by_name folds across seeds.
  EXPECT_EQ(cells[0].scenario.name, cells[4].scenario.name);
}

TEST(ExperimentPlanTest, ExtrasAppendAfterGridWithoutAxes) {
  harness::ExperimentPlan plan = harness::ExperimentPlan::grid(
      {1}, {SchedulerKind::kGreedy}, {SizeBucket::kUniform});
  harness::Scenario extra;
  extra.name = "extra";
  plan.extra.push_back(extra);
  const auto cells = plan.cells();
  ASSERT_EQ(cells.size(), 2u);
  EXPECT_EQ(cells[1].scenario.name, "extra");
  EXPECT_EQ(cells[1].seed_index, harness::PlanCell::kNoAxis);
  EXPECT_EQ(cells[1].scheduler_index, harness::PlanCell::kNoAxis);
}

TEST(ExperimentPlanTest, CustomizeHookSeesCellCoordinates) {
  harness::ExperimentPlan plan = harness::ExperimentPlan::grid(
      {1, 2}, {SchedulerKind::kGreedy}, {SizeBucket::kUniform});
  plan.customize = [](harness::Scenario& s, const harness::PlanCell& cell) {
    s.num_batches = 10 + cell.seed_index;
  };
  const auto cells = plan.cells();
  EXPECT_EQ(cells[0].scenario.num_batches, 10u);
  EXPECT_EQ(cells[1].scenario.num_batches, 11u);
}

// The acceptance property of the whole refactor: a plan executed at 1, 2
// and 8 threads yields bit-identical metrics, because every run is a pure
// function of its scenario.
TEST(RunnerTest, IdenticalResultsAtAnyThreadCount) {
  const harness::ExperimentPlan plan = small_grid();

  auto run_at = [&plan](std::size_t threads) {
    harness::RunnerOptions opts;
    opts.threads = threads;
    return harness::run_plan(plan, opts);
  };
  const auto r1 = run_at(1);
  const auto r2 = run_at(2);
  const auto r8 = run_at(8);

  ASSERT_EQ(r1.size(), plan.cell_count());
  ASSERT_EQ(harness::failed_cells(r1), 0u);
  for (const auto* other : {&r2, &r8}) {
    ASSERT_EQ(other->size(), r1.size());
    for (std::size_t i = 0; i < r1.size(); ++i) {
      const auto& a = *r1[i].result;
      const auto& b = *(*other)[i].result;
      EXPECT_EQ((*other)[i].cell.index, i);
      EXPECT_EQ(a.scenario.name, b.scenario.name);
      EXPECT_EQ(a.outcomes.size(), b.outcomes.size());
      EXPECT_EQ(a.events_processed, b.events_processed);
      EXPECT_EQ(a.report.makespan_seconds, b.report.makespan_seconds);
      EXPECT_EQ(a.report.speedup, b.report.speedup);
      EXPECT_EQ(a.report.oo_time_averaged_mb, b.report.oo_time_averaged_mb);
    }
  }
}

// Lookahead cells fork their world once per candidate per batch, and the
// forks share their parent's QRSM refit table. Every cell builds its own
// world, so no table crosses a thread: under TSan this case checks that.
TEST(RunnerTest, LookaheadCellsOnTwoThreadsMatchOneThread) {
  harness::Scenario base;
  base.num_batches = 8;
  const harness::ExperimentPlan plan = harness::ExperimentPlan::grid(
      {42, 7, 1337, 5}, {SchedulerKind::kLookahead}, {SizeBucket::kUniform},
      base);
  harness::RunnerOptions one;
  one.threads = 1;
  harness::RunnerOptions two;
  two.threads = 2;
  const auto r1 = harness::run_plan(plan, one);
  const auto r2 = harness::run_plan(plan, two);
  ASSERT_EQ(harness::failed_cells(r1), 0u);
  ASSERT_EQ(harness::failed_cells(r2), 0u);
  ASSERT_EQ(r2.size(), r1.size());
  for (std::size_t i = 0; i < r1.size(); ++i) {
    const auto& a = *r1[i].result;
    const auto& b = *r2[i].result;
    EXPECT_EQ(a.outcomes.size(), b.outcomes.size());
    EXPECT_EQ(a.events_processed, b.events_processed);
    EXPECT_EQ(a.report.makespan_seconds, b.report.makespan_seconds);
    EXPECT_EQ(a.cost.cloud_total(), b.cost.cloud_total());
    EXPECT_EQ(a.qrsm_r_squared, b.qrsm_r_squared);
  }
}

// A throwing cell must surface as a failed CellResult with the exception
// text, while its siblings complete normally.
TEST(RunnerTest, ThrowingCellDoesNotAbortSiblings) {
  std::vector<harness::Scenario> list;
  for (int i = 0; i < 6; ++i) {
    harness::Scenario s;
    s.name = i == 3 ? "bad" : "good";
    s.seed = static_cast<std::uint64_t>(i);
    list.push_back(s);
  }
  harness::RunnerOptions opts;
  opts.threads = 4;
  opts.run = [](const harness::Scenario& s) -> harness::RunResult {
    if (s.name == "bad") throw std::runtime_error("injected fault");
    harness::RunResult r;
    r.scenario = s;
    r.sim_end_time = 1.0;
    return r;
  };
  const auto results =
      harness::run_plan(harness::ExperimentPlan::list(list), opts);
  ASSERT_EQ(results.size(), 6u);
  EXPECT_EQ(harness::failed_cells(results), 1u);
  for (std::size_t i = 0; i < results.size(); ++i) {
    if (i == 3) {
      EXPECT_FALSE(results[i].ok());
      EXPECT_EQ(results[i].error, "injected fault");
      EXPECT_FALSE(results[i].result.has_value());
    } else {
      EXPECT_TRUE(results[i].ok());
      EXPECT_EQ(results[i].result->scenario.name, "good");
    }
  }
}

// Result order must follow the plan, not completion: early cells are made
// slow so later cells finish first on a multi-thread pool.
TEST(RunnerTest, ResultOrderIndependentOfCompletionOrder) {
  std::vector<harness::Scenario> list(8);
  for (std::size_t i = 0; i < list.size(); ++i) {
    list[i].seed = i;
    list[i].name = "cell-" + std::to_string(i);
  }
  harness::RunnerOptions opts;
  opts.threads = 4;
  opts.run = [](const harness::Scenario& s) {
    // Earlier cells sleep longer, inverting the completion order.
    std::this_thread::sleep_for(std::chrono::milliseconds(
        static_cast<std::int64_t>(5 * (8 - s.seed))));
    harness::RunResult r;
    r.scenario = s;
    return r;
  };
  const auto results =
      harness::run_plan(harness::ExperimentPlan::list(list), opts);
  ASSERT_EQ(results.size(), list.size());
  for (std::size_t i = 0; i < results.size(); ++i) {
    EXPECT_EQ(results[i].cell.index, i);
    EXPECT_EQ(results[i].result->scenario.name, "cell-" + std::to_string(i));
  }
}

TEST(RunnerTest, ProgressCallbackReportsEveryCellExactlyOnce) {
  std::vector<harness::Scenario> list(5);
  for (std::size_t i = 0; i < list.size(); ++i) list[i].seed = i;
  std::mutex mu;
  std::vector<std::size_t> done_values;
  std::vector<std::size_t> cell_indices;
  harness::RunnerOptions opts;
  opts.threads = 3;
  opts.run = [](const harness::Scenario& s) {
    harness::RunResult r;
    r.scenario = s;
    return r;
  };
  opts.progress = [&](const harness::CellResult& cell, std::size_t done,
                      std::size_t total) {
    std::lock_guard<std::mutex> lock(mu);
    EXPECT_EQ(total, 5u);
    done_values.push_back(done);
    cell_indices.push_back(cell.cell.index);
  };
  const auto results =
      harness::run_plan(harness::ExperimentPlan::list(list), opts);
  ASSERT_EQ(results.size(), 5u);
  ASSERT_EQ(done_values.size(), 5u);
  // done counts 1..total (the callback is serialized under a mutex).
  std::sort(done_values.begin(), done_values.end());
  for (std::size_t i = 0; i < done_values.size(); ++i) {
    EXPECT_EQ(done_values[i], i + 1);
  }
  // Every cell reported exactly once.
  std::sort(cell_indices.begin(), cell_indices.end());
  for (std::size_t i = 0; i < cell_indices.size(); ++i) {
    EXPECT_EQ(cell_indices[i], i);
  }
}

TEST(RunnerTest, ReduceOverSeedsFoldsTheSeedAxis) {
  harness::ExperimentPlan plan = harness::ExperimentPlan::grid(
      {10, 20, 30}, {SchedulerKind::kGreedy, SchedulerKind::kOrderPreserving},
      {SizeBucket::kUniform});
  harness::RunnerOptions opts;
  opts.threads = 2;
  opts.run = [](const harness::Scenario& s) {
    harness::RunResult r;
    r.scenario = s;
    // A fake metric that separates the axes: seed + a scheduler offset.
    r.sim_end_time =
        static_cast<double>(s.seed) +
        (s.scheduler == SchedulerKind::kOrderPreserving ? 1000.0 : 0.0);
    return r;
  };
  const auto results = harness::run_plan(plan, opts);
  const auto matrix = harness::reduce_over_seeds(
      plan, results,
      [](const harness::RunResult& r) { return r.sim_end_time; });
  ASSERT_EQ(matrix.row_labels().size(), 1u);
  ASSERT_EQ(matrix.col_labels().size(), 2u);
  EXPECT_EQ(matrix.cell(0, 0).count(), 3u);
  EXPECT_DOUBLE_EQ(matrix.cell(0, 0).mean(), 20.0);
  EXPECT_DOUBLE_EQ(matrix.cell(0, 1).mean(), 1020.0);
}

TEST(RunnerTest, GroupByNameFoldsSeedsAndKeepsFirstSeenOrder) {
  std::vector<harness::Scenario> list;
  for (const std::uint64_t seed : {1u, 2u, 3u}) {
    for (const char* name : {"alpha", "beta"}) {
      harness::Scenario s;
      s.seed = seed;
      s.name = name;
      list.push_back(s);
    }
  }
  harness::RunnerOptions opts;
  opts.threads = 2;
  opts.run = [](const harness::Scenario& s) {
    harness::RunResult r;
    r.scenario = s;
    r.sim_end_time = static_cast<double>(s.seed);
    return r;
  };
  const auto results =
      harness::run_plan(harness::ExperimentPlan::list(list), opts);
  const auto grouped = harness::group_by_name(
      results, [](const harness::RunResult& r) { return r.sim_end_time; });
  ASSERT_EQ(grouped.keys().size(), 2u);
  EXPECT_EQ(grouped.keys()[0], "alpha");
  EXPECT_EQ(grouped.keys()[1], "beta");
  EXPECT_EQ(grouped.at("alpha").count(), 3u);
  EXPECT_DOUBLE_EQ(grouped.at("alpha").mean(), 2.0);
}

TEST(RunnerTest, LastSeedResultsPicksTheFinalSeedRow) {
  harness::ExperimentPlan plan = harness::ExperimentPlan::grid(
      {10, 20}, {SchedulerKind::kGreedy, SchedulerKind::kOrderPreserving},
      {SizeBucket::kUniform});
  harness::RunnerOptions opts;
  opts.run = [](const harness::Scenario& s) {
    harness::RunResult r;
    r.scenario = s;
    return r;
  };
  const auto results = harness::run_plan(plan, opts);
  const auto last = harness::last_seed_results(plan, results);
  ASSERT_EQ(last.size(), 2u);
  EXPECT_EQ(last[0].scenario.seed, 20u);
  EXPECT_EQ(last[1].scenario.seed, 20u);
  EXPECT_EQ(last[0].scenario.scheduler, SchedulerKind::kGreedy);
  EXPECT_EQ(last[1].scenario.scheduler, SchedulerKind::kOrderPreserving);
}

TEST(CliSeedsTest, ParseSeedListAndFallback) {
  EXPECT_EQ(harness::cli::parse_seed_list("1,2,42"),
            (std::vector<std::uint64_t>{1, 2, 42}));
  EXPECT_THROW(harness::cli::parse_seed_list("1,,2"), std::runtime_error);
  EXPECT_THROW(harness::cli::parse_seed_list("abc"), std::invalid_argument);

  const char* argv1[] = {"prog", "--seeds", "5,6"};
  harness::cli::Args with(3, const_cast<char**>(argv1),
                          harness::cli::scenario_flags());
  EXPECT_EQ(harness::cli::seeds_from_args(with, {1, 2, 3}),
            (std::vector<std::uint64_t>{5, 6}));

  const char* argv2[] = {"prog"};
  harness::cli::Args without(1, const_cast<char**>(argv2),
                             harness::cli::scenario_flags());
  EXPECT_EQ(harness::cli::seeds_from_args(without, {1, 2, 3}),
            (std::vector<std::uint64_t>{1, 2, 3}));
}

TEST(CliSeedsTest, ThreadsFlagDefaultsToZero) {
  const char* argv1[] = {"prog", "--threads", "4"};
  harness::cli::Args with(3, const_cast<char**>(argv1),
                          harness::cli::scenario_flags());
  EXPECT_EQ(harness::cli::threads_from_args(with), 4u);

  const char* argv2[] = {"prog"};
  harness::cli::Args without(1, const_cast<char**>(argv2),
                             harness::cli::scenario_flags());
  EXPECT_EQ(harness::cli::threads_from_args(without), 0u);
}

}  // namespace
