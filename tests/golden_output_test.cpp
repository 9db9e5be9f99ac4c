// Golden-output pins: fixed-seed runs must stay byte-identical across
// refactors of the hot paths (event engine, slack accounting, containers).
// The determinism contract is the repo's hard constraint — any optimisation
// that changes a single byte of these outputs is a behaviour change, not an
// optimisation.
//
// Regenerate the golden files (after an *intentional* behaviour change)
// with: CBS_UPDATE_GOLDEN=1 ./build/tests/golden_output_test
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "harness/cli.hpp"
#include "harness/csv.hpp"
#include "harness/experiment.hpp"
#include "harness/scenario.hpp"
#include "harness/world.hpp"

namespace {

using namespace cbs;

std::string golden_path(const std::string& file) {
  return std::string(CBS_GOLDEN_DIR) + "/" + file;
}

/// The pinned runs: both single-EC schedulers on the uniform workload, and
/// a heavily faulted run (crashes + outages + retraction recovery) so the
/// cancel-heavy event paths are pinned too.
std::vector<harness::RunResult> golden_runs() {
  std::vector<harness::RunResult> out;
  for (const auto kind :
       {core::SchedulerKind::kGreedy, core::SchedulerKind::kOrderPreserving}) {
    auto s = harness::make_scenario(kind, workload::SizeBucket::kUniform, 42);
    s.num_batches = 4;
    out.push_back(harness::run_scenario(s));
  }
  auto faulted = harness::make_scenario(core::SchedulerKind::kOrderPreserving,
                                        workload::SizeBucket::kLargeBiased, 1337);
  faulted.name += "-faulted";
  faulted.num_batches = 4;
  faulted.faults.ec_vm_mtbf = 1200.0;
  faulted.faults.ic_vm_mtbf = 6000.0;
  faulted.faults.retraction_deadline_factor = 3.0;
  faulted.faults.outage_windows = {cbs::sim::OutageWindow{400.0, 240.0},
                                   cbs::sim::OutageWindow{1500.0, 180.0}};
  out.push_back(harness::run_scenario(faulted));
  return out;
}

/// Serializes everything the benches print: the headline report rows plus
/// the per-job completion series of every run (which pins each individual
/// job's completion time and placement, byte for byte).
std::string render(const std::vector<harness::RunResult>& runs) {
  std::ostringstream out;
  harness::csv::write_reports(out, runs);
  for (const auto& r : runs) {
    out << "# completion series: " << r.scenario.name << "\n";
    harness::csv::write_completion_series(out, r);
  }
  return out.str();
}

/// Compares `got` with the committed golden file (or rewrites it when
/// CBS_UPDATE_GOLDEN is set).
void expect_matches_golden(const std::string& got, const std::string& file) {
  const std::string path = golden_path(file);
  if (std::getenv("CBS_UPDATE_GOLDEN") != nullptr) {
    std::ofstream update(path, std::ios::binary);
    ASSERT_TRUE(update) << "cannot write " << path;
    update << got;
    GTEST_SKIP() << "golden file updated: " << path;
  }
  std::ifstream in(path, std::ios::binary);
  ASSERT_TRUE(in) << "missing golden file " << path
                  << " — run with CBS_UPDATE_GOLDEN=1 to create it";
  std::stringstream want;
  want << in.rdbuf();
  EXPECT_EQ(got, want.str())
      << "fixed-seed output drifted from the committed golden file; if the "
         "change is intentional, regenerate with CBS_UPDATE_GOLDEN=1";
}

TEST(GoldenOutput, FixedSeedRunsAreByteIdentical) {
  expect_matches_golden(render(golden_runs()), "reports_fixed_seeds.csv");
}

/// The perfbench lookahead_faults scenario (lookahead scheduler, VM faults
/// on both clusters, EWMA hazard predictor), shortened to 40 batches.
harness::Scenario lookahead_faults_scenario(std::uint64_t seed) {
  const std::string seed_text = std::to_string(seed);
  const std::vector<const char*> argv = {
      "golden",       "--scheduler", "lookahead", "--bucket",
      "uniform",      "--lambda",    "10",        "--batches",
      "40",           "--ic-mtbf",   "7200",      "--ec-mtbf",
      "3600",         "--hazard-predictor",       "ewma",
      "--seed",       seed_text.c_str()};
  const harness::cli::Args args(static_cast<int>(argv.size()), argv.data(),
                                harness::cli::scenario_flags());
  return harness::cli::scenario_from_args(args);
}

/// FNV-1a over the bit patterns of every outcome field, in outcome order.
std::uint64_t outcome_digest(const std::vector<sla::JobOutcome>& outcomes) {
  std::uint64_t h = 14695981039346656037ULL;
  const auto mix = [&h](const void* data, std::size_t n) {
    const auto* bytes = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < n; ++i) {
      h ^= bytes[i];
      h *= 1099511628211ULL;
    }
  };
  for (const auto& o : outcomes) {
    for (const std::uint64_t v :
         {o.seq_id, o.doc_id, static_cast<std::uint64_t>(o.batch_index),
          static_cast<std::uint64_t>(o.placement)}) {
      mix(&v, sizeof v);
    }
    for (const double v : {o.arrival, o.scheduled, o.completed, o.input_mb,
                           o.output_mb, o.true_service_seconds}) {
      std::uint64_t bits = 0;
      std::memcpy(&bits, &v, sizeof bits);
      mix(&bits, sizeof bits);
    }
  }
  return h;
}

/// A lookahead run in full: the outcomes (digest), the engine counters,
/// the committed candidate per batch and every candidate's score as a
/// hex float, so a single changed bit in any rollout score shows.
std::string render_lookahead(std::uint64_t seed) {
  harness::ScenarioWorld world(lookahead_faults_scenario(seed));
  world.run();
  const harness::RunResult r = world.result();
  std::ostringstream out;
  out << "# lookahead_faults flags, --batches 40 --seed " << seed << "\n";
  out << "outcomes " << r.outcomes.size() << " digest " << std::hex
      << outcome_digest(r.outcomes) << std::dec << "\n";
  out << "events_processed " << r.events_processed << " total_scheduled "
      << world.simulation().total_scheduled() << "\n";
  out << "choices";
  for (const auto kind : world.lookahead_choices()) {
    out << " " << core::to_string(kind);
  }
  out << "\n";
  const auto& order = harness::LookaheadController::candidate_order();
  const auto& scores = world.lookahead_scores();
  const std::size_t k = scores.size() / world.lookahead_choices().size();
  for (std::size_t i = 0; i < world.lookahead_choices().size(); ++i) {
    out << "decision " << i;
    for (std::size_t c = 0; c < k; ++c) {
      out << " " << core::to_string(order[c]) << "=" << std::hexfloat
          << scores[i * k + c] << std::defaultfloat;
    }
    out << "\n";
  }
  return out.str();
}

TEST(GoldenOutput, LookaheadFaultsDecisionsAreByteIdentical) {
  expect_matches_golden(render_lookahead(1) + render_lookahead(2),
                        "lookahead_faults_b40.txt");
}

/// The cloudburst_sim defaults (order-preserving, large bucket, lambda 15)
/// at 4000 batches. The IC saturates and the believed upload backlog grows
/// all run, so the slack checks' transfer estimates walk more than a day
/// of bandwidth slots: this pins the long-walk path of
/// BandwidthEstimator::estimate_transfer_seconds.
std::string render_saturated() {
  const std::vector<const char*> argv = {"golden", "--batches", "4000",
                                         "--seed", "1"};
  const harness::cli::Args args(static_cast<int>(argv.size()), argv.data(),
                                harness::cli::scenario_flags());
  const harness::RunResult r =
      harness::run_scenario(harness::cli::scenario_from_args(args));
  std::ostringstream out;
  out << "# cloudburst_sim defaults, --batches 4000 --seed 1\n";
  out << "outcomes " << r.outcomes.size() << " digest " << std::hex
      << outcome_digest(r.outcomes) << std::dec << "\n";
  harness::csv::write_reports(out, {r});
  return out.str();
}

TEST(GoldenOutput, SaturatedDefaultsAreByteIdentical) {
  expect_matches_golden(render_saturated(), "saturated_b4000_seed1.txt");
}

/// The same runs executed twice in-process must agree exactly — catches
/// accidental global mutable state in the hot paths.
TEST(GoldenOutput, RepeatRunsAreBitExact) {
  EXPECT_EQ(render(golden_runs()), render(golden_runs()));
}

}  // namespace
