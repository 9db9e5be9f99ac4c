// e2e_scale — the end-to-end cost curve of the saturated regime, and its
// slope gate (ROADMAP item 1).
//
// Runs the full controller path (run_scenario: arrivals, QRSM estimates,
// slack checks, uploads, EC runs, downloads, report) on the cloudburst_sim
// defaults (order-preserving, large bucket, lambda 15, seed 1) at 1000,
// 4000 and 16000 batches. There the IC saturates and the believed upload
// backlog grows all run, so any per-batch cost that grows with the backlog
// shows as a curve that bends upward.
//
// Per size it prints the minimum over 3 runs of process CPU time per batch,
// then the log-log slope of total CPU time from 1000 to 16000 batches
// (1.0 is flat per-batch cost). It exits 1 when the slope is above 1.1.
// The slope is a ratio of two times on one host, so the gate holds on any
// machine; the absolute times are only comparable on the host recorded in
// the JSON.
//
// Usage: e2e_scale [--json out.json]
//   --json writes the curve with the host fingerprint (bench/BENCH_e2e.json
//   is the committed one).

#include <cmath>
#include <cstdio>
#include <cstring>
#include <ctime>
#include <exception>
#include <fstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "harness/cli.hpp"
#include "harness/experiment.hpp"

#ifndef CBS_BUILD_TYPE
#define CBS_BUILD_TYPE "unknown"
#endif

namespace {

constexpr std::size_t kSizes[] = {1000, 4000, 16000};
constexpr int kRepeats = 3;
constexpr double kMaxSlope = 1.1;

struct Point {
  std::size_t batches = 0;
  std::size_t jobs = 0;
  double cpu_seconds = 0.0;  ///< minimum over kRepeats runs
};

double cpu_now_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1.0e-9;
}

cbs::harness::Scenario defaults_at(std::size_t batches) {
  const std::string batches_text = std::to_string(batches);
  const std::vector<const char*> argv = {"e2e_scale", "--batches",
                                         batches_text.c_str(), "--seed", "1"};
  const cbs::harness::cli::Args args(static_cast<int>(argv.size()),
                                     argv.data(),
                                     cbs::harness::cli::scenario_flags());
  return cbs::harness::cli::scenario_from_args(args);
}

Point measure(std::size_t batches) {
  const cbs::harness::Scenario scenario = defaults_at(batches);
  Point p;
  p.batches = batches;
  for (int rep = 0; rep < kRepeats; ++rep) {
    const double t0 = cpu_now_seconds();
    const cbs::harness::RunResult r = cbs::harness::run_scenario(scenario);
    const double seconds = cpu_now_seconds() - t0;
    p.jobs = r.outcomes.size();
    if (rep == 0 || seconds < p.cpu_seconds) p.cpu_seconds = seconds;
  }
  return p;
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos && colon + 2 <= line.size()) {
        return line.substr(colon + 2);
      }
    }
  }
  return "unknown";
}

double us_per_batch(const Point& p) {
  return p.cpu_seconds * 1.0e6 / static_cast<double>(p.batches);
}

void write_json(const std::string& path, const std::vector<Point>& points,
                double slope) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write " + path);
  out << "{\n  \"host\": {\"cpu\": \"" << cpu_model()
      << "\", \"nproc\": " << std::thread::hardware_concurrency()
      << ", \"compiler\": \"" << __VERSION__ << "\", \"build_type\": \""
      << CBS_BUILD_TYPE << "\"},\n";
  out << "  \"scenario\": \"cloudburst_sim defaults, --seed 1\",\n";
  out << "  \"repeats\": " << kRepeats << ",\n";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.3f", slope);
  out << "  \"slope\": " << buf << ",\n  \"max_slope\": " << kMaxSlope
      << ",\n  \"benchmarks\": [\n";
  for (std::size_t i = 0; i < points.size(); ++i) {
    std::snprintf(buf, sizeof buf, "%.1f", us_per_batch(points[i]));
    out << "    {\"name\": \"e2e_scale/" << points[i].batches
        << "\", \"jobs\": " << points[i].jobs << ", \"us_per_batch\": " << buf
        << "}" << (i + 1 < points.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
}

}  // namespace

int main(int argc, char** argv) try {
  std::string json_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    } else {
      std::fprintf(stderr, "usage: e2e_scale [--json out.json]\n");
      return 2;
    }
  }

  std::vector<Point> points;
  for (const std::size_t batches : kSizes) {
    points.push_back(measure(batches));
    const Point& p = points.back();
    std::printf(
        "e2e_scale/%zu: %.1f us/batch  (%zu jobs, %.3f s cpu, min of %d)\n",
        p.batches, us_per_batch(p), p.jobs, p.cpu_seconds, kRepeats);
  }
  const Point& first = points.front();
  const Point& last = points.back();
  const double slope =
      std::log(last.cpu_seconds / first.cpu_seconds) /
      std::log(static_cast<double>(last.batches) /
               static_cast<double>(first.batches));
  const bool flat = slope <= kMaxSlope;
  std::printf("log-log slope %zu -> %zu batches: %.3f (bound %.2f): %s\n",
              first.batches, last.batches, slope, kMaxSlope,
              flat ? "ok" : "FAIL");
  if (!json_path.empty()) write_json(json_path, points, slope);
  return flat ? 0 : 1;
} catch (const std::exception& e) {
  std::fprintf(stderr, "error: %s\n", e.what());
  return 2;
}
