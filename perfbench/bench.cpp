// End-to-end benchmark program for the cloud-bursting simulator.
//
// Runs one workload through the harness's public API (ScenarioWorld,
// run_scenario and the sla:: reports it returns) for a fixed host-time
// window and prints one JSON line of measurements and check results.
// Every scenario run happens in a forked child process, so an assert
// abort inside the simulator is counted as a failed run instead of ending
// the benchmark. run.py builds this program and turns its line into the
// benchmark's result; README.md describes the metrics.
//
//   perfbench --mode single|grid --seed N --seconds S [--quarter-only]
//             [--grid-seeds K --buckets a,b,.. --schedulers x,y,..]
//             -- <cloudburst_sim scenario flags>

#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <functional>
#include <numeric>
#include <limits>
#include <map>
#include <memory>
#include <queue>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <vector>

#include "harness/cli.hpp"
#include "harness/experiment.hpp"
#include "harness/scenario.hpp"
#include "harness/world.hpp"
#include "trace.hpp"

namespace {

namespace harness = cbs::harness;
using Clock = std::chrono::steady_clock;
using perfbench::trace::Span;
namespace trace = perfbench::trace;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// ---------------------------------------------------------------------------
// Output digests: FNV-1a over every field, so two runs agree on a digest
// only when their outcomes (and SLA outputs) are bit-identical.

class Digest {
 public:
  template <class T>
  void add(const T& value) {
    static_assert(std::is_trivially_copyable_v<T>);
    unsigned char bytes[sizeof(T)];
    std::memcpy(bytes, &value, sizeof(T));
    for (const unsigned char b : bytes) {
      hash_ = (hash_ ^ b) * 1099511628211ULL;
    }
  }
  [[nodiscard]] std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = 1469598103934665603ULL;
};

std::uint64_t outcome_digest(const std::vector<cbs::sla::JobOutcome>& outcomes) {
  Digest d;
  for (const auto& o : outcomes) {
    d.add(o.seq_id);
    d.add(o.doc_id);
    d.add(o.batch_index);
    d.add(o.arrival);
    d.add(o.scheduled);
    d.add(o.completed);
    d.add(o.input_mb);
    d.add(o.output_mb);
    d.add(o.true_service_seconds);
    d.add(o.placement);
  }
  return d.value();
}

std::uint64_t result_digest(const harness::RunResult& r) {
  Digest d;
  d.add(outcome_digest(r.outcomes));
  const cbs::sla::SlaReport& s = r.report;
  for (const double v :
       {s.makespan_seconds, s.speedup, s.ic_utilization, s.ec_utilization,
        s.burst_ratio, s.mean_turnaround_seconds, s.oo_final_mb,
        s.oo_time_averaged_mb, r.tickets.hit_rate, r.tickets.max_lateness,
        r.tickets.mean_lateness, r.tickets.p95_lateness, r.cost.ec_compute,
        r.cost.egress, r.cost.ingress, r.cost.storage, r.cost.ic_amortized,
        r.sim_end_time}) {
    d.add(v);
  }
  d.add(r.events_processed);
  return d.value();
}

// ---------------------------------------------------------------------------
// One scenario run, as measured inside a child process.

struct Record {
  double setup_s = 0.0;  ///< fastest ScenarioWorld construction in the run
  double total_s = 0.0;  ///< construction + run + result of the measured world
  std::uint64_t jobs = 0;
  std::uint64_t events = 0;  ///< committed events (RunResult)
  std::uint64_t outcomes = 0;  ///< outcome digest
  std::uint64_t digest = 0;    ///< outcome + SLA output digest
  double ticket_hit_rate = 0.0;
  double makespan_s = 0.0;
  double cloud_usd = 0.0;
  double oo_avg_mb = 0.0;
  double wasted_byte_frac = 0.0;
  double store_retry_frac = 0.0;
  double reexec_frac = 0.0;
  double wasted_compute_frac = 0.0;
  double peak_rss_mb = 0.0;  ///< peak resident growth over the run's start
  double calibration_s = 0.0;  ///< calibrate() before and after, mean (0: none)
  trace::Totals trace{};
  std::uint32_t steps = 0;  ///< step times (ms) follow the record
  char error[256] = {};
};
static_assert(std::is_trivially_copyable_v<Record>);

void fill_outputs(const harness::RunResult& r, Record& rec) {
  rec.jobs = r.outcomes.size();
  rec.events = r.events_processed;
  rec.outcomes = outcome_digest(r.outcomes);
  rec.digest = result_digest(r);
  rec.ticket_hit_rate = r.tickets.hit_rate;
  rec.makespan_s = r.report.makespan_seconds;
  rec.cloud_usd = r.cost.cloud_total();
  rec.oo_avg_mb = r.report.oo_time_averaged_mb;
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

// Waste ratios of the net and compute layers (zero on fault-free runs).
void fill_waste(const harness::ScenarioWorld& world,
                const harness::RunResult& r, Record& rec) {
  const auto& c = world.controller();
  const double wasted_bytes = c.uplink().wasted_bytes() + c.downlink().wasted_bytes();
  rec.wasted_byte_frac =
      ratio(wasted_bytes, wasted_bytes + c.uplink().total_bytes_delivered() +
                              c.downlink().total_bytes_delivered());
  double useful = 0.0;
  std::size_t bursted = 0;
  for (const auto& o : r.outcomes) {
    useful += o.true_service_seconds;
    bursted += o.bursted() ? 1 : 0;
  }
  rec.store_retry_frac = ratio(static_cast<double>(r.faults.store_retries),
                               static_cast<double>(bursted));
  rec.reexec_frac = ratio(static_cast<double>(r.faults.reexecutions),
                          static_cast<double>(r.outcomes.size()));
  rec.wasted_compute_frac = ratio(r.faults.wasted_compute_seconds,
                                  useful + r.faults.wasted_compute_seconds);
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// Nearest-rank percentile.
double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(p / 100.0 * static_cast<double>(v.size())));
  return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

// Extra worlds built before the measured one of a full-length run, so
// set-up time is measured several times per run.
constexpr int kSetupReps = 4;

// Builds `reps` extra worlds before the measured one.
void timed_setups(const harness::Scenario& s, int reps,
                  std::vector<double>& times) {
  for (int i = 0; i < reps; ++i) {
    const auto t0 = Clock::now();
    const harness::ScenarioWorld world(s);
    times.push_back(seconds_since(t0));
  }
}

// ---------------------------------------------------------------------------
// Host-speed calibration. On shared hosts the speed of identical work
// drifts by a third over seconds to minutes (other tenants). A fixed
// kernel timed next to every run tracks that drift: every host time is
// reported scaled to a host on which the kernel takes kCalibrationRefS.
// The kernel is this file's own code, so no change to src/ can move it.

constexpr double kCalibrationRefS = 0.015;
volatile double g_calibration_sink = 0.0;

double calibrate() {
  constexpr std::size_t kRows = 4096;
  constexpr std::size_t kCols = 28;
  static const std::vector<double> x = [] {
    std::vector<double> v(kRows * kCols);
    std::uint64_t state = 88172645463325252ULL;
    for (double& e : v) {
      state ^= state << 13;
      state ^= state >> 7;
      state ^= state << 17;
      e = static_cast<double>(state % 1000) / 7.0;
    }
    return v;
  }();
  const auto t0 = Clock::now();
  double acc = 0.0;
  // The shape of a QRSM refit: a streaming Gram product over a full window.
  for (int rep = 0; rep < 8; ++rep) {
    std::vector<double> g(kCols * kCols, 0.0);
    for (std::size_t r = 0; r < kRows; ++r) {
      const double* row = &x[r * kCols];
      for (std::size_t i = 0; i < kCols; ++i) {
        for (std::size_t j = i; j < kCols; ++j) g[i * kCols + j] += row[i] * row[j];
      }
    }
    acc += g[kCols + 1];
  }
  // The shape of the event queue: a binary heap, then a sort.
  std::vector<double> keys(x.begin(), x.begin() + 40000);
  std::priority_queue<double, std::vector<double>, std::greater<>> heap;
  for (std::size_t i = 0; i < keys.size(); ++i) {
    heap.push(keys[i]);
    if (i % 2 == 0) heap.pop();
  }
  std::sort(keys.begin(), keys.end());
  g_calibration_sink = acc + heap.top() + keys[keys.size() / 2];
  return seconds_since(t0);
}

/// run_scenario as the figure benches call it: the reference outcome.
void run_reference(const harness::Scenario& s, Record& rec, std::vector<double>&) {
  const double before = calibrate();
  {
    const auto t0 = Clock::now();
    const harness::RunResult r = harness::run_scenario(s);
    rec.total_s = seconds_since(t0);
    fill_outputs(r, rec);
  }
  rec.calibration_s = 0.5 * (before + calibrate());
}

/// The same scenario driven one batch interval at a time: every batch
/// arrival is a boundary of ScenarioWorld::run_until, then run() drains
/// the backlog. Steps are the host milliseconds of each run_until call.
void run_sliced_world(const harness::Scenario& s, int setup_reps, Record& rec,
                      std::vector<double>& steps) {
  std::vector<double> setups;
  timed_setups(s, setup_reps, setups);
  trace::reset();  // the traced totals cover the measured world only

  const auto t0 = Clock::now();
  std::unique_ptr<harness::ScenarioWorld> world;
  {
    const Span span(trace::kHarnessBuild);
    world = std::make_unique<harness::ScenarioWorld>(s);
  }
  setups.push_back(seconds_since(t0));
  rec.setup_s = *std::min_element(setups.begin(), setups.end());

  steps.reserve(world->batches().size());
  for (const auto& batch : world->batches()) {
    const auto step0 = Clock::now();
    world->run_until(batch.arrival_time);
    steps.push_back(1e3 * seconds_since(step0));
  }
  world->run();
  harness::RunResult r;
  {
    const Span span(trace::kHarnessResult);
    r = world->result();
  }
  rec.total_s = seconds_since(t0);
  fill_outputs(r, rec);
  fill_waste(*world, r, rec);
}

/// run_sliced_world between two calibrations.
void run_sliced(const harness::Scenario& s, int setup_reps, Record& rec,
                std::vector<double>& steps) {
  const double before = calibrate();
  run_sliced_world(s, setup_reps, rec, steps);
  rec.calibration_s = 0.5 * (before + calibrate());
}

/// One grid cell: build, run to completion, result. The cell is the step.
void run_cell(const harness::Scenario& s, Record& rec, std::vector<double>&) {
  const auto t0 = Clock::now();
  std::unique_ptr<harness::ScenarioWorld> world;
  {
    const Span span(trace::kHarnessBuild);
    world = std::make_unique<harness::ScenarioWorld>(s);
  }
  rec.setup_s = seconds_since(t0);
  world->run();
  harness::RunResult r;
  {
    const Span span(trace::kHarnessResult);
    r = world->result();
  }
  rec.total_s = seconds_since(t0);
  fill_outputs(r, rec);
  fill_waste(*world, r, rec);
}

// ---------------------------------------------------------------------------
// Process isolation.

struct ChildResult {
  bool ok = false;
  std::string failure;  ///< why not ok: signal, exception or bad exit
  Record rec{};
  std::vector<double> steps;
  double scale = 1.0;  ///< host-speed factor from the calibrations around it
};

void write_all(int fd, const void* data, std::size_t size) {
  const auto* p = static_cast<const char*>(data);
  while (size > 0) {
    const ssize_t n = ::write(fd, p, size);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) _exit(4);
    p += n;
    size -= static_cast<std::size_t>(n);
  }
}

double resident_kb() {
  long pages = 0;
  long resident = 0;
  if (std::FILE* f = std::fopen("/proc/self/statm", "r")) {
    if (std::fscanf(f, "%ld %ld", &pages, &resident) != 2) resident = 0;
    std::fclose(f);
  }
  return static_cast<double>(resident) * static_cast<double>(::sysconf(_SC_PAGESIZE)) / 1024.0;
}

template <class Fn>
ChildResult in_child(Fn&& fn) {
  int fds[2];
  if (::pipe(fds) != 0) throw std::runtime_error("pipe failed");
  std::fflush(stdout);
  std::fflush(stderr);
  const pid_t pid = ::fork();
  if (pid < 0) throw std::runtime_error("fork failed");
  if (pid == 0) {
    ::close(fds[0]);
    Record rec{};
    std::vector<double> steps;
    int code = 0;
    try {
      trace::reset();
      // A forked child starts with its parent's pages resident (and its
      // high-water mark reset to them), so memory is measured as growth.
      const double start_kb = resident_kb();
      fn(rec, steps);
      rusage usage{};
      ::getrusage(RUSAGE_SELF, &usage);
      rec.peak_rss_mb = (static_cast<double>(usage.ru_maxrss) - start_kb) / 1024.0;
      rec.trace = trace::totals();
      rec.steps = static_cast<std::uint32_t>(steps.size());
    } catch (const std::exception& e) {
      std::snprintf(rec.error, sizeof rec.error, "%s", e.what());
      steps.clear();
      code = 3;
    }
    write_all(fds[1], &rec, sizeof rec);
    write_all(fds[1], steps.data(), steps.size() * sizeof(double));
    ::close(fds[1]);
    _exit(code);
  }
  ::close(fds[1]);
  std::string bytes;
  char buf[65536];
  for (;;) {
    const ssize_t n = ::read(fds[0], buf, sizeof buf);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;
    bytes.append(buf, static_cast<std::size_t>(n));
  }
  ::close(fds[0]);
  int status = 0;
  while (::waitpid(pid, &status, 0) < 0 && errno == EINTR) {
  }

  ChildResult out;
  if (bytes.size() >= sizeof(Record)) std::memcpy(&out.rec, bytes.data(), sizeof(Record));
  if (WIFSIGNALED(status)) {
    const int sig = WTERMSIG(status);
    out.failure = std::string("killed by signal ") + std::to_string(sig) +
                  (sig == SIGABRT ? " (SIGABRT: assert)" : "");
  } else if (WEXITSTATUS(status) == 3) {
    out.failure = std::string("threw: ") + out.rec.error;
  } else if (WEXITSTATUS(status) != 0 ||
             bytes.size() != sizeof(Record) + out.rec.steps * sizeof(double)) {
    out.failure = "exit status " + std::to_string(WEXITSTATUS(status));
  } else {
    out.ok = true;
    out.steps.resize(out.rec.steps);
    std::memcpy(out.steps.data(), bytes.data() + sizeof(Record),
                out.steps.size() * sizeof(double));
  }
  return out;
}

// ---------------------------------------------------------------------------
// JSON output.

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string hex(std::uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

struct Metric {
  double value = 0.0;
  std::string unit;
  std::size_t samples = 0;
};

struct Outcome {
  bool correct = true;
  std::vector<std::string> errors;
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::vector<std::string> failures;
  std::string digest;          ///< full-length outputs
  std::string quarter_digest;  ///< quarter-length outputs
  std::map<std::string, Metric> metrics;
  std::map<std::string, Metric> layers;

  void fail(const std::string& why) {
    correct = false;
    errors.push_back(why);
  }
  void count(const ChildResult& c, const std::string& what) {
    ++attempted;
    if (!c.ok) {
      ++failed;
      failures.push_back(what + ": " + c.failure);
    }
  }
};

void print(const Outcome& o) {
  auto metric_map = [](const std::map<std::string, Metric>& m) {
    std::string s = "{";
    for (const auto& [name, metric] : m) {
      if (s.size() > 1) s += ",";
      s += json_string(name) + ":{\"value\":" + json_number(metric.value) +
           ",\"unit\":" + json_string(metric.unit) +
           ",\"samples\":" + std::to_string(metric.samples) + "}";
    }
    return s + "}";
  };
  auto string_list = [](const std::vector<std::string>& v) {
    std::string s = "[";
    for (const auto& e : v) s += (s.size() > 1 ? "," : "") + json_string(e);
    return s + "]";
  };
  std::string line = "{\"correct\":" + std::string(o.correct ? "true" : "false");
  line += ",\"errors\":" + string_list(o.errors);
  line += ",\"attempted\":" + std::to_string(o.attempted);
  line += ",\"failed\":" + std::to_string(o.failed);
  line += ",\"failures\":" + string_list(o.failures);
  line += ",\"digest\":" + json_string(o.digest);
  line += ",\"quarter_digest\":" + json_string(o.quarter_digest);
  line += ",\"traced\":" + std::string(trace::kEnabled ? "true" : "false");
  line += ",\"compiler\":" + json_string("g++ " __VERSION__);
  line += ",\"build_type\":" + json_string(CBS_PERFBENCH_BUILD_TYPE);
  line += ",\"metrics\":" + metric_map(o.metrics);
  line += ",\"layers\":" + metric_map(o.layers) + "}";
  std::printf("%s\n", line.c_str());
}

// Per-layer numbers from the traced runs, per scenario run (per cell on
// the grid): self seconds and call counts at each interposed boundary.
void add_layers(const std::vector<const Record*>& runs, Outcome& out) {
  if (!trace::kEnabled || runs.empty()) return;
  const auto n = static_cast<double>(runs.size());
  trace::Totals sum;
  double committed = 0.0;
  double waste[4] = {0.0, 0.0, 0.0, 0.0};
  for (const Record* r : runs) {
    for (int k = 0; k < trace::kKindCount; ++k) {
      sum.calls[k] += r->trace.calls[k];
      sum.self_ns[k] += r->trace.self_ns[k];
    }
    sum.forks += r->trace.forks;
    sum.slack_checks += r->trace.slack_checks;
    sum.events += r->trace.events;
    sum.rollout_events += r->trace.rollout_events;
    committed += static_cast<double>(r->events);
    waste[0] += r->wasted_byte_frac;
    waste[1] += r->store_retry_frac;
    waste[2] += r->reexec_frac;
    waste[3] += r->wasted_compute_frac;
  }
  const std::size_t samples = runs.size();
  auto put = [&](const std::string& name, double value, const char* unit) {
    out.layers[name] = Metric{value, unit, samples};
  };
  auto self_s = [&](trace::Kind k) { return 1e-9 * static_cast<double>(sum.self_ns[k]) / n; };
  auto calls = [&](trace::Kind k) { return static_cast<double>(sum.calls[k]) / n; };
  auto timed = [&](const std::string& name, trace::Kind k) {
    put(name + "_calls", calls(k), "count");
    put(name + "_s", self_s(k), "s");
  };
  put("harness.build_s", self_s(trace::kHarnessBuild), "s");
  put("harness.fork_calls", static_cast<double>(sum.forks) / n, "count");
  put("harness.fork_s", self_s(trace::kHarnessFork), "s");
  put("harness.rollout_event_ratio",
      ratio(static_cast<double>(sum.rollout_events), committed), "ratio");
  put("harness.result_s", self_s(trace::kHarnessResult), "s");
  put("workload.generate_s", self_s(trace::kWorkloadGenerate), "s");
  timed("models.qrsm_observe", trace::kModelsObserve);
  timed("models.qrsm_predict", trace::kModelsPredict);
  put("models.pretrain_s", self_s(trace::kModelsPretrain), "s");
  timed("models.hazard", trace::kModelsHazard);
  timed("linalg.solve", trace::kLinalgSolve);
  put("linalg.gram_s", self_s(trace::kLinalgGram), "s");
  timed("sla.oo_series", trace::kSlaOoSeries);
  put("sla.report_s", self_s(trace::kSlaReport), "s");
  put("sla.validate_s", self_s(trace::kSlaValidate), "s");
  timed("core.admit", trace::kCoreAdmit);
  timed("core.belief", trace::kCoreBelief);
  put("core.slack_checks", static_cast<double>(sum.slack_checks) / n, "count");
  timed("net.link", trace::kNetLink);
  timed("net.bw_estimate", trace::kNetBwEstimate);
  put("net.wasted_byte_frac", waste[0] / n, "ratio");
  timed("compute.mapreduce", trace::kComputeMapReduce);
  put("compute.store_retry_frac", waste[1] / n, "ratio");
  put("compute.reexec_frac", waste[2] / n, "ratio");
  put("compute.wasted_compute_frac", waste[3] / n, "ratio");
  put("simcore.events", static_cast<double>(sum.events) / n, "count");
  put("simcore.queue_ops", calls(trace::kSimcoreQueue), "count");
  put("simcore.queue_s", self_s(trace::kSimcoreQueue), "s");
  put("other.self_s", self_s(trace::kRunLoop), "s");
}

// ---------------------------------------------------------------------------
// Workloads.

struct Options {
  std::string mode;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool quarter_only = false;
  std::uint64_t grid_seeds = 20;
  std::vector<std::string> buckets;
  std::vector<std::string> schedulers;
  std::vector<std::string> scenario_flags;
};

std::vector<std::string> split_csv(const std::string& csv) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (start <= csv.size()) {
    const std::size_t comma = std::min(csv.find(',', start), csv.size());
    if (comma > start) out.push_back(csv.substr(start, comma - start));
    start = comma + 1;
  }
  return out;
}

Options parse_options(int argc, char** argv) {
  Options o;
  int i = 1;
  auto value = [&](const std::string& flag) -> std::string {
    if (i + 1 >= argc) throw std::runtime_error(flag + " needs a value");
    return argv[++i];
  };
  for (; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--") {
      o.scenario_flags.assign(argv + i + 1, argv + argc);
      break;
    }
    if (a == "--mode") o.mode = value(a);
    else if (a == "--seed") o.seed = std::stoull(value(a));
    else if (a == "--seconds") o.seconds = std::stod(value(a));
    else if (a == "--quarter-only") o.quarter_only = true;
    else if (a == "--grid-seeds") o.grid_seeds = std::stoull(value(a));
    else if (a == "--buckets") o.buckets = split_csv(value(a));
    else if (a == "--schedulers") o.schedulers = split_csv(value(a));
    else throw std::runtime_error("unknown flag " + a);
  }
  if (o.mode != "single" && o.mode != "grid") {
    throw std::runtime_error("--mode must be single or grid");
  }
  if (o.mode == "grid" && (o.buckets.empty() || o.schedulers.empty() ||
                           o.grid_seeds == 0)) {
    throw std::runtime_error("grid mode needs --buckets, --schedulers, --grid-seeds");
  }
  return o;
}

harness::Scenario base_scenario(const Options& o) {
  std::vector<const char*> argv = {"perfbench"};
  for (const auto& f : o.scenario_flags) argv.push_back(f.c_str());
  const harness::cli::Args args(static_cast<int>(argv.size()), argv.data(),
                                harness::cli::scenario_flags());
  harness::Scenario s = harness::cli::scenario_from_args(args);
  if (s.num_batches % 4 != 0) {
    throw std::runtime_error("--batches must be a multiple of 4 (cost_slope)");
  }
  return s;
}

void put_sla(Outcome& out, double hit, double makespan, double usd, double oo,
             std::size_t samples) {
  out.metrics["sla_ticket_hit_rate"] = {hit, "ratio", samples};
  out.metrics["sla_makespan_s"] = {makespan, "s", samples};
  out.metrics["sla_cloud_usd"] = {usd, "usd", samples};
  out.metrics["sla_oo_avg_mb"] = {oo, "MB", samples};
}

// Per-step median over repetitions of one run (steps align by index).
std::vector<double> median_by_index(const std::vector<std::vector<double>>& runs) {
  std::vector<double> out;
  if (runs.empty()) return out;
  std::size_t steps = runs.front().size();
  for (const auto& r : runs) steps = std::min(steps, r.size());
  std::vector<double> column;
  for (std::size_t i = 0; i < steps; ++i) {
    column.clear();
    for (const auto& r : runs) column.push_back(r[i]);
    out.push_back(median(column));
  }
  return out;
}

double cost_slope(double full_s, double quarter_s) {
  return std::log(full_s / quarter_s) / std::log(4.0);
}

// The host-time metrics, under `prefix` ("" scaled, "raw." unscaled).
void put_timings(Outcome& out, const std::string& prefix, double jobs_per_s,
                 double events_per_s, std::size_t runs,
                 const std::vector<double>& steps_ms, double setup_s,
                 std::size_t setups, double slope, std::size_t slope_runs) {
  auto& m = out.metrics;
  m[prefix + "jobs_per_s"] = {jobs_per_s, "1/s", runs};
  m[prefix + "events_per_s"] = {events_per_s, "1/s", runs};
  const double mean = steps_ms.empty() ? 0.0
      : std::accumulate(steps_ms.begin(), steps_ms.end(), 0.0) /
            static_cast<double>(steps_ms.size());
  m[prefix + "step_ms_mean"] = {mean, "ms", steps_ms.size()};
  m[prefix + "step_ms_p50"] = {percentile(steps_ms, 50), "ms", steps_ms.size()};
  m[prefix + "step_ms_p99"] = {percentile(steps_ms, 99), "ms", steps_ms.size()};
  m[prefix + "setup_s"] = {setup_s, "s", setups};
  m[prefix + "cost_slope"] = {slope, "ratio", slope_runs};
}

// SLA outputs of a single-scenario workload are means over this many
// scenario seeds (4n+1 .. 4n+4 for --seed n); the timed runs use 4n+1.
// One seed's bill or ticket rate swings by a quarter between seeds on the
// faulted workload; the mean of four halves that.
constexpr std::uint64_t kSlaSeeds = 4;

Outcome run_single(const Options& o, harness::Scenario full) {
  Outcome out;
  full.seed = o.seed * kSlaSeeds + 1;
  harness::Scenario quarter = full;
  quarter.num_batches = full.num_batches / 4;
  auto sliced = [](const harness::Scenario& s, int setup_reps) {
    return [&s, setup_reps](Record& r, std::vector<double>& steps) {
      run_sliced(s, setup_reps, r, steps);
    };
  };

  if (o.quarter_only) {
    const ChildResult q = in_child(sliced(quarter, 0));
    out.count(q, "quarter");
    if (!q.ok) out.fail("quarter-length run failed: " + q.failure);
    out.quarter_digest = hex(q.rec.digest);
    return out;
  }

  // Each run calibrates before and after itself (run_sliced,
  // run_reference); its host times are scaled by the mean of the two.
  // The first call here builds the kernel's input before any fork, so no
  // run counts it in its memory.
  calibrate();
  std::vector<double> calibrations;
  auto measured = [&](auto&& fn) {
    ChildResult c = in_child(fn);
    if (c.ok) {
      c.scale = kCalibrationRefS / c.rec.calibration_s;
      calibrations.push_back(c.rec.calibration_s);
    }
    return c;
  };

  const auto start = Clock::now();
  const ChildResult ref = measured([&full](Record& r, std::vector<double>& s) {
    run_reference(full, r, s);
  });
  out.count(ref, "run_scenario");
  std::vector<ChildResult> sla_runs = {ref};
  for (std::uint64_t k = 1; k < kSlaSeeds; ++k) {
    harness::Scenario other = full;
    other.seed = full.seed + k;
    sla_runs.push_back(in_child([&other](Record& r, std::vector<double>& s) {
      run_reference(other, r, s);
    }));
    out.count(sla_runs.back(), "run_scenario seed " + std::to_string(other.seed));
  }
  std::vector<ChildResult> fulls;
  std::vector<ChildResult> quarters;
  while (fulls.size() < 2 || seconds_since(start) < o.seconds) {
    fulls.push_back(measured(sliced(full, kSetupReps)));
    quarters.push_back(measured(sliced(quarter, 0)));
  }
  // The sliced runs are counted once each, so attempted and failed depend
  // on the seed alone, not on how many repetitions fit in the window.
  out.count(fulls.front(), "sliced full");
  out.count(quarters.front(), "sliced quarter");

  // Output checks (run.py rejects any failed run on this workload).
  for (const auto& f : fulls) {
    if (f.ok && ref.ok && f.rec.outcomes != ref.rec.outcomes) {
      out.fail("sliced run outcomes differ from run_scenario");
    } else if (f.ok && ref.ok && f.rec.digest != ref.rec.digest) {
      out.fail("sliced run SLA outputs differ from run_scenario");
    }
  }
  for (const auto& f : fulls) {
    if (f.ok != fulls.front().ok) out.fail("sliced full-length runs fail in some repetitions");
  }
  for (const auto& q : quarters) {
    if (q.ok != quarters.front().ok) {
      out.fail("sliced quarter-length runs fail in some repetitions");
    }
    if (q.ok && quarters.front().ok && q.rec.digest != quarters.front().rec.digest) {
      out.fail("quarter-length outputs do not repeat");
    }
  }
  out.digest = hex(ref.rec.digest);
  out.quarter_digest = hex(quarters.front().rec.digest);

  // Every repetition does identical work (the digests above prove it).
  // Each unit of work — the run, each step, a set-up — is reported as the
  // median over the repetitions in the window of its calibrated time.
  std::size_t full_reps = 0;
  std::size_t quarter_reps = 0;
  std::vector<const Record*> traced;
  for (const auto& f : fulls) {
    if (!f.ok) continue;
    ++full_reps;
    traced.push_back(&f.rec);
  }
  for (const auto& q : quarters) quarter_reps += q.ok ? 1 : 0;
  auto timings = [&](bool scaled, const std::string& prefix) {
    auto t = [scaled](const ChildResult& c, double seconds) {
      return scaled ? seconds * c.scale : seconds;
    };
    std::vector<double> full_s, quarter_s, setups;
    std::vector<std::vector<double>> step_runs;
    if (ref.ok) full_s.push_back(t(ref, ref.rec.total_s));
    for (const auto& f : fulls) {
      if (!f.ok) continue;
      full_s.push_back(t(f, f.rec.total_s));
      setups.push_back(t(f, f.rec.setup_s));
      step_runs.push_back(f.steps);
      for (double& step : step_runs.back()) step = t(f, step);
    }
    for (const auto& q : quarters) {
      if (q.ok) quarter_s.push_back(t(q, q.rec.total_s));
    }
    const double full = median(full_s);
    put_timings(out, prefix, static_cast<double>(ref.rec.jobs) / full,
                static_cast<double>(ref.rec.events) / full, full_s.size(),
                median_by_index(step_runs), median(setups),
                setups.size() * (kSetupReps + 1),
                cost_slope(full, median(quarter_s)), full_s.size() + quarter_s.size());
  };
  timings(true, "");
  timings(false, "raw.");
  auto& m = out.metrics;
  // Memory from the run_scenario children: each builds one world in a
  // fresh process, where the timed runs also build the set-up worlds.
  std::vector<double> rss;
  for (const auto& r : sla_runs) rss.push_back(r.rec.peak_rss_mb);
  m["peak_rss_mb"] = {median(rss), "MB", rss.size()};
  m["ok_frac"] = {1.0 - ratio(static_cast<double>(out.failed),
                              static_cast<double>(out.attempted)),
                  "ratio", out.attempted};
  m["raw.calibration_ms"] = {1e3 * median(calibrations), "ms", calibrations.size()};
  double hit = 0.0, makespan = 0.0, usd = 0.0, oo = 0.0;
  for (const auto& r : sla_runs) {
    hit += r.rec.ticket_hit_rate;
    makespan += r.rec.makespan_s;
    usd += r.rec.cloud_usd;
    oo += r.rec.oo_avg_mb;
  }
  const auto n = static_cast<double>(sla_runs.size());
  put_sla(out, hit / n, makespan / n, usd / n, oo / n, sla_runs.size());
  add_layers(traced, out);
  return out;
}

struct Cell {
  harness::Scenario scenario;
  std::string name;
};

Outcome run_grid(const Options& o, const harness::Scenario& base) {
  Outcome out;
  std::vector<Cell> cells;
  for (std::uint64_t k = 1; k <= o.grid_seeds; ++k) {
    for (const auto& bucket : o.buckets) {
      for (const auto& scheduler : o.schedulers) {
        Cell c{base, ""};
        c.scenario.seed = o.seed * o.grid_seeds + k;
        c.scenario.bucket = harness::cli::parse_bucket(bucket);
        c.scenario.scheduler = harness::cli::parse_scheduler(scheduler);
        c.name = "seed=" + std::to_string(c.scenario.seed) + " bucket=" +
                 bucket + " scheduler=" + scheduler;
        cells.push_back(std::move(c));
      }
    }
  }
  const std::size_t full_batches = base.num_batches;
  // A calibration after every block of cells of one seed; the block's
  // times are scaled by the mean of the calibrations around it.
  const std::size_t block = o.buckets.size() * o.schedulers.size();
  double last_calibration = calibrate();
  std::vector<double> calibrations = {last_calibration};
  auto run_pass = [&](std::size_t batches) {
    std::vector<ChildResult> pass;
    pass.reserve(cells.size());
    for (const Cell& cell : cells) {
      harness::Scenario s = cell.scenario;
      s.num_batches = batches;
      pass.push_back(in_child([&s](Record& r, std::vector<double>& steps) {
        run_cell(s, r, steps);
      }));
      if (pass.size() % block == 0) {
        const double next = calibrate();
        const double scale = kCalibrationRefS / (0.5 * (last_calibration + next));
        for (std::size_t i = pass.size() - block; i < pass.size(); ++i) {
          pass[i].scale = scale;
        }
        last_calibration = next;
        calibrations.push_back(next);
      }
    }
    return pass;
  };
  // Per-cell outputs of a pass; every later pass must reproduce them,
  // failures included.
  auto pass_digest = [](const std::vector<ChildResult>& pass) {
    Digest d;
    for (const auto& c : pass) {
      d.add(c.ok);
      d.add(c.ok ? c.rec.digest : 0);
    }
    return d.value();
  };

  if (o.quarter_only) {
    const auto quarter = run_pass(full_batches / 4);
    for (std::size_t i = 0; i < cells.size(); ++i) {
      out.count(quarter[i], "quarter " + cells[i].name);
    }
    out.quarter_digest = hex(pass_digest(quarter));
    out.failures.clear();  // reported by the measured run
    return out;
  }

  const auto start = Clock::now();
  std::vector<std::vector<ChildResult>> fulls;
  std::vector<std::vector<ChildResult>> quarters;
  while (fulls.empty() || seconds_since(start) < o.seconds) {
    fulls.push_back(run_pass(full_batches));
    quarters.push_back(run_pass(full_batches / 4));
  }
  const std::uint64_t full_digest = pass_digest(fulls.front());
  const std::uint64_t quarter_digest = pass_digest(quarters.front());
  for (const auto& p : fulls) {
    if (pass_digest(p) != full_digest) out.fail("grid cell outputs do not repeat");
  }
  for (const auto& p : quarters) {
    if (pass_digest(p) != quarter_digest) out.fail("grid cell outputs do not repeat");
  }
  out.digest = hex(full_digest);
  out.quarter_digest = hex(quarter_digest);
  // Each cell is counted once (the first pass), so attempted and failed
  // depend on the seed alone, not on how many passes fit in the window;
  // later passes repeat it (checked above).
  for (std::size_t i = 0; i < cells.size(); ++i) {
    out.count(fulls.front()[i], "full " + cells[i].name);
    out.count(quarters.front()[i], "quarter " + cells[i].name);
  }

  // As for single runs, each cell is reported as the median over passes of
  // its calibrated time. A cell succeeds or fails in every pass alike
  // (checked above).
  std::size_t ok_cells = 0;
  double rss = 0.0;
  double hit = 0.0, makespan = 0.0, usd = 0.0, oo = 0.0;
  std::vector<const Record*> traced;
  for (const auto& pass : fulls) {
    for (const auto& c : pass) {
      if (!c.ok) continue;
      rss = std::max(rss, c.rec.peak_rss_mb);
      traced.push_back(&c.rec);
    }
  }
  for (const auto& c : fulls.front()) {
    if (!c.ok) continue;
    ++ok_cells;
    hit += c.rec.ticket_hit_rate;
    makespan += c.rec.makespan_s;
    usd += c.rec.cloud_usd;
    oo += c.rec.oo_avg_mb;
  }
  auto timings = [&](bool scaled, const std::string& prefix) {
    auto t = [scaled](const ChildResult& c, double seconds) {
      return scaled ? seconds * c.scale : seconds;
    };
    auto cell_median = [&](const std::vector<std::vector<ChildResult>>& passes,
                           std::size_t i, auto field) {
      std::vector<double> v;
      for (const auto& pass : passes) {
        if (pass[i].ok) v.push_back(t(pass[i], field(pass[i].rec)));
      }
      return median(v);
    };
    auto total = [](const Record& r) { return r.total_s; };
    auto setup = [](const Record& r) { return r.setup_s; };
    double jobs = 0.0, events = 0.0, seconds = 0.0, full_s = 0.0, quarter_s = 0.0;
    std::vector<double> steps, setups;
    for (std::size_t i = 0; i < cells.size(); ++i) {
      if (!fulls.front()[i].ok) continue;
      const double cell_s = cell_median(fulls, i, total);
      jobs += static_cast<double>(fulls.front()[i].rec.jobs);
      events += static_cast<double>(fulls.front()[i].rec.events);
      seconds += cell_s;
      steps.push_back(1e3 * cell_s);
      setups.push_back(cell_median(fulls, i, setup));
      if (quarters.front()[i].ok) {
        full_s += cell_s;
        quarter_s += cell_median(quarters, i, total);
      }
    }
    put_timings(out, prefix, jobs / seconds, events / seconds, fulls.size(), steps,
                median(setups), setups.size(), cost_slope(full_s, quarter_s),
                fulls.size() + quarters.size());
  };
  timings(true, "");
  timings(false, "raw.");
  const double n_ok = std::max<double>(1.0, static_cast<double>(ok_cells));
  auto& m = out.metrics;
  m["peak_rss_mb"] = {rss, "MB", fulls.size() * cells.size()};
  m["raw.calibration_ms"] = {1e3 * median(calibrations), "ms", calibrations.size()};
  m["ok_frac"] = {static_cast<double>(ok_cells) / static_cast<double>(cells.size()),
                  "ratio", cells.size()};
  put_sla(out, hit / n_ok, makespan / n_ok, usd / n_ok, oo / n_ok, ok_cells);
  add_layers(traced, out);
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Options o = parse_options(argc, argv);
    const harness::Scenario base = base_scenario(o);
    print(o.mode == "grid" ? run_grid(o, base) : run_single(o, base));
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }
}
