#include "sla/oo_metric.hpp"

#include <algorithm>
#include <cassert>
#include <limits>

namespace cbs::sla {

using cbs::sim::SimDuration;
using cbs::sim::SimTime;

OoMetricCalculator::OoMetricCalculator(const std::vector<JobOutcome>& outcomes) {
  by_id_.resize(outcomes.size() + 1);
  for (const JobOutcome& o : outcomes) {
    assert(o.seq_id >= 1 && o.seq_id < by_id_.size());
    by_id_[o.seq_id] = JobInfo{o.completed, o.output_mb};
    last_completion_ = std::max(last_completion_, o.completed);
  }
}

OoSample OoMetricCalculator::sample_at(SimTime t, std::uint64_t tolerance) const {
  OoSample s;
  s.time = t;

  // Single forward pass over ids: `completed_below` is |J_it| as i grows.
  std::uint64_t completed_below = 0;  // completed jobs with id <= i
  double prefix_mb = 0.0;             // their total output
  std::uint64_t best_id = 0;
  double best_mb = 0.0;
  for (std::uint64_t i = 1; i < by_id_.size(); ++i) {
    const bool done = by_id_[i].completed <= t && by_id_[i].completed > 0.0;
    if (done) {
      ++completed_below;
      prefix_mb += by_id_[i].output_mb;
      ++s.completed_count;
      // Eq. 5: j_i ∈ C_t  AND  i − t_l ≤ |J_it|.
      if (i <= tolerance + completed_below) {
        best_id = i;
        best_mb = prefix_mb;
      }
    }
  }
  s.max_in_order = best_id;
  s.ordered_mb = best_mb;
  return s;
}

std::vector<OoSample> OoMetricCalculator::series(SimDuration interval,
                                                 std::uint64_t tolerance) const {
  assert(interval > 0.0);
  // One pass of precomputation, then each sample costs a binary search plus
  // a scan over at most tolerance + 1 missing ids (and the completed ids
  // between them), instead of sample_at's scan over every id.
  //  - `done_by[k]`: the time by which ids 1..k have all completed (a job
  //    that never completes, completed <= 0, counts as +inf). Non-
  //    decreasing, so P(t) — the largest k with ids 1..k all done — is a
  //    binary search.
  //  - `prefix_mb[k]`: the sequential sum of output over ids 1..k. Below
  //    P(t) every id is done, so these are exactly the additions
  //    sample_at makes, and the result is bit-identical.
  //  - `finish_sorted`: completion times of completed jobs, for |C_t|.
  const std::size_t n = by_id_.size() - 1;
  constexpr double kNever = std::numeric_limits<double>::infinity();
  std::vector<SimTime> done_by(n + 1, 0.0);
  std::vector<double> prefix_mb(n + 1, 0.0);
  std::vector<SimTime> finish_sorted;
  finish_sorted.reserve(n);
  for (std::size_t i = 1; i <= n; ++i) {
    const SimTime c = by_id_[i].completed > 0.0 ? by_id_[i].completed : kNever;
    done_by[i] = std::max(done_by[i - 1], c);
    prefix_mb[i] = prefix_mb[i - 1] + by_id_[i].output_mb;
    if (c != kNever) finish_sorted.push_back(c);
  }
  std::sort(finish_sorted.begin(), finish_sorted.end());

  std::vector<OoSample> out;
  const SimTime end = last_completion_ + interval;
  for (SimTime t = 0.0; t <= end; t += interval) {
    OoSample s;
    s.time = t;
    s.completed_count = static_cast<std::size_t>(
        std::upper_bound(finish_sorted.begin(), finish_sorted.end(), t) -
        finish_sorted.begin());
    // done_by[0] = 0 <= t, so the search lands at or past index 1.
    const auto p = static_cast<std::size_t>(
        std::upper_bound(done_by.begin() + 1, done_by.end(), t) -
        done_by.begin() - 1);
    s.max_in_order = p;
    s.ordered_mb = prefix_mb[p];
    // Past P(t): an id qualifies while at most `tolerance` ids below it are
    // missing; the missing count only grows, so stop once it exceeds that.
    double mb = prefix_mb[p];
    std::uint64_t missing = 0;
    for (std::size_t i = p + 1; i <= n; ++i) {
      const bool done = by_id_[i].completed <= t && by_id_[i].completed > 0.0;
      if (!done) {
        if (++missing > tolerance) break;
        continue;
      }
      mb += by_id_[i].output_mb;
      s.max_in_order = i;
      s.ordered_mb = mb;
    }
    out.push_back(s);
  }
  return out;
}

cbs::stats::TimeSeries OoMetricCalculator::ordered_mb_series(
    SimDuration interval, std::uint64_t tolerance) const {
  cbs::stats::TimeSeries ts;
  for (const OoSample& s : series(interval, tolerance)) {
    ts.add(s.time, s.ordered_mb);
  }
  return ts;
}

}  // namespace cbs::sla
