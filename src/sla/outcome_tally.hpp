#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "sla/job_outcome.hpp"
#include "sla/tickets.hpp"

namespace cbs::sla {

/// Running SLA sums over a stream of outcomes, kept as outcomes are added
/// so that reading them costs O(out-of-order span) instead of a rescan of
/// every outcome. Each value equals the rescan's bit for bit, because it
/// adds the same terms in the same order:
///
///  - ticket lateness, Σ max(0, completed − deadline) in stream order;
///  - ordered output, the OO metric's o_t (paper Eq. 5–6) on a partial
///    outcome set: the cumulative output MB of completed jobs with id <= m,
///    where m is the largest id with at most `tolerance` missing ids below
///    it, summed in id order. The tally keeps the settled prefix (ids
///    1..k all present) as one sum and only the ids beyond it one by one.
///
/// An outcome whose output_mb is negative counts as missing, as in the
/// rescan. Ids are FCFS positions from 1; id 0 is outside the OO scan.
class OutcomeTally {
 public:
  explicit OutcomeTally(TicketPolicy policy) : policy_(policy) {}

  /// Folds in the next outcome of the stream. Precondition: its id has not
  /// been added before.
  void add(const JobOutcome& o);

  /// Outcomes added so far.
  [[nodiscard]] std::size_t count() const noexcept { return count_; }

  [[nodiscard]] double lateness() const noexcept { return lateness_; }

  [[nodiscard]] double ordered_output_mb(std::uint64_t tolerance) const;

 private:
  TicketPolicy policy_;
  std::size_t count_ = 0;
  double lateness_ = 0.0;
  std::uint64_t settled_ = 0;  ///< ids 1..settled_ are all present
  double settled_mb_ = 0.0;    ///< their output MB, summed in id order
  /// Output MB of ids settled_ + 1, settled_ + 2, ..., up to the largest id
  /// added; -1 marks an id not added yet. Never starts with a present id.
  std::vector<double> beyond_;
};

}  // namespace cbs::sla
