#include "sla/outcome_tally.hpp"

#include <algorithm>
#include <cassert>

namespace cbs::sla {

void OutcomeTally::add(const JobOutcome& o) {
  ++count_;
  lateness_ += std::max(0.0, o.completed - policy_.deadline_for(o));
  if (o.seq_id == 0) return;
  assert(o.seq_id > settled_ && "outcome id added twice");
  const std::uint64_t offset = o.seq_id - settled_ - 1;
  if (offset >= beyond_.size()) beyond_.resize(offset + 1, -1.0);
  assert(beyond_[offset] < 0.0 && "outcome id added twice");
  beyond_[offset] = o.output_mb;
  std::size_t present = 0;
  while (present < beyond_.size() && !(beyond_[present] < 0.0)) {
    settled_mb_ += beyond_[present];
    ++present;
  }
  settled_ += present;
  beyond_.erase(beyond_.begin(),
                beyond_.begin() + static_cast<std::ptrdiff_t>(present));
}

double OutcomeTally::ordered_output_mb(std::uint64_t tolerance) const {
  double running = settled_mb_;
  double ordered = running;
  std::uint64_t missing = 0;
  for (const double mb : beyond_) {
    if (mb < 0.0) {
      if (++missing > tolerance) break;
      continue;
    }
    running += mb;
    ordered = running;
  }
  return ordered;
}

}  // namespace cbs::sla
