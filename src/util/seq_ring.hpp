#pragma once

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <map>
#include <utility>

namespace cbs::util {

/// Map from FCFS sequence id to value for tables whose live keys sit in a
/// window that slides upward: jobs are committed in increasing seq order
/// and mostly complete near the oldest outstanding one.
///
/// Slot k of a deque holds seq `base_ + k`; erasing leaves a tombstone,
/// and tombstones at either end are trimmed. Insert, find and erase are
/// O(1) amortized (each slot is trimmed once), where a sorted vector pays
/// an O(n) shift to erase its oldest entry. Keys below the head (a
/// re-admission after a burst retraction) grow the deque at the front.
///
/// The deque spans the seqs between its oldest and newest keys, so a key
/// far from the others would cost memory for the whole gap. The span is
/// kept within 8 slots per live key (plus 4096): a key that would stretch
/// it further below the head, and stragglers left at the front as newer
/// keys arrive, live in a side table instead. The side table is an ordered
/// node map: in saturated runs it holds thousands of stragglers that
/// complete in no particular order, so its erase must be O(log n), not a
/// sorted vector's O(n) shift. Iteration is in ascending seq order, like
/// FlatMap, and a copy (a fork) copies plain values.
template <typename Value>
class SeqRing {
 public:
  [[nodiscard]] bool empty() const noexcept { return size() == 0; }
  [[nodiscard]] std::size_t size() const noexcept {
    return ring_live_ + far_.size();
  }

  /// Inserts (seq, value) if absent; returns false (and changes nothing)
  /// when seq is already present.
  bool emplace(std::uint64_t seq, const Value& value) {
    if (find(seq) != nullptr) return false;
    if (slots_.empty()) {
      base_ = seq;
    } else if (seq < base_) {
      const std::uint64_t span = base_ + slots_.size() - seq;
      if (span > max_span()) return far_.emplace(seq, value).second;
      slots_.insert(slots_.begin(), static_cast<std::size_t>(base_ - seq),
                    Slot{});
      base_ = seq;
    }
    const auto k = static_cast<std::size_t>(seq - base_);
    const bool appended = k >= slots_.size();
    if (appended) slots_.resize(k + 1);
    slots_[k] = Slot{value, true};
    ++ring_live_;
    if (appended) evict_stragglers();
    return true;
  }

  [[nodiscard]] Value* find(std::uint64_t seq) {
    if (Slot* slot = slot_of(seq); slot != nullptr && slot->live) {
      return &slot->value;
    }
    if (far_.empty()) return nullptr;
    auto it = far_.find(seq);
    return it == far_.end() ? nullptr : &it->second;
  }
  [[nodiscard]] const Value* find(std::uint64_t seq) const {
    if (seq >= base_ && seq - base_ < slots_.size()) {
      const Slot& slot = slots_[static_cast<std::size_t>(seq - base_)];
      if (slot.live) return &slot.value;
    }
    if (far_.empty()) return nullptr;
    auto it = far_.find(seq);
    return it == far_.end() ? nullptr : &it->second;
  }

  /// Removes a present key (asserted).
  void erase(std::uint64_t seq) {
    Slot* slot = slot_of(seq);
    if (slot == nullptr || !slot->live) {
      const std::size_t erased = far_.erase(seq);
      assert(erased == 1 && "SeqRing::erase: missing key");
      (void)erased;
      return;
    }
    slot->live = false;
    --ring_live_;
    trim_front();
    while (!slots_.empty() && !slots_.back().live) slots_.pop_back();
  }

  /// Calls f(seq, value) for every key in ascending seq order.
  template <typename F>
  void for_each(F&& f) const {
    auto far = far_.begin();
    for (std::size_t k = 0; k < slots_.size(); ++k) {
      if (!slots_[k].live) continue;
      const std::uint64_t seq = base_ + k;
      for (; far != far_.end() && far->first < seq; ++far) {
        f(far->first, far->second);
      }
      f(seq, slots_[k].value);
    }
    for (; far != far_.end(); ++far) f(far->first, far->second);
  }

 private:
  struct Slot {
    Value value{};
    bool live = false;
  };

  [[nodiscard]] std::size_t max_span() const noexcept {
    return 8 * (ring_live_ + 1) + 4096;
  }

  [[nodiscard]] Slot* slot_of(std::uint64_t seq) {
    if (seq < base_ || seq - base_ >= slots_.size()) return nullptr;
    return &slots_[static_cast<std::size_t>(seq - base_)];
  }

  void trim_front() {
    while (!slots_.empty() && !slots_.front().live) {
      slots_.pop_front();
      ++base_;
    }
  }

  /// Moves the oldest ring keys to the side table until the span fits.
  /// The newest key (just appended, live) always stays in the ring.
  void evict_stragglers() {
    while (slots_.size() > max_span()) {
      if (slots_.front().live) {
        far_.emplace_hint(far_.end(), base_, std::move(slots_.front().value));
        --ring_live_;
      }
      slots_.pop_front();
      ++base_;
      trim_front();
    }
  }

  std::deque<Slot> slots_;
  std::uint64_t base_ = 0;  ///< seq of slots_.front()
  std::size_t ring_live_ = 0;
  std::map<std::uint64_t, Value> far_;
};

}  // namespace cbs::util
