#pragma once

#include <cstddef>
#include <memory>
#include <vector>

namespace cbs::util {

/// An append-only sequence stored as fixed-size chunks, for histories that
/// every fork of a world carries but none of them rewrites.
///
/// Full chunks are immutable and shared through `shared_ptr<const>`
/// between a log and its copies; only the partial tail chunk is owned. A
/// copy of an n-element log therefore costs n / kChunk reference counts
/// plus fewer than kChunk element copies, instead of n element copies, and
/// appends to either copy never touch the other (they go to its own tail).
/// Elements are read in append order, from any index, by for_each_from().
template <typename T, std::size_t kChunk = 64>
class ChunkedLog {
  static_assert(kChunk > 0);

 public:
  ChunkedLog() { tail_.reserve(kChunk); }
  ChunkedLog(const ChunkedLog& other) : full_(other.full_) {
    tail_.reserve(kChunk);  // so the copy's next appends do not reallocate
    tail_.assign(other.tail_.begin(), other.tail_.end());
  }
  ChunkedLog& operator=(const ChunkedLog& other) {
    if (this != &other) {
      full_ = other.full_;
      tail_.clear();
      tail_.reserve(kChunk);
      tail_.assign(other.tail_.begin(), other.tail_.end());
    }
    return *this;
  }
  ChunkedLog(ChunkedLog&&) noexcept = default;
  ChunkedLog& operator=(ChunkedLog&&) noexcept = default;
  ~ChunkedLog() = default;

  void push_back(const T& value) {
    tail_.push_back(value);
    if (tail_.size() == kChunk) {
      full_.push_back(std::make_shared<const std::vector<T>>(std::move(tail_)));
      tail_ = std::vector<T>();
      tail_.reserve(kChunk);
    }
  }

  [[nodiscard]] std::size_t size() const noexcept {
    return full_.size() * kChunk + tail_.size();
  }

  /// Calls f(element) for elements first, first + 1, ..., size() - 1.
  template <typename F>
  void for_each_from(std::size_t first, F&& f) const {
    for (std::size_t c = first / kChunk; c < full_.size(); ++c) {
      const std::vector<T>& chunk = *full_[c];
      for (std::size_t k = c == first / kChunk ? first % kChunk : 0;
           k < kChunk; ++k) {
        f(chunk[k]);
      }
    }
    const std::size_t tail_first =
        first > full_.size() * kChunk ? first - full_.size() * kChunk : 0;
    for (std::size_t k = tail_first; k < tail_.size(); ++k) f(tail_[k]);
  }

  /// The whole log as one contiguous vector, in append order.
  [[nodiscard]] std::vector<T> to_vector() const {
    std::vector<T> out;
    out.reserve(size());
    for (const auto& chunk : full_) {
      out.insert(out.end(), chunk->begin(), chunk->end());
    }
    out.insert(out.end(), tail_.begin(), tail_.end());
    return out;
  }

 private:
  std::vector<std::shared_ptr<const std::vector<T>>> full_;
  std::vector<T> tail_;  ///< fewer than kChunk elements, capacity kChunk
};

}  // namespace cbs::util
