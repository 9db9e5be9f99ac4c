// cbs::util::ChunkedLog: reads in append order across chunk boundaries,
// and copies that share full chunks but never see each other's appends —
// the property that lets a fork carry the controller's outcome history
// without copying it.

#include "util/chunked_log.hpp"

#include <cstddef>
#include <vector>

#include <gtest/gtest.h>

namespace {

using Log = cbs::util::ChunkedLog<int, 4>;

Log make_log(int n) {
  Log log;
  for (int i = 0; i < n; ++i) log.push_back(i);
  return log;
}

std::vector<int> iota(int first, int last) {
  std::vector<int> out;
  for (int i = first; i < last; ++i) out.push_back(i);
  return out;
}

std::vector<int> read_from(const Log& log, std::size_t first) {
  std::vector<int> out;
  log.for_each_from(first, [&out](int v) { out.push_back(v); });
  return out;
}

/// Where each element is stored.
std::vector<const int*> addresses(const Log& log) {
  std::vector<const int*> out;
  log.for_each_from(0, [&out](const int& v) { out.push_back(&v); });
  return out;
}

TEST(ChunkedLogTest, ReadsBackInAppendOrderAcrossChunks) {
  for (const int n : {0, 1, 3, 4, 5, 8, 11}) {
    const Log log = make_log(n);
    EXPECT_EQ(log.size(), static_cast<std::size_t>(n));
    EXPECT_EQ(log.to_vector(), iota(0, n)) << "n " << n;
    // Every start: inside a full chunk, on a chunk boundary, in the tail,
    // at the end.
    for (int first = 0; first <= n; ++first) {
      EXPECT_EQ(read_from(log, static_cast<std::size_t>(first)), iota(first, n))
          << "n " << n << " first " << first;
    }
  }
}

TEST(ChunkedLogTest, CopySharesFullChunksAndOwnsItsTail) {
  const Log original = make_log(10);  // two full chunks + a 2-element tail
  const Log copy = original;
  const std::vector<const int*> a = addresses(original);
  const std::vector<const int*> b = addresses(copy);
  ASSERT_EQ(a.size(), 10u);
  ASSERT_EQ(b.size(), 10u);
  for (std::size_t i = 0; i < 8; ++i) EXPECT_EQ(b[i], a[i]);  // shared
  for (std::size_t i = 8; i < 10; ++i) EXPECT_NE(b[i], a[i]);  // own tail
  EXPECT_EQ(copy.to_vector(), original.to_vector());
}

TEST(ChunkedLogTest, AppendsToACopyNeverReachTheOriginal) {
  Log original = make_log(6);
  Log copy = original;
  for (int i = 100; i < 110; ++i) copy.push_back(i);  // fills and seals chunks
  original.push_back(-1);
  original.push_back(-2);
  std::vector<int> want_original = iota(0, 6);
  want_original.push_back(-1);
  want_original.push_back(-2);
  EXPECT_EQ(original.to_vector(), want_original);
  std::vector<int> want_copy = iota(0, 6);
  for (int i = 100; i < 110; ++i) want_copy.push_back(i);
  EXPECT_EQ(copy.to_vector(), want_copy);
}

TEST(ChunkedLogTest, AssignmentReplacesContents) {
  Log a = make_log(9);
  const Log b = make_log(3);
  a = b;
  EXPECT_EQ(a.to_vector(), iota(0, 3));
  a.push_back(3);
  a.push_back(4);
  EXPECT_EQ(a.to_vector(), iota(0, 5));
  EXPECT_EQ(b.to_vector(), iota(0, 3));
}

}  // namespace
