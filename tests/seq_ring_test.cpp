// cbs::util::SeqRing against a std::map reference: the FCFS job tables of
// BeliefState rely on it behaving exactly like an ordered map for the keys
// they use, including keys inserted below the current head.

#include "util/seq_ring.hpp"

#include <cstdint>
#include <map>
#include <vector>

#include <gtest/gtest.h>

namespace {

using cbs::util::SeqRing;

std::vector<std::pair<std::uint64_t, int>> contents(const SeqRing<int>& ring) {
  std::vector<std::pair<std::uint64_t, int>> out;
  ring.for_each([&out](std::uint64_t seq, int v) { out.emplace_back(seq, v); });
  return out;
}

TEST(SeqRingTest, InsertFindEraseInOrder) {
  SeqRing<int> ring;
  EXPECT_TRUE(ring.empty());
  EXPECT_EQ(ring.find(1), nullptr);
  for (std::uint64_t s = 10; s < 20; ++s) EXPECT_TRUE(ring.emplace(s, static_cast<int>(s)));
  EXPECT_FALSE(ring.emplace(12, 0));  // already live: unchanged
  EXPECT_EQ(*ring.find(12), 12);
  EXPECT_EQ(ring.size(), 10u);
  ring.erase(10);
  ring.erase(12);
  EXPECT_EQ(ring.find(10), nullptr);
  EXPECT_EQ(ring.find(12), nullptr);
  EXPECT_EQ(ring.find(9), nullptr);
  EXPECT_EQ(ring.find(20), nullptr);
  EXPECT_EQ(ring.size(), 8u);
  EXPECT_EQ(contents(ring).front().first, 11u);
}

TEST(SeqRingTest, ReadmissionBelowHeadAndRefill) {
  SeqRing<int> ring;
  ring.emplace(100, 1);
  ring.emplace(105, 2);
  ring.emplace(97, 3);  // below the head
  EXPECT_EQ(contents(ring), (std::vector<std::pair<std::uint64_t, int>>{
                                {97, 3}, {100, 1}, {105, 2}}));
  ring.erase(97);
  ring.erase(100);
  ring.erase(105);
  EXPECT_TRUE(ring.empty());
  ring.emplace(3, 4);  // an empty ring re-bases anywhere
  EXPECT_EQ(*ring.find(3), 4);
  EXPECT_EQ(ring.size(), 1u);
}

TEST(SeqRingTest, SparseKeysUseTheSideTable) {
  // A sentinel far above the dense keys (and one far below) must neither
  // blow the ring up to the gap nor change any answer.
  SeqRing<int> ring;
  std::map<std::uint64_t, int> ref;
  auto put = [&](std::uint64_t seq, int v) {
    EXPECT_EQ(ring.emplace(seq, v), ref.emplace(seq, v).second);
  };
  put(999999, -1);
  for (std::uint64_t s = 1; s <= 3000; ++s) put(s, static_cast<int>(s));
  put(5000000, -2);  // far above: the dense keys become stragglers
  for (std::uint64_t s = 3001; s <= 6000; ++s) put(s, static_cast<int>(s));
  for (std::uint64_t s = 1; s <= 6000; s += 3) {
    ring.erase(s);
    ref.erase(s);
  }
  EXPECT_EQ(ring.size(), ref.size());
  for (const auto& [seq, v] : ref) {
    ASSERT_NE(ring.find(seq), nullptr) << seq;
    EXPECT_EQ(*ring.find(seq), v);
  }
  EXPECT_EQ(ring.find(1), nullptr);
  std::vector<std::pair<std::uint64_t, int>> want(ref.begin(), ref.end());
  EXPECT_EQ(contents(ring), want);
}

TEST(SeqRingTest, RandomizedAgainstStdMap) {
  SeqRing<int> ring;
  std::map<std::uint64_t, int> ref;
  std::uint64_t state = 0x9E3779B97F4A7C15ull;
  auto next = [&state] {
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
    return state;
  };
  std::uint64_t head = 1000;
  for (int step = 0; step < 20000; ++step) {
    const std::uint64_t op = next() % 8;
    if (op < 3) {  // mostly-ascending commits
      const std::uint64_t seq = head++;
      EXPECT_EQ(ring.emplace(seq, step), ref.emplace(seq, step).second);
    } else if (op == 3) {  // re-admission, often below the head
      const std::uint64_t back = next() % 1000 == 0 ? 900 : 1 + next() % 200;
      const std::uint64_t seq = head - back;
      EXPECT_EQ(ring.emplace(seq, step), ref.emplace(seq, step).second);
    } else if (!ref.empty()) {  // out-of-order completion, oldest favoured
      auto it = ref.begin();
      if (op > 5) std::advance(it, static_cast<long>(next() % ref.size()));
      ring.erase(it->first);
      ref.erase(it);
    }
    ASSERT_EQ(ring.size(), ref.size()) << "step " << step;
    const std::uint64_t probe = head - next() % 300;
    const auto rit = ref.find(probe);
    const int* got = ring.find(probe);
    ASSERT_EQ(got != nullptr, rit != ref.end()) << "step " << step;
    if (got != nullptr) {
      ASSERT_EQ(*got, rit->second);
    }
  }
  std::vector<std::pair<std::uint64_t, int>> want(ref.begin(), ref.end());
  EXPECT_EQ(contents(ring), want);
}

}  // namespace
