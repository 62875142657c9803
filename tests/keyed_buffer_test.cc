#include "mop/keyed_buffer.h"

#include <gtest/gtest.h>

#include "common/rng.h"
#include "mop/window.h"

namespace rumor {
namespace {

TEST(KeyedBufferTest, AddAndScan) {
  KeyedBuffer<int> buf(/*indexed=*/false);
  buf.Add(10, Value(), 0);
  buf.Add(20, Value(), 1);
  std::vector<int> seen;
  buf.ForCandidates(nullptr, [&](int64_t, auto& slot) {
    seen.push_back(slot.item);
  });
  EXPECT_EQ(seen, (std::vector<int>{10, 20}));
}

TEST(KeyedBufferTest, IndexedLookupTouchesOnlyBucket) {
  KeyedBuffer<int> buf(/*indexed=*/true);
  buf.Add(1, Value(int64_t{7}), 0);
  buf.Add(2, Value(int64_t{9}), 1);
  buf.Add(3, Value(int64_t{7}), 2);
  Value key(int64_t{7});
  std::vector<int> seen;
  buf.ForCandidates(&key, [&](int64_t, auto& slot) {
    seen.push_back(slot.item);
  });
  EXPECT_EQ(seen, (std::vector<int>{1, 3}));
}

TEST(KeyedBufferTest, KillRemovesFromCandidates) {
  KeyedBuffer<int> buf(/*indexed=*/true);
  int64_t a = buf.Add(1, Value(int64_t{7}), 0);
  buf.Add(2, Value(int64_t{7}), 1);
  buf.Kill(a);
  EXPECT_EQ(buf.live_size(), 1u);
  Value key(int64_t{7});
  std::vector<int> seen;
  buf.ForCandidates(&key, [&](int64_t, auto& slot) {
    seen.push_back(slot.item);
  });
  EXPECT_EQ(seen, (std::vector<int>{2}));
}

TEST(KeyedBufferTest, DoubleKillIsIdempotent) {
  KeyedBuffer<int> buf(/*indexed=*/false);
  int64_t a = buf.Add(1, Value(), 0);
  buf.Kill(a);
  buf.Kill(a);
  EXPECT_EQ(buf.live_size(), 0u);
}

TEST(KeyedBufferTest, ExpireDropsOldAndDeadFromFront) {
  KeyedBuffer<int> buf(/*indexed=*/false);
  buf.Add(1, Value(), 0);
  int64_t b = buf.Add(2, Value(), 5);
  buf.Add(3, Value(), 10);
  buf.Kill(b);
  buf.ExpireBefore(6);  // drops ts 0, then dead ts 5
  EXPECT_EQ(buf.size(), 1u);
  EXPECT_EQ(buf.live_size(), 1u);
}

TEST(KeyedBufferTest, ExpiredBucketEntriesPrunedLazily) {
  KeyedBuffer<int> buf(/*indexed=*/true);
  buf.Add(1, Value(int64_t{7}), 0);
  buf.Add(2, Value(int64_t{7}), 10);
  buf.ExpireBefore(5);
  Value key(int64_t{7});
  std::vector<int> seen;
  buf.ForCandidates(&key, [&](int64_t, auto& slot) {
    seen.push_back(slot.item);
  });
  EXPECT_EQ(seen, (std::vector<int>{2}));
}

TEST(KeyedBufferTest, MutationThroughCandidates) {
  KeyedBuffer<int> buf(/*indexed=*/false);
  buf.Add(1, Value(), 0);
  buf.ForCandidates(nullptr, [&](int64_t, auto& slot) { slot.item = 42; });
  buf.ForCandidates(nullptr, [&](int64_t, auto& slot) {
    EXPECT_EQ(slot.item, 42);
  });
}

// Property: indexed and non-indexed buffers agree on candidate sets.
class KeyedBufferPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(KeyedBufferPropertyTest, IndexedMatchesScanFiltered) {
  Rng rng(GetParam());
  KeyedBuffer<int> indexed(true), scan(false);
  Timestamp ts = 0;
  for (int i = 0; i < 300; ++i) {
    ts += rng.UniformInt(0, 2);
    int op = static_cast<int>(rng.UniformInt(0, 9));
    if (op < 6) {
      Value key(rng.UniformInt(0, 5));
      indexed.Add(i, key, ts);
      scan.Add(i, key, ts);
    } else if (op < 8) {
      Timestamp cutoff = ts - rng.UniformInt(0, 10);
      indexed.ExpireBefore(cutoff);
      scan.ExpireBefore(cutoff);
    } else {
      Value probe(rng.UniformInt(0, 5));
      std::vector<int> got, want;
      indexed.ForCandidates(&probe, [&](int64_t, auto& slot) {
        got.push_back(slot.item);
      });
      scan.ForCandidates(nullptr, [&](int64_t, auto& slot) {
        if (slot.key == probe) want.push_back(slot.item);
      });
      EXPECT_EQ(got, want);
    }
  }
  EXPECT_EQ(indexed.live_size(), scan.live_size());
}

INSTANTIATE_TEST_SUITE_P(Seeds, KeyedBufferPropertyTest,
                         ::testing::Range<uint64_t>(0, 10));

// Shared aggregation keeps only groups live in some member's window: the
// accumulators, the interned keys and the extrema queues stay bounded by
// the groups in the window, not by the groups ever seen.
TEST(SharedAggEngineTest, EmptyGroupsAreDropped) {
  for (AggFn fn : {AggFn::kSum, AggFn::kMax}) {
    SharedAggEngine engine({AggMemberSpec{fn, 1, {0}, 5},
                            AggMemberSpec{fn, 1, {0, 1}, 3}});
    for (int64_t g = 0; g < 100000; ++g) {
      engine.Process(Tuple::MakeInts({g, g % 7}, g), nullptr,
                     [](int, Tuple) {});
      // Groups g-4..g are live in the window of 5 at ts=g.
      ASSERT_LE(engine.group_count(0), 5u);
      ASSERT_LE(engine.group_count(1), 3u);
      ASSERT_LE(engine.log_size(), 6u);
      ASSERT_LE(engine.key_count(), 12u);  // two GROUP BY lists
      // A handful of groups' keys, ids, accumulators and queue items.
      ASSERT_GT(engine.ApproxBytes(), 0);
      ASSERT_LE(engine.ApproxBytes(), 8 * 1024) << "g=" << g;
    }
  }
}

TEST(SharedAggEngineTest, LogBoundedByMaxWindow) {
  SharedAggEngine engine({AggMemberSpec{AggFn::kCount, -1, {}, 3},
                          AggMemberSpec{AggFn::kCount, -1, {}, 10}});
  for (Timestamp ts = 0; ts < 100; ++ts) {
    engine.Process(Tuple::MakeInts({0}, ts), nullptr, [](int, Tuple) {});
  }
  EXPECT_LE(engine.log_size(), 11u);  // max window + current tuple
}

}  // namespace
}  // namespace rumor
