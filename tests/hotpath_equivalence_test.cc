// The supporting structures of the hot path: TupleArena block recycling,
// shared tuple payloads, and the FlatInt64Map the predicate index probes.
// The batch and sharded data paths are checked against one-tuple-at-a-time
// execution by the MQO oracle (mqo_oracle_test), and the typed and fused
// evaluators against the expression tree by program_test.
#include <gtest/gtest.h>

#include <map>

#include "common/flat_map.h"
#include "common/rng.h"
#include "common/tuple.h"

namespace rumor {
namespace {

TEST(HotpathStructuresTest, TupleArenaRecyclesBlocks) {
  TupleArena* arena = TupleArena::Default();
  // Warm one block of width 3, note the allocation count, then churn: the
  // freelist must serve every subsequent same-width payload.
  { Tuple warm = Tuple::MakeInts({1, 2, 3}, 0); }
  const int64_t allocs = arena->allocations();
  for (int i = 0; i < 1000; ++i) {
    Tuple t = Tuple::MakeInts({i, i + 1, i + 2}, i);
    EXPECT_EQ(t.at(0).AsInt(), i);
  }
  EXPECT_EQ(arena->allocations(), allocs);
}

TEST(HotpathStructuresTest, TupleSharingAndRefcounts) {
  TupleArena* arena = TupleArena::Default();
  const int64_t outstanding = arena->outstanding();
  {
    Tuple a = Tuple::MakeInts({7, 8}, 1);
    Tuple b = a;                         // shared payload
    Tuple c = b.WithTimestamp(5);        // shared payload, new ts
    EXPECT_EQ(a.payload(), b.payload());
    EXPECT_EQ(a.payload(), c.payload());
    EXPECT_EQ(arena->outstanding(), outstanding + 1);
    EXPECT_EQ(c.ts(), 5);
    EXPECT_TRUE(a.ContentEquals(b));
    EXPECT_FALSE(a.ContentEquals(c));  // ts differs
  }
  EXPECT_EQ(arena->outstanding(), outstanding);
}

TEST(HotpathStructuresTest, FlatInt64Map) {
  FlatInt64Map map;
  EXPECT_EQ(map.Find(0), -1);
  Rng rng(11);
  std::map<int64_t, int32_t> oracle;
  for (int i = 0; i < 500; ++i) {
    int64_t key = rng.UniformInt(-1000, 1000);
    int32_t value = static_cast<int32_t>(rng.UniformInt(0, 1 << 20));
    map.Insert(key, value);
    oracle[key] = value;
  }
  EXPECT_EQ(map.size(), oracle.size());
  for (const auto& [key, value] : oracle) {
    EXPECT_EQ(map.Find(key), value) << key;
  }
  for (int64_t missing : {-5000, 5000, 123456789}) {
    EXPECT_EQ(map.Find(missing), -1);
  }
}

}  // namespace
}  // namespace rumor
