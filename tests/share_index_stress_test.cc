// RemoveQuery churn stress (satellite of the indexed share-point work): add
// ~10k queries, remove a random half, re-add a fresh batch — and after every
// phase assert the engine's live ShareIndex is byte-identical to an index
// rebuilt from scratch over the same plan. This is the staleness oracle: a
// single missed or phantom table entry after thousands of incremental
// Sync() deltas shows up as a DebugDump diff.
//
// The predicate pool is bounded (~200 distinct shapes) so the shared plan
// stays small while the add/remove volume stays large: the point is to
// grind the index's delta maintenance, not to grow a 10k-m-op plan.
//
// Beside it, the plan-residue check: add/push/remove steps on perfbench's
// query_churn mix must leave the plan at its post-Start size.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "api/stream_engine.h"
#include "common/rng.h"
#include "rules/share_index.h"

namespace rumor {
namespace {

constexpr int kQueries = 10000;
constexpr int kSpotCheckEvery = 1000;

Schema CpuSchema() {
  return Schema({{"pid", ValueType::kInt}, {"load", ValueType::kInt}});
}

// ~200 distinct query texts: 100 equality selections, 50 range selections,
// ~50 aggregate shapes. Heavy duplication across 10k adds exercises every
// merge kind (exact CSE, member CSE, σ attach/formation, α attach).
std::string PooledRql(Rng& rng) {
  switch (rng.UniformInt(0, 3)) {
    case 0:
      return "SELECT * FROM CPU WHERE pid = " +
             std::to_string(rng.UniformInt(0, 99));
    case 1:
      return "SELECT * FROM CPU WHERE load > " +
             std::to_string(rng.UniformInt(0, 49));
    case 2:
      return "SELECT pid, AVG(load) FROM CPU [RANGE " +
             std::to_string(4 + 4 * rng.UniformInt(0, 4)) + "] GROUP BY pid";
    default:
      return "SELECT pid, MAX(load) FROM CPU [RANGE " +
             std::to_string(4 + 4 * rng.UniformInt(0, 4)) + "] GROUP BY pid";
  }
}

void ExpectIndexMatchesRebuild(StreamEngine& engine, const char* phase,
                               int step) {
  const ShareIndex* live = engine.share_index_for_testing();
  ASSERT_NE(live, nullptr);
  ShareIndex rebuilt(engine.mutable_plan_for_testing());
  ASSERT_EQ(live->DebugDump(), rebuilt.DebugDump())
      << "phase " << phase << " step " << step;
}

TEST(ShareIndexStressTest, TenThousandQueryChurnKeepsIndexExact) {
  Rng rng(0xc0ffee);
  StreamEngine engine;
  ASSERT_TRUE(engine.RegisterSource("CPU", CpuSchema()).ok());

  // Phase 1: add all (the first query rides Start(), the rest merge live).
  std::vector<std::string> names;
  names.reserve(kQueries);
  ASSERT_TRUE(engine.AddQueryText(PooledRql(rng), "q0").ok());
  names.push_back("q0");
  ASSERT_TRUE(engine.Start().ok());
  for (int i = 1; i < kQueries; ++i) {
    std::string name = "q" + std::to_string(i);
    ASSERT_TRUE(engine.AddQueryText(PooledRql(rng), name).ok());
    names.push_back(name);
    if ((i + 1) % kSpotCheckEvery == 0) {
      ExpectIndexMatchesRebuild(engine, "add", i + 1);
    }
  }
  ExpectIndexMatchesRebuild(engine, "add-done", kQueries);
  EXPECT_EQ(engine.num_queries(), kQueries);

  // Phase 2: remove a random half.
  int removed = 0;
  for (size_t i = names.size(); i-- > 0;) {
    if (rng.UniformInt(0, 1) == 0) continue;
    ASSERT_TRUE(engine.RemoveQuery(names[i]).ok());
    names.erase(names.begin() + i);
    ++removed;
    if (removed % kSpotCheckEvery == 0) {
      ExpectIndexMatchesRebuild(engine, "remove", removed);
    }
  }
  ExpectIndexMatchesRebuild(engine, "remove-done", removed);
  EXPECT_EQ(engine.num_queries(), kQueries - removed);

  // Phase 3: re-add a fresh batch over the survivors.
  for (int i = 0; i < removed; ++i) {
    std::string name = "r" + std::to_string(i);
    ASSERT_TRUE(engine.AddQueryText(PooledRql(rng), name).ok());
    if ((i + 1) % kSpotCheckEvery == 0) {
      ExpectIndexMatchesRebuild(engine, "re-add", i + 1);
    }
  }
  ExpectIndexMatchesRebuild(engine, "re-add-done", removed);
  EXPECT_EQ(engine.num_queries(), kQueries);

  // The merged plan stayed bounded by the shape pool, not the add volume.
  EXPECT_LT(engine.CollectMetrics().live_mops, 300);
}

// The perfbench query_churn mix on CPU(pid, load): 45% `pid = c AND load >
// t`, 45% `load > t`, 10% AVG/MAX(load) [RANGE w] GROUP BY pid.
std::string ChurnMixRql(Rng& rng) {
  const int64_t kind = rng.UniformInt(0, 19);
  if (kind < 9) {
    return "SELECT * FROM CPU WHERE pid = " +
           std::to_string(rng.UniformInt(0, 63)) +
           " AND load > " + std::to_string(rng.UniformInt(0, 99));
  }
  if (kind < 18) {
    return "SELECT * FROM CPU WHERE load > " +
           std::to_string(rng.UniformInt(0, 99));
  }
  return std::string("SELECT pid, ") + (kind == 18 ? "AVG" : "MAX") +
         "(load) FROM CPU [RANGE " + std::to_string(rng.UniformInt(8, 120)) +
         "] GROUP BY pid";
}

// Live add/push/remove steps on the query_churn mix leave no plan residue,
// at 1 and 4 shards: the m-ops, channels and streams a step discards are
// dropped from the plan's tail, removed σ members free index slots that
// later adds reuse, and so the plan stays at its post-Start size.
TEST(ChurnResidueTest, QueryChurnMixLeavesNoPlanResidue) {
  constexpr int kStanding = 500;
  constexpr int kSteps = 2000;
  for (int shards : {1, 4}) {
    Rng rng(0xfeed + shards);
    StreamEngine engine;
    ASSERT_TRUE(engine.SetShardCount(shards).ok());
    ASSERT_TRUE(engine.RegisterSource("CPU", CpuSchema()).ok());
    std::vector<std::string> live;
    int live_sigma = 0;
    std::vector<char> is_sigma;  // by query number
    auto add = [&](int n) {
      const std::string rql = ChurnMixRql(rng);
      is_sigma.push_back(rql.find("WHERE") != std::string::npos);
      live_sigma += is_sigma.back();
      live.push_back("q" + std::to_string(n));
      return engine.AddQueryText(rql, live.back());
    };
    for (int n = 0; n < kStanding; ++n) ASSERT_TRUE(add(n).ok());
    ASSERT_TRUE(engine.Start().ok());
    const Plan& plan = *engine.share_index_for_testing()->plan();
    const int mops = plan.num_mops();
    const int channels = plan.num_channels();
    const int streams = plan.streams().size();
    int max_live_sigma = live_sigma;
    Timestamp ts = 0;
    for (int step = 0; step < kSteps; ++step) {
      ASSERT_TRUE(add(kStanding + step).ok());
      max_live_sigma = std::max(max_live_sigma, live_sigma);
      std::vector<Tuple> batch;
      for (int i = 0; i < 16; ++i) {
        batch.push_back(Tuple::MakeInts(
            {rng.UniformInt(0, 63), rng.UniformInt(0, 99)}, ++ts));
      }
      ASSERT_TRUE(engine.PushBatch("CPU", batch).ok());
      const size_t victim =
          static_cast<size_t>(rng.UniformInt(0, live.size() - 1));
      ASSERT_TRUE(engine.RemoveQuery(live[victim]).ok());
      live_sigma -= is_sigma[std::stoi(live[victim].substr(1))];
      live[victim] = live.back();
      live.pop_back();
    }
    EXPECT_LE(plan.num_mops(), mops + 64) << shards << " shards";
    EXPECT_LE(plan.num_channels(), channels + 64) << shards << " shards";
    EXPECT_LE(plan.streams().size(), streams + 64) << shards << " shards";
    int slots = 0;
    for (MopId id : plan.LiveMops()) {
      if (plan.mop(id).type() == MopType::kPredicateIndex) {
        slots += plan.mop(id).num_members();
      }
    }
    EXPECT_GT(slots, 0);
    EXPECT_LE(slots, max_live_sigma) << shards << " shards";
  }
}

}  // namespace
}  // namespace rumor
