// Churn equivalence fuzz (acceptance criterion of the dynamic-MQO work):
// after a random interleaving of AddQuery / RemoveQuery / Push, the churned
// engine must behave exactly like a fresh engine started with the surviving
// query set. Window state depends on history a late-added query may not have
// seen, so the comparison is made after a window-clearing timestamp gap: both
// engines then observe identical in-window histories, and their per-query
// output sequences over a shared evaluation stream must match byte for byte.
// A second fuzz checks the indexed live merge against the scan-based oracle
// step by step, at plan level.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "api/stream_engine.h"
#include "common/rng.h"
#include "plan/compile.h"
#include "plan/executor.h"
#include "plan/explain.h"
#include "query/parser.h"
#include "rules/incremental.h"
#include "rules/share_index.h"
#include "scan_merge_oracle.h"

namespace rumor {
namespace {

// All windows <= kMaxWindow so a gap of kMaxWindow+1 clears every state.
constexpr int64_t kMaxWindow = 32;

Schema CpuSchema() {
  return Schema({{"pid", ValueType::kInt}, {"load", ValueType::kInt}});
}

// A small pool of query shapes exercising CSE, sσ, sα (incl. attach paths)
// and multi-aggregate zips.
std::string MakeRql(Rng& rng) {
  switch (rng.UniformInt(0, 6)) {
    case 0:
      return "SELECT * FROM CPU WHERE pid = " +
             std::to_string(rng.UniformInt(0, 3));
    case 1:
      return "SELECT * FROM CPU WHERE load > " +
             std::to_string(rng.UniformInt(10, 90));
    case 2:
      return "SELECT pid, AVG(load) FROM CPU [RANGE " +
             std::to_string(rng.UniformInt(4, kMaxWindow)) +
             "] GROUP BY pid";
    case 3:
      return "SELECT pid, MIN(load) FROM CPU [RANGE " +
             std::to_string(rng.UniformInt(4, kMaxWindow)) +
             "] GROUP BY pid";
    case 4:
      return "SELECT COUNT(*) FROM CPU [RANGE " +
             std::to_string(rng.UniformInt(4, kMaxWindow)) + "]";
    case 5:
      return "SELECT pid, SUM(load), MAX(load) FROM CPU [RANGE " +
             std::to_string(rng.UniformInt(4, kMaxWindow)) +
             "] GROUP BY pid";
    default:
      return "SELECT * FROM CPU";
  }
}

using Outputs = std::map<std::string, std::vector<std::string>>;

// The full churn fuzz, parameterized by shard count. With shard_count > 1
// the churned engine runs partition-parallel and every AddQuery/RemoveQuery
// exercises the quiesce-merge-resume path on live workers; the reference
// stays single-threaded. Per-tuple pushes are one-tuple epochs, so the
// ordered merge reproduces the single-threaded output sequence exactly and
// the byte-for-byte comparison below is still valid.
void RunRandomChurn(int shard_count) {
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    Rng rng(seed * 0x9e3779b97f4a7c15ull + 1);
    StreamEngine churned;
    ASSERT_TRUE(churned.RegisterSource("CPU", CpuSchema()).ok());
    ASSERT_TRUE(churned.SetShardCount(shard_count).ok());

    int name_counter = 0;
    std::vector<std::pair<std::string, std::string>> active;  // name -> rql
    auto fresh_query = [&] {
      std::string name = "q" + std::to_string(name_counter++);
      std::string rql = MakeRql(rng);
      active.push_back({name, rql});
      return std::pair<std::string, std::string>{name, rql};
    };
    for (int i = 0; i < 2; ++i) {
      auto [name, rql] = fresh_query();
      ASSERT_TRUE(churned.AddQueryText(rql, name).ok());
    }
    ASSERT_TRUE(churned.Start().ok());

    // Random interleaving of pushes, adds, and removes.
    int64_t ts = 0;
    for (int step = 0; step < 60; ++step) {
      int64_t r = rng.UniformInt(0, 9);
      if (r < 6) {
        int n = static_cast<int>(rng.UniformInt(1, 4));
        for (int i = 0; i < n; ++i) {
          ASSERT_TRUE(churned
                          .Push("CPU", Tuple::MakeInts(
                                           {rng.UniformInt(0, 3),
                                            rng.UniformInt(0, 100)},
                                           ++ts))
                          .ok());
        }
      } else if (r < 8 || active.size() <= 1) {
        auto [name, rql] = fresh_query();
        ASSERT_TRUE(churned.AddQueryText(rql, name).ok()) << rql;
      } else {
        size_t victim = static_cast<size_t>(
            rng.UniformInt(0, static_cast<int64_t>(active.size()) - 1));
        ASSERT_TRUE(churned.RemoveQuery(active[victim].first).ok());
        active.erase(active.begin() + victim);
      }
    }

    // Reference: a fresh engine over exactly the surviving query set.
    StreamEngine reference;
    ASSERT_TRUE(reference.RegisterSource("CPU", CpuSchema()).ok());
    for (const auto& [name, rql] : active) {
      ASSERT_TRUE(reference.AddQueryText(rql, name).ok());
    }
    ASSERT_TRUE(reference.Start().ok());

    // Window-clearing gap, then a shared evaluation stream into both.
    ts += kMaxWindow + 1;
    Outputs churned_rows, reference_rows;
    bool record = false;
    churned.SetOutputHandler([&](const std::string& q, const Tuple& t) {
      if (record) {
        churned_rows[q].push_back(t.ToString() + "@" + std::to_string(t.ts()));
      }
    });
    reference.SetOutputHandler([&](const std::string& q, const Tuple& t) {
      if (record) {
        reference_rows[q].push_back(t.ToString() + "@" +
                                    std::to_string(t.ts()));
      }
    });
    // The gap tuple itself flushes pre-churn state out of every window; both
    // engines see it, so both hold identical state when recording starts.
    Tuple gap = Tuple::MakeInts({0, 50}, ts);
    ASSERT_TRUE(churned.Push("CPU", gap).ok());
    ASSERT_TRUE(reference.Push("CPU", gap).ok());
    churned.Flush();  // gap outputs must land before recording starts
    record = true;
    for (int i = 0; i < 40; ++i) {
      Tuple t = Tuple::MakeInts(
          {rng.UniformInt(0, 3), rng.UniformInt(0, 100)}, ++ts);
      ASSERT_TRUE(churned.Push("CPU", t).ok());
      ASSERT_TRUE(reference.Push("CPU", t).ok());
    }
    churned.Flush();

    ASSERT_FALSE(active.empty());
    for (const auto& [name, rql] : active) {
      EXPECT_EQ(churned_rows[name], reference_rows[name])
          << "seed " << seed << " shards " << shard_count << " query " << name
          << ": " << rql;
    }
  }
}

TEST(DynamicChurnTest, RandomChurnMatchesFreshEngine) { RunRandomChurn(1); }

TEST(DynamicChurnTest, ChurnWhileShardedMatchesFreshEngine) {
  RunRandomChurn(3);
}

// MergeNewQueryIndexed against the scan-based oracle, at plan level: two
// plans start from the same batch-optimized query set and receive the same
// seeded add/remove/push steps. One merges each add through its ShareIndex,
// the other through the oracle's whole-plan scans; removal on both is
// UnmarkOutput + PruneUnreachable. After every step both plans must explain
// byte for byte alike (ids, members, wiring, counters) and every stream
// must have delivered the same tuples. The start set holds two windows of
// each of ⋈, ; and µ, so the batch s⋈ rule builds shared join and pattern
// m-ops whose members live twins CSE onto, and removes deactivate.

// The pool of live shapes: σ on either source, α with attach targets,
// multi-aggregate zips, and ⋈, ; and µ over the windows the start set uses.
std::string MakeMixedRql(Rng& rng) {
  const std::string window = std::to_string(4 << rng.UniformInt(0, 2));
  switch (rng.UniformInt(0, 9)) {
    case 0:
      return "SELECT * FROM CPU WHERE pid = " +
             std::to_string(rng.UniformInt(0, 3));
    case 1:
      return "SELECT * FROM NET WHERE load > " +
             std::to_string(rng.UniformInt(10, 90));
    case 2:
      return "SELECT pid, AVG(load) FROM CPU [RANGE " + window +
             "] GROUP BY pid";
    case 3:
      return "SELECT pid, MIN(load) FROM CPU [RANGE " + window +
             "] GROUP BY pid";
    case 4:
      return "SELECT pid, SUM(load), MAX(load) FROM CPU [RANGE " + window +
             "] GROUP BY pid";
    case 5:
    case 6:
      return "SELECT * FROM CPU [RANGE " + window + "] JOIN NET [RANGE " +
             window + "] ON CPU.pid = NET.pid";
    case 7:
      return "SELECT * FROM CPU SEQ NET ON CPU.pid = NET.pid WITHIN " +
             window;
    case 8:
      return "SELECT * FROM CPU ITERATE NET ON CPU.pid = NET.pid AND "
             "NET.load > last.load WITHIN " +
             window;
    default:
      return "SELECT COUNT(*) FROM CPU [RANGE " + window + "]";
  }
}

// One plan under test with the executor that runs it.
struct Lane {
  Plan plan;
  CollectingSink sink;
  std::unique_ptr<Executor> exec;
  std::unique_ptr<ShareIndex> index;  // the indexed lane only

  // Every stream's delivered tuples, rendered.
  std::vector<std::vector<std::string>> Rows() const {
    std::vector<std::vector<std::string>> rows(plan.streams().size());
    for (StreamId s = 0; s < static_cast<StreamId>(rows.size()); ++s) {
      for (const Tuple& t : sink.ForStream(s)) {
        rows[s].push_back(t.ToString() + "@" + std::to_string(t.ts()));
      }
    }
    return rows;
  }
};

TEST(DynamicChurnTest, IndexedMergeMatchesScanOracleOnEveryStep) {
  const OptimizerOptions options;
  int live_cse_merges = 0;
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    Rng rng(seed * 0x9e3779b97f4a7c15ull + 2);
    Catalog catalog;
    catalog.AddSource("CPU", CpuSchema());
    catalog.AddSource("NET", CpuSchema());
    Lane indexed, oracle;
    int name_counter = 0;
    std::vector<std::string> active;
    auto parse = [&](const std::string& rql) {
      auto parsed = ParseQuery(rql, catalog);
      RUMOR_CHECK(parsed.ok()) << rql << ": " << parsed.status().ToString();
      Query query = std::move(parsed).value();
      query.name = "q" + std::to_string(name_counter++);
      active.push_back(query.name);
      return query;
    };

    std::vector<std::string> start_rql;
    for (const char* window : {"4", "16"}) {
      const std::string w = window;
      start_rql.push_back("SELECT * FROM CPU [RANGE " + w +
                          "] JOIN NET [RANGE " + w + "] ON CPU.pid = NET.pid");
      start_rql.push_back(
          "SELECT * FROM CPU SEQ NET ON CPU.pid = NET.pid WITHIN " + w);
      start_rql.push_back(
          "SELECT * FROM CPU ITERATE NET ON CPU.pid = NET.pid AND "
          "NET.load > last.load WITHIN " +
          w);
    }
    for (int i = 0; i < 3; ++i) start_rql.push_back(MakeMixedRql(rng));
    for (const std::string& rql : start_rql) {
      Query query = parse(rql);
      for (Lane* lane : {&indexed, &oracle}) {
        ASSERT_TRUE(CompileQuery(query, &lane->plan).ok()) << rql;
      }
    }
    for (Lane* lane : {&indexed, &oracle}) {
      EXPECT_GE(Optimize(&lane->plan, options).shared_join_merges, 3);
      lane->exec = std::make_unique<Executor>(&lane->plan, &lane->sink);
      lane->exec->Prepare();
    }
    indexed.index = std::make_unique<ShareIndex>(&indexed.plan);

    int64_t ts = 0;
    for (int step = 0; step < 80; ++step) {
      const int64_t r = rng.UniformInt(0, 9);
      if (r < 5) {
        const int n = static_cast<int>(rng.UniformInt(1, 4));
        for (int i = 0; i < n; ++i) {
          const std::string source = rng.UniformInt(0, 1) == 0 ? "CPU" : "NET";
          Tuple t = Tuple::MakeInts(
              {rng.UniformInt(0, 3), rng.UniformInt(0, 100)}, ++ts);
          for (Lane* lane : {&indexed, &oracle}) {
            auto id = lane->plan.streams().FindSource(source);
            if (id.has_value()) lane->exec->PushSource(*id, t);
          }
        }
      } else if (r < 8 || active.size() <= 1) {
        const std::string rql = MakeMixedRql(rng);
        Query query = parse(rql);
        const MopId first_fresh = indexed.plan.num_mops();
        for (Lane* lane : {&indexed, &oracle}) {
          ASSERT_TRUE(CompileQuery(query, &lane->plan).ok()) << rql;
        }
        live_cse_merges +=
            MergeNewQueryIndexed(&indexed.plan, indexed.index.get(),
                                 first_fresh, options)
                .cse_merges;
        MergeNewQuery(&oracle.plan, options);
      } else {
        const size_t victim = static_cast<size_t>(
            rng.UniformInt(0, static_cast<int64_t>(active.size()) - 1));
        for (Lane* lane : {&indexed, &oracle}) {
          ASSERT_TRUE(lane->plan.UnmarkOutput(active[victim]));
          PruneUnreachable(&lane->plan);
        }
        indexed.index->Sync();
        active.erase(active.begin() + victim);
      }
      for (Lane* lane : {&indexed, &oracle}) lane->exec->Refresh();
      ASSERT_EQ(ExplainPlan(indexed.plan), ExplainPlan(oracle.plan))
          << "seed " << seed << " step " << step;
      ASSERT_EQ(indexed.Rows(), oracle.Rows())
          << "seed " << seed << " step " << step;
    }
  }
  // Live twins did land on warm m-ops and members.
  EXPECT_GT(live_cse_merges, 0);
}

}  // namespace
}  // namespace rumor
