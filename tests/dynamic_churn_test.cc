// The indexed live merge against the scan-based oracle, at plan level. That
// the churned engine matches a fresh engine over the surviving queries is
// the MQO oracle's churn axis (mqo_oracle_test).
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

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

Schema CpuSchema() {
  return Schema({{"pid", ValueType::kInt}, {"load", ValueType::kInt}});
}

// MergeNewQueryIndexed against the scan-based oracle, at plan level: two
// plans start from the same batch-optimized query set and receive the same
// seeded add/remove/push steps. One merges each add through its ShareIndex,
// the other through the oracle's whole-plan scans; removal on both is
// UnmarkOutput + PruneUnreachable, and both end each add and remove with
// TrimTail, as the engine does. After every step both plans must explain
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
        for (Lane* lane : {&indexed, &oracle}) lane->plan.TrimTail();
      } else {
        const size_t victim = static_cast<size_t>(
            rng.UniformInt(0, static_cast<int64_t>(active.size()) - 1));
        for (Lane* lane : {&indexed, &oracle}) {
          ASSERT_TRUE(lane->plan.UnmarkOutput(active[victim]));
          PruneUnreachable(&lane->plan);
          lane->plan.TrimTail();
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
