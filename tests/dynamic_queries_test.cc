// Online query churn (the dynamic-MQO tentpole): AddQuery / RemoveQuery on a
// running engine. Adds merge incrementally onto warm shared operators; a
// removal tears down exactly what no surviving query reaches.
#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "api/stream_engine.h"
#include "rules/share_index.h"

namespace rumor {
namespace {

Schema CpuSchema() {
  return Schema({{"pid", ValueType::kInt}, {"load", ValueType::kInt}});
}

TEST(DynamicQueriesTest, AddAfterStartSeesSubsequentTuples) {
  StreamEngine engine;
  ASSERT_TRUE(engine.RegisterSource("CPU", CpuSchema()).ok());
  ASSERT_TRUE(engine.AddQueryText("SELECT * FROM CPU WHERE load > 50", "HOT")
                  .ok());
  ASSERT_TRUE(engine.Start().ok());
  ASSERT_TRUE(engine.Push("CPU", Tuple::MakeInts({1, 90}, 0)).ok());

  ASSERT_TRUE(engine.AddQueryText("SELECT * FROM CPU WHERE load < 20",
                                  "COLD")
                  .ok());
  EXPECT_EQ(engine.optimize_stats().dynamic_adds, 1);
  ASSERT_TRUE(engine.Push("CPU", Tuple::MakeInts({2, 10}, 1)).ok());
  ASSERT_TRUE(engine.Push("CPU", Tuple::MakeInts({3, 95}, 2)).ok());

  EXPECT_EQ(engine.OutputCount("HOT"), 2);
  EXPECT_EQ(engine.OutputCount("COLD"), 1);
}

TEST(DynamicQueriesTest, IdenticalLiveAddIsAbsorbedByCse) {
  StreamEngine engine;
  ASSERT_TRUE(engine.RegisterSource("CPU", CpuSchema()).ok());
  ASSERT_TRUE(engine.AddQueryText("SELECT * FROM CPU WHERE load > 50", "A")
                  .ok());
  ASSERT_TRUE(engine.Start().ok());
  ASSERT_TRUE(engine.AddQueryText("SELECT * FROM CPU WHERE load > 50", "B")
                  .ok());
  EXPECT_GE(engine.optimize_stats().incremental_cse_merges, 1);
  ASSERT_TRUE(engine.Push("CPU", Tuple::MakeInts({1, 99}, 0)).ok());
  EXPECT_EQ(engine.OutputCount("A"), 1);
  EXPECT_EQ(engine.OutputCount("B"), 1);
}

TEST(DynamicQueriesTest, LiveSelectionSnapsOntoWarmPredicateIndex) {
  StreamEngine engine;
  ASSERT_TRUE(engine.RegisterSource("CPU", CpuSchema()).ok());
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(engine
                    .AddQueryText(
                        "SELECT * FROM CPU WHERE pid = " + std::to_string(i),
                        "Q" + std::to_string(i))
                    .ok());
  }
  ASSERT_TRUE(engine.Start().ok());
  ASSERT_EQ(engine.optimize_stats().predicate_index_merges, 1);

  ASSERT_TRUE(engine.AddQueryText("SELECT * FROM CPU WHERE pid = 4", "Q4")
                  .ok());
  // The new σ attached to the existing index instead of standing alone.
  EXPECT_GE(engine.optimize_stats().incremental_attach_merges, 1);
  for (int pid = 0; pid < 6; ++pid) {
    ASSERT_TRUE(engine.Push("CPU", Tuple::MakeInts({pid, 1}, pid)).ok());
  }
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(engine.OutputCount("Q" + std::to_string(i)), 1) << i;
  }
}

TEST(DynamicQueriesTest, LiveAggregateJoinsSharedEngineWithBackfill) {
  // Reference: both aggregates ran from the start.
  StreamEngine full;
  ASSERT_TRUE(full.RegisterSource("CPU", CpuSchema()).ok());
  ASSERT_TRUE(full.AddQueryText(
                      "SELECT pid, AVG(load) FROM CPU [RANGE 10] GROUP BY pid",
                      "WIDE")
                  .ok());
  ASSERT_TRUE(full.AddQueryText(
                      "SELECT pid, AVG(load) FROM CPU [RANGE 5] GROUP BY pid",
                      "NARROW")
                  .ok());
  // Dynamic: the narrow aggregate arrives mid-stream.
  StreamEngine dyn;
  ASSERT_TRUE(dyn.RegisterSource("CPU", CpuSchema()).ok());
  ASSERT_TRUE(dyn.AddQueryText(
                     "SELECT pid, AVG(load) FROM CPU [RANGE 10] GROUP BY pid",
                     "WIDE")
                  .ok());

  std::map<std::string, std::vector<Tuple>> full_rows, dyn_rows;
  full.SetOutputHandler([&](const std::string& q, const Tuple& t) {
    full_rows[q].push_back(t);
  });
  dyn.SetOutputHandler([&](const std::string& q, const Tuple& t) {
    dyn_rows[q].push_back(t);
  });
  ASSERT_TRUE(full.Start().ok());
  ASSERT_TRUE(dyn.Start().ok());

  int64_t loads[] = {10, 20, 30, 40};
  for (int i = 0; i < 4; ++i) {
    Tuple t = Tuple::MakeInts({1, loads[i]}, i);
    ASSERT_TRUE(full.Push("CPU", t).ok());
    ASSERT_TRUE(dyn.Push("CPU", t).ok());
  }
  ASSERT_TRUE(dyn.AddQueryText(
                     "SELECT pid, AVG(load) FROM CPU [RANGE 5] GROUP BY pid",
                     "NARROW")
                  .ok());
  // The new member joined the warm shared engine (sα attach) and was
  // backfilled from its retained log ...
  EXPECT_GE(dyn.optimize_stats().incremental_attach_merges, 1);
  // ... so from the very next tuple its output matches the
  // ran-from-the-start reference exactly.
  for (int i = 4; i < 8; ++i) {
    Tuple t = Tuple::MakeInts({1, loads[i - 4] + 5}, i);
    ASSERT_TRUE(full.Push("CPU", t).ok());
    ASSERT_TRUE(dyn.Push("CPU", t).ok());
  }
  ASSERT_EQ(dyn_rows["NARROW"].size(), 4u);
  std::vector<Tuple>& ref = full_rows["NARROW"];
  ASSERT_EQ(ref.size(), 8u);
  for (size_t i = 0; i < 4; ++i) {
    const Tuple& got = dyn_rows["NARROW"][i];
    const Tuple& want = ref[i + 4];
    ASSERT_EQ(got.size(), want.size());
    EXPECT_EQ(got.ts(), want.ts()) << i;
    for (int a = 0; a < got.size(); ++a) {
      EXPECT_EQ(got.at(a), want.at(a)) << "row " << i << " attr " << a;
    }
  }
  // WIDE was never disturbed.
  ASSERT_EQ(dyn_rows["WIDE"].size(), full_rows["WIDE"].size());
}

TEST(DynamicQueriesTest, RemoveQueryLeavesSharerByteIdentical) {
  // A and B share one sα engine (same fn/attr, different windows). Removing
  // B mid-stream must leave A's output stream exactly as if B never existed.
  auto make_engine = [](bool with_b) {
    auto engine = std::make_unique<StreamEngine>();
    EXPECT_TRUE(engine->RegisterSource("CPU", CpuSchema()).ok());
    EXPECT_TRUE(engine
                    ->AddQueryText(
                        "SELECT pid, SUM(load) FROM CPU [RANGE 8] GROUP BY pid",
                        "A")
                    .ok());
    if (with_b) {
      EXPECT_TRUE(engine
                      ->AddQueryText(
                          "SELECT pid, SUM(load) FROM CPU [RANGE 3] "
                          "GROUP BY pid",
                          "B")
                      .ok());
    }
    return engine;
  };
  auto with_churn = make_engine(true);
  auto without_b = make_engine(false);
  std::map<std::string, std::vector<std::string>> churn_rows, plain_rows;
  with_churn->SetOutputHandler([&](const std::string& q, const Tuple& t) {
    churn_rows[q].push_back(t.ToString() + "@" + std::to_string(t.ts()));
  });
  without_b->SetOutputHandler([&](const std::string& q, const Tuple& t) {
    plain_rows[q].push_back(t.ToString() + "@" + std::to_string(t.ts()));
  });
  ASSERT_TRUE(with_churn->Start().ok());
  ASSERT_TRUE(without_b->Start().ok());

  for (int i = 0; i < 5; ++i) {
    Tuple t = Tuple::MakeInts({i % 2, 10 + i}, i);
    ASSERT_TRUE(with_churn->Push("CPU", t).ok());
    ASSERT_TRUE(without_b->Push("CPU", t).ok());
  }
  ASSERT_TRUE(with_churn->RemoveQuery("B").ok());
  EXPECT_EQ(with_churn->optimize_stats().dynamic_removes, 1);
  for (int i = 5; i < 10; ++i) {
    Tuple t = Tuple::MakeInts({i % 2, 10 + i}, i);
    ASSERT_TRUE(with_churn->Push("CPU", t).ok());
    ASSERT_TRUE(without_b->Push("CPU", t).ok());
  }
  EXPECT_EQ(churn_rows["A"], plain_rows["A"]);
  // B stopped emitting after removal.
  EXPECT_EQ(churn_rows["B"].size(), 5u);
}

TEST(DynamicQueriesTest, RemoveQueryTearsDownExclusiveOperators) {
  StreamEngine engine;
  ASSERT_TRUE(engine.RegisterSource("CPU", CpuSchema()).ok());
  ASSERT_TRUE(engine.AddQueryText("SELECT * FROM CPU WHERE load > 50", "KEEP")
                  .ok());
  ASSERT_TRUE(engine
                  .AddQueryText(
                      "SELECT pid, MIN(load) FROM CPU [RANGE 10] GROUP BY pid",
                      "GONE")
                  .ok());
  ASSERT_TRUE(engine.Start().ok());
  ASSERT_TRUE(engine.Push("CPU", Tuple::MakeInts({1, 80}, 0)).ok());
  ASSERT_TRUE(engine.RemoveQuery("GONE").ok());
  // The aggregate no surviving query reaches was torn down.
  EXPECT_GE(engine.optimize_stats().pruned_mops, 1);
  ASSERT_TRUE(engine.Push("CPU", Tuple::MakeInts({1, 81}, 1)).ok());
  EXPECT_EQ(engine.OutputCount("KEEP"), 2);
  EXPECT_EQ(engine.OutputCount("GONE"), 1);  // counts persist, no new rows
  EXPECT_EQ(engine.num_queries(), 1);
}

TEST(DynamicQueriesTest, RemoveThenReAddSameName) {
  StreamEngine engine;
  ASSERT_TRUE(engine.RegisterSource("CPU", CpuSchema()).ok());
  ASSERT_TRUE(engine.AddQueryText("SELECT * FROM CPU WHERE load > 50", "Q")
                  .ok());
  ASSERT_TRUE(engine.AddQueryText("SELECT * FROM CPU WHERE load > 10", "R")
                  .ok());
  ASSERT_TRUE(engine.Start().ok());
  ASSERT_TRUE(engine.RemoveQuery("Q").ok());
  ASSERT_TRUE(engine.AddQueryText("SELECT * FROM CPU WHERE load > 90", "Q")
                  .ok());
  ASSERT_TRUE(engine.Push("CPU", Tuple::MakeInts({1, 95}, 0)).ok());
  ASSERT_TRUE(engine.Push("CPU", Tuple::MakeInts({1, 60}, 1)).ok());
  EXPECT_EQ(engine.OutputCount("Q"), 1);
  EXPECT_EQ(engine.OutputCount("R"), 2);
}

// A removed s⋈ member is deactivated and emits nothing, so a live-added
// twin of it must not be member-CSE'd onto its port.
TEST(DynamicQueriesTest, ReAddedJoinSkipsTheDeactivatedMember) {
  StreamEngine engine;
  ASSERT_TRUE(engine.RegisterSource("CPU", CpuSchema()).ok());
  ASSERT_TRUE(engine.RegisterSource("NET", CpuSchema()).ok());
  const std::string narrow =
      "SELECT * FROM CPU [RANGE 10] JOIN NET [RANGE 10] "
      "ON CPU.pid = NET.pid";
  ASSERT_TRUE(engine.AddQueryText(narrow, "J1").ok());
  ASSERT_TRUE(engine
                  .AddQueryText("SELECT * FROM CPU [RANGE 20] JOIN NET "
                                "[RANGE 20] ON CPU.pid = NET.pid",
                                "J2")
                  .ok());
  ASSERT_TRUE(engine.Start().ok());
  EXPECT_EQ(engine.optimize_stats().shared_join_merges, 1);
  ASSERT_TRUE(engine.Push("CPU", Tuple::MakeInts({1, 5}, 0)).ok());
  ASSERT_TRUE(engine.RemoveQuery("J1").ok());
  ASSERT_TRUE(engine.AddQueryText(narrow, "J3").ok());
  ASSERT_TRUE(engine.Push("NET", Tuple::MakeInts({1, 6}, 1)).ok());
  ASSERT_TRUE(engine.Push("CPU", Tuple::MakeInts({1, 7}, 2)).ok());
  EXPECT_EQ(engine.OutputCount("J2"), 2);
  EXPECT_EQ(engine.OutputCount("J3"), 1);  // sees only tuples after its add
}

// A live-added twin of an s;/sµ member reuses the member's port (member
// CSE), so it shares the member's state, instances started before the add
// included, as a twin of an unshared query does through exact CSE.
TEST(DynamicQueriesTest, LiveTwinOfAPatternMemberSharesItsState) {
  for (const std::string op : {"SEQ", "ITERATE"}) {
    SCOPED_TRACE(op);
    StreamEngine engine;
    ASSERT_TRUE(engine.RegisterSource("CPU", CpuSchema()).ok());
    ASSERT_TRUE(engine.RegisterSource("NET", CpuSchema()).ok());
    std::string unbounded =
        "SELECT * FROM CPU " + op + " NET ON CPU.pid = NET.pid";
    if (op == "ITERATE") unbounded += " AND NET.load > last.load";
    ASSERT_TRUE(engine.AddQueryText(unbounded, "A").ok());
    ASSERT_TRUE(engine.AddQueryText(unbounded + " WITHIN 6", "B").ok());
    ASSERT_TRUE(engine.Start().ok());
    EXPECT_EQ(engine.optimize_stats().shared_join_merges, 1);
    ASSERT_TRUE(engine.Push("CPU", Tuple::MakeInts({1, 5}, 0)).ok());
    ASSERT_TRUE(engine.AddQueryText(unbounded, "C").ok());
    EXPECT_EQ(engine.optimize_stats().incremental_cse_merges, 1);
    ASSERT_TRUE(engine.Push("NET", Tuple::MakeInts({1, 6}, 10)).ok());
    EXPECT_EQ(engine.OutputCount("A"), 1);
    EXPECT_EQ(engine.OutputCount("B"), 0);  // the instance is 10 old
    EXPECT_EQ(engine.OutputCount("C"), 1);  // started before C's add
    // With A and C gone the member is deactivated, and a new twin must
    // not land on its silent port.
    ASSERT_TRUE(engine.RemoveQuery("A").ok());
    ASSERT_TRUE(engine.RemoveQuery("C").ok());
    ASSERT_TRUE(engine.AddQueryText(unbounded, "D").ok());
    ASSERT_TRUE(engine.Push("CPU", Tuple::MakeInts({2, 5}, 20)).ok());
    ASSERT_TRUE(engine.Push("NET", Tuple::MakeInts({2, 6}, 21)).ok());
    EXPECT_EQ(engine.OutputCount("B"), 1);
    EXPECT_EQ(engine.OutputCount("D"), 1);
  }
}

TEST(DynamicQueriesTest, ChurnFromInsideAHandlerIsRejected) {
  StreamEngine engine;
  ASSERT_TRUE(engine.RegisterSource("CPU", CpuSchema()).ok());
  ASSERT_TRUE(engine.AddQueryText("SELECT * FROM CPU", "Q").ok());
  Status add_status = Status::OK();
  Status remove_status = Status::OK();
  engine.SetOutputHandler([&](const std::string&, const Tuple&) {
    add_status = engine.AddQueryText("SELECT * FROM CPU WHERE load > 1", "Z");
    remove_status = engine.RemoveQuery("Q");
  });
  ASSERT_TRUE(engine.Start().ok());
  ASSERT_TRUE(engine.Push("CPU", Tuple::MakeInts({1, 2}, 0)).ok());
  EXPECT_FALSE(add_status.ok());
  EXPECT_FALSE(remove_status.ok());
  // The engine stays usable.
  ASSERT_TRUE(engine.Push("CPU", Tuple::MakeInts({1, 3}, 1)).ok());
  EXPECT_EQ(engine.OutputCount("Q"), 2);
}

TEST(DynamicQueriesTest, FailedLiveAddRollsBackCleanly) {
  StreamEngine engine;
  ASSERT_TRUE(engine.RegisterSource("CPU", CpuSchema()).ok());
  ASSERT_TRUE(engine.AddQueryText("SELECT * FROM CPU", "Q").ok());
  ASSERT_TRUE(engine.Start().ok());
  // Unknown attribute: parse/compile fails; the live plan must be intact.
  EXPECT_FALSE(engine.AddQueryText("SELECT * FROM CPU WHERE nope > 1", "BAD")
                   .ok());
  EXPECT_EQ(engine.num_queries(), 1);
  ASSERT_TRUE(engine.Push("CPU", Tuple::MakeInts({1, 2}, 0)).ok());
  EXPECT_EQ(engine.OutputCount("Q"), 1);
  // And a later valid add still works.
  ASSERT_TRUE(engine.AddQueryText("SELECT * FROM CPU WHERE load > 1", "OK2")
                  .ok());
  ASSERT_TRUE(engine.Push("CPU", Tuple::MakeInts({1, 5}, 1)).ok());
  EXPECT_EQ(engine.OutputCount("OK2"), 1);
}

TEST(DynamicQueriesTest, LiveAddOnNewlyRegisteredSource) {
  StreamEngine engine;
  ASSERT_TRUE(engine.RegisterSource("CPU", CpuSchema()).ok());
  ASSERT_TRUE(engine.AddQueryText("SELECT * FROM CPU", "Q").ok());
  ASSERT_TRUE(engine.Start().ok());
  ASSERT_TRUE(engine.RegisterSource("NET", Schema::MakeInts(2)).ok());
  ASSERT_TRUE(engine.AddQueryText("SELECT * FROM NET WHERE a0 = 7", "N").ok());
  ASSERT_TRUE(engine.Push("NET", Tuple::MakeInts({7, 1}, 0)).ok());
  EXPECT_EQ(engine.OutputCount("N"), 1);
}

TEST(DynamicQueriesTest, BatchedPushesAcrossChurnMatchPerTuple) {
  // Executor re-wiring across add/remove must not disturb the batched
  // dispatch path (routes and per-channel buffers are rebuilt in place).
  auto drive = [](bool batched) {
    StreamEngine engine;
    EXPECT_TRUE(engine.RegisterSource("CPU", CpuSchema()).ok());
    EXPECT_TRUE(engine
                    .AddQueryText(
                        "SELECT pid, SUM(load) FROM CPU [RANGE 16] "
                        "GROUP BY pid",
                        "S")
                    .ok());
    std::map<std::string, std::vector<std::string>> rows;
    engine.SetOutputHandler([&](const std::string& q, const Tuple& t) {
      rows[q].push_back(t.ToString() + "@" + std::to_string(t.ts()));
    });
    EXPECT_TRUE(engine.Start().ok());
    int64_t ts = 0;
    auto feed = [&](int n) {
      std::vector<Tuple> tuples;
      for (int i = 0; i < n; ++i) {
        tuples.push_back(Tuple::MakeInts({i % 3, (i * 7) % 50}, ++ts));
      }
      if (batched) {
        EXPECT_TRUE(engine.PushBatch("CPU", tuples).ok());
      } else {
        for (const Tuple& t : tuples) {
          EXPECT_TRUE(engine.Push("CPU", t).ok());
        }
      }
    };
    feed(20);
    EXPECT_TRUE(engine
                    .AddQueryText(
                        "SELECT pid, SUM(load) FROM CPU [RANGE 8] "
                        "GROUP BY pid",
                        "T")
                    .ok());
    feed(20);
    EXPECT_TRUE(engine.RemoveQuery("S").ok());
    feed(20);
    return rows;
  };
  EXPECT_EQ(drive(true), drive(false));
}

TEST(DynamicQueriesTest, ChurnReusesDeactivatedAggregateSlots) {
  // Add/remove cycles of an aggregate sharing a warm sα engine must reuse
  // the deactivated member slot, not grow the member set without bound.
  StreamEngine engine;
  ASSERT_TRUE(engine.RegisterSource("CPU", CpuSchema()).ok());
  ASSERT_TRUE(engine.AddQueryText(
                      "SELECT pid, AVG(load) FROM CPU [RANGE 10] GROUP BY pid",
                      "KEEP")
                  .ok());
  ASSERT_TRUE(engine.Start().ok());
  const std::string churn_rql =
      "SELECT pid, AVG(load) FROM CPU [RANGE 5] GROUP BY pid";
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(engine.AddQueryText(churn_rql, "CHURN").ok());
    ASSERT_TRUE(engine.Push("CPU", Tuple::MakeInts({1, 10 + i}, i)).ok());
    ASSERT_TRUE(engine.RemoveQuery("CHURN").ok());
  }
  // The shared aggregate still has exactly two member slots (KEEP + the
  // recycled churn slot), not twelve.
  std::string report = engine.Explain();
  EXPECT_NE(report.find("sα"), std::string::npos);
  EXPECT_NE(report.find("[2]"), std::string::npos);
  EXPECT_EQ(report.find("[3]"), std::string::npos) << report;
  // And a final re-add still produces correct, backfilled output.
  std::vector<Tuple> rows;
  engine.SetOutputHandler([&](const std::string& q, const Tuple& t) {
    if (q == "CHURN") rows.push_back(t);
  });
  ASSERT_TRUE(engine.AddQueryText(churn_rql, "CHURN").ok());
  ASSERT_TRUE(engine.Push("CPU", Tuple::MakeInts({1, 100}, 12)).ok());
  ASSERT_EQ(rows.size(), 1u);
  // Window (7, 12]: loads 18 (ts 8), 19 (ts 9), 100 (ts 12).
  EXPECT_DOUBLE_EQ(rows[0].at(1).AsDouble(), (18 + 19 + 100) / 3.0);
}

TEST(DynamicQueriesTest, ChurnReusesDeactivatedIndexSlots) {
  // The σ twin of ChurnReusesDeactivatedAggregateSlots: add/remove cycles
  // of a selection on a warm predicate index deactivate its member and reuse
  // the slot, so the index keeps its m-op id and its slot count, and its
  // probe counters keep counting across removes.
  StreamEngine engine;
  ASSERT_TRUE(engine.RegisterSource("CPU", CpuSchema()).ok());
  ASSERT_TRUE(engine.AddQueryText("SELECT * FROM CPU WHERE pid = 1", "K1")
                  .ok());
  ASSERT_TRUE(engine.AddQueryText("SELECT * FROM CPU WHERE pid = 2", "K2")
                  .ok());
  ASSERT_TRUE(engine.Start().ok());
  const Plan& plan = *engine.share_index_for_testing()->plan();
  auto index_id = [&plan] {
    for (MopId id : plan.LiveMops()) {
      if (plan.mop(id).type() == MopType::kPredicateIndex) return id;
    }
    return kInvalidMop;
  };
  const MopId index = index_id();
  ASSERT_NE(index, kInvalidMop);
  for (int i = 0; i < 10; ++i) {
    const std::string rql = "SELECT * FROM CPU WHERE pid = " +
                            std::to_string(3 + i % 4) + " AND load > " +
                            std::to_string(i);
    ASSERT_TRUE(engine.AddQueryText(rql, "CHURN").ok());
    ASSERT_TRUE(engine.Push("CPU", Tuple::MakeInts({1, 10 + i}, i)).ok());
    const int64_t probes = engine.CollectMetrics().flat_probes;
    if (RUMOR_METRICS_ENABLED) {
      EXPECT_GT(probes, 0);
    }
    ASSERT_TRUE(engine.RemoveQuery("CHURN").ok());
    EXPECT_EQ(engine.CollectMetrics().flat_probes, probes) << "cycle " << i;
    ASSERT_EQ(index_id(), index) << "cycle " << i;
    EXPECT_EQ(plan.mop(index).num_members(), 3) << "cycle " << i;
  }
  // A final re-add takes the recycled slot and sees what follows it.
  std::vector<Tuple> rows;
  engine.SetOutputHandler([&](const std::string& q, const Tuple& t) {
    if (q == "CHURN") rows.push_back(t);
  });
  ASSERT_TRUE(
      engine.AddQueryText("SELECT * FROM CPU WHERE pid = 5 AND load > 50",
                          "CHURN")
          .ok());
  EXPECT_EQ(plan.mop(index).num_members(), 3);
  ASSERT_TRUE(engine.Push("CPU", Tuple::MakeInts({5, 40}, 20)).ok());
  ASSERT_TRUE(engine.Push("CPU", Tuple::MakeInts({5, 60}, 21)).ok());
  ASSERT_TRUE(engine.Push("CPU", Tuple::MakeInts({1, 70}, 22)).ok());
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0].ts(), 21);
  EXPECT_EQ(engine.OutputCount("K1"), 11);
}

TEST(DynamicQueriesTest, QueryNamesAreCaseInsensitive) {
  // Catalog resolution is case-insensitive, so query identity must be too —
  // otherwise removing "q" would strip the catalog entry of "Q".
  StreamEngine engine;
  ASSERT_TRUE(engine.RegisterSource("CPU", CpuSchema()).ok());
  ASSERT_TRUE(engine.AddQueryText("SELECT * FROM CPU", "q").ok());
  EXPECT_EQ(engine.AddQueryText("SELECT * FROM CPU WHERE load > 1", "Q")
                .code(),
            StatusCode::kAlreadyExists);
  ASSERT_TRUE(engine.Start().ok());
  ASSERT_TRUE(engine.RemoveQuery("Q").ok());  // removes "q"
  EXPECT_EQ(engine.num_queries(), 0);
}

TEST(DynamicQueriesTest, ExplainReflectsLivePlan) {
  StreamEngine engine;
  ASSERT_TRUE(engine.RegisterSource("CPU", CpuSchema()).ok());
  ASSERT_TRUE(engine.AddQueryText("SELECT * FROM CPU WHERE pid = 0", "Q0")
                  .ok());
  ASSERT_TRUE(engine.AddQueryText("SELECT * FROM CPU WHERE pid = 1", "Q1")
                  .ok());
  ASSERT_TRUE(engine.Start().ok());
  ASSERT_TRUE(engine.AddQueryText("SELECT * FROM CPU WHERE pid = 2", "Q2")
                  .ok());
  std::string report = engine.Explain();
  EXPECT_NE(report.find("σ-index"), std::string::npos);
  EXPECT_NE(report.find("[3]"), std::string::npos);  // 3 members post-attach
  EXPECT_NE(report.find("Q2"), std::string::npos);
}

}  // namespace
}  // namespace rumor
