#include "api/stream_engine.h"

#include <gtest/gtest.h>

#include <limits>
#include <map>
#include <string>
#include <vector>

#include "labelled_sources.h"
#include "query/builder.h"

namespace rumor {
namespace {

Schema CpuSchema() {
  return Schema({{"pid", ValueType::kInt}, {"load", ValueType::kInt}});
}

TEST(StreamEngineTest, LabelledSourcesDeliverThroughTheirGroupChannel) {
  std::string plan, unused;
  const auto got = RunLabelledSources(/*channels=*/true, 1, &plan);
  EXPECT_NE(plan.find("cσ"), std::string::npos) << plan;
  EXPECT_NE(plan.find("cα"), std::string::npos) << plan;
  EXPECT_EQ(got, RunLabelledSources(/*channels=*/false, 1, &unused));
  // 34 of the 40 events per source pass a0 > 5; L1 sees 20..39, a1 = 1;
  // P1 sees every event of S1 once, P2 and P3 the 20 after their live add.
  ASSERT_EQ(got.count("Q1"), 1u);
  EXPECT_EQ(got.at("Q1").size(), 34u);
  EXPECT_EQ(got.at("Q2").size(), 34u);
  EXPECT_EQ(got.at("A1").size(), 40u);
  EXPECT_EQ(got.at("L1").size(), 6u);
  ASSERT_EQ(got.count("P1"), 1u);
  EXPECT_EQ(got.at("P1").size(), 40u);
  EXPECT_EQ(got.at("P2").size(), 20u);
  EXPECT_EQ(got.at("P3").size(), 20u);
}

TEST(StreamEngineTest, EndToEndWithRqlScript) {
  StreamEngine engine;
  ASSERT_TRUE(engine.RegisterSource("CPU", CpuSchema()).ok());
  ASSERT_TRUE(engine
                  .AddScript("HOT: SELECT * FROM CPU WHERE load > 90;"
                             "COLD: SELECT * FROM CPU WHERE load < 5;")
                  .ok());
  std::map<std::string, int> counts;
  engine.SetOutputHandler(
      [&](const std::string& q, const Tuple&) { ++counts[q]; });
  ASSERT_TRUE(engine.Start().ok());
  ASSERT_TRUE(engine.Push("CPU", Tuple::MakeInts({1, 95}, 0)).ok());
  ASSERT_TRUE(engine.Push("CPU", Tuple::MakeInts({2, 2}, 1)).ok());
  ASSERT_TRUE(engine.Push("CPU", Tuple::MakeInts({3, 50}, 2)).ok());
  EXPECT_EQ(counts["HOT"], 1);
  EXPECT_EQ(counts["COLD"], 1);
  EXPECT_EQ(engine.OutputCount("HOT"), 1);
  EXPECT_EQ(engine.OutputCount("COLD"), 1);
}

TEST(StreamEngineTest, BuilderQueriesAndScriptMix) {
  StreamEngine engine;
  ASSERT_TRUE(engine.RegisterSource("CPU", CpuSchema()).ok());
  Query q = QueryBuilder::FromSource("CPU", CpuSchema())
                .Select("pid = 7")
                .Build("pid7");
  ASSERT_TRUE(engine.AddQuery(q).ok());
  ASSERT_TRUE(
      engine.AddQueryText("SELECT * FROM pid7 WHERE load > 50", "hot7")
          .ok());  // references the builder query by name
  ASSERT_TRUE(engine.Start().ok());
  ASSERT_TRUE(engine.Push("CPU", Tuple::MakeInts({7, 80}, 0)).ok());
  ASSERT_TRUE(engine.Push("CPU", Tuple::MakeInts({7, 10}, 1)).ok());
  EXPECT_EQ(engine.OutputCount("pid7"), 2);
  EXPECT_EQ(engine.OutputCount("hot7"), 1);
}

TEST(StreamEngineTest, CseMergedQueriesBothFire) {
  StreamEngine engine;
  ASSERT_TRUE(engine.RegisterSource("CPU", CpuSchema()).ok());
  ASSERT_TRUE(
      engine.AddQueryText("SELECT * FROM CPU WHERE load > 90", "A").ok());
  ASSERT_TRUE(
      engine.AddQueryText("SELECT * FROM CPU WHERE load > 90", "B").ok());
  ASSERT_TRUE(engine.Start().ok());
  EXPECT_EQ(engine.optimize_stats().cse_merges, 1);
  ASSERT_TRUE(engine.Push("CPU", Tuple::MakeInts({1, 99}, 0)).ok());
  EXPECT_EQ(engine.OutputCount("A"), 1);
  EXPECT_EQ(engine.OutputCount("B"), 1);
}

TEST(StreamEngineTest, OptimizerStatsExposed) {
  StreamEngine engine;
  ASSERT_TRUE(engine.RegisterSource("CPU", CpuSchema()).ok());
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(engine
                    .AddQueryText(
                        "SELECT * FROM CPU WHERE pid = " + std::to_string(i),
                        "Q" + std::to_string(i))
                    .ok());
  }
  ASSERT_TRUE(engine.Start().ok());
  EXPECT_EQ(engine.optimize_stats().predicate_index_merges, 1);
  EXPECT_NE(engine.Explain().find("σ-index"), std::string::npos);
}

// RQL that parses but cannot run is refused when added, with a Status:
// out-of-range literals, non-boolean predicates or AND/OR/NOT operands,
// string operands of arithmetic, and aggregate windows that are not
// positive.
TEST(StreamEngineTest, RejectsQueriesThatCannotRun) {
  StreamEngine engine;
  ASSERT_TRUE(engine.RegisterSource("S", Schema::MakeInts(2)).ok());
  ASSERT_TRUE(engine.RegisterSource("T", Schema::MakeInts(2)).ok());
  ASSERT_TRUE(
      engine.RegisterSource("N", Schema({{"name", ValueType::kString}})).ok());
  const std::string tiny = "0." + std::string(400, '0') + "1";
  for (const std::string& rql : {
           std::string("SELECT * FROM S WHERE a0 > 99999999999999999999"),
           "SELECT * FROM S WHERE a0 > 1" + std::string(400, '0') + ".5",
           "SELECT * FROM S WHERE a0 > " + tiny,
           std::string("SELECT * FROM S WHERE a0 AND a1 > 2"),
           std::string("SELECT * FROM S WHERE NOT a0"),
           std::string("SELECT * FROM S WHERE a0 - 3"),
           std::string("SELECT * FROM S [RANGE 5] JOIN T [RANGE 5] "
                       "ON S.a0 * T.a0"),
           std::string("SELECT * FROM S WHERE a0 + 'x' > 1"),
           std::string("SELECT SUM(name) FROM N [RANGE 5]"),
           std::string("SELECT COUNT(*) FROM S [RANGE 0]"),
           std::string("SELECT a0, SUM(a1) FROM S [RANGE 0] GROUP BY a0"),
       }) {
    const Status st = engine.AddQueryText(rql, "Q");
    EXPECT_EQ(st.code(), StatusCode::kInvalidArgument)
        << rql << ": " << st.ToString();
  }
  // RQL windows are not negative; a builder join's must not be either.
  const auto s = QueryBuilder::FromSource("S", Schema::MakeInts(2));
  const auto t = QueryBuilder::FromSource("T", Schema::MakeInts(2));
  EXPECT_EQ(engine.AddQuery(s.Join(t, "S.a0 = T.a0", -1, 4).Build("J")).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(engine.num_queries(), 0);
}

// MIN and MAX order strings; only SUM and AVG need numbers.
TEST(StreamEngineTest, MinAndMaxOfStrings) {
  StreamEngine engine;
  ASSERT_TRUE(engine
                  .RegisterSource("N", Schema({{"k", ValueType::kInt},
                                               {"name", ValueType::kString}}))
                  .ok());
  ASSERT_TRUE(engine
                  .AddScript("LO: SELECT MIN(name) FROM N [RANGE 2];"
                             "HI: SELECT k, MAX(name) FROM N [RANGE 5] "
                             "GROUP BY k;")
                  .ok());
  std::map<std::string, std::vector<std::string>> out;
  engine.SetOutputHandler([&](const std::string& q, const Tuple& t) {
    out[q].push_back(t.at(t.size() - 1).AsString());
  });
  ASSERT_TRUE(engine.Start().ok());
  const char* names[] = {"pear", "fig", "kiwi", "apple", "plum"};
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(
        engine.Push("N", Tuple::Make({Value(int64_t{i % 2}), Value(names[i])},
                                     i))
            .ok());
  }
  // RANGE 2 holds the two newest names; k alternates 0, 1, 0, 1, 0.
  EXPECT_EQ(out["LO"], (std::vector<std::string>{"pear", "fig", "fig", "apple",
                                                  "apple"}));
  EXPECT_EQ(out["HI"], (std::vector<std::string>{"pear", "fig", "pear", "fig",
                                                  "plum"}));
}

// Arithmetic that has no value — division or modulo by zero, modulo of a
// double — is null at run time: comparisons with it are false, and a
// projection that yields it drops the tuple. Nothing aborts.
TEST(StreamEngineTest, ArithmeticWithoutAValueIsNull) {
  StreamEngine engine;
  ASSERT_TRUE(engine.RegisterSource("S", Schema::MakeInts(2)).ok());
  ASSERT_TRUE(engine
                  .AddScript("D: SELECT * FROM S WHERE a1 / a0 > 1;"
                             "M: SELECT * FROM S WHERE a1 % 2 = 1;"
                             "W: SELECT * FROM S WHERE a0 + a1 < 0;")
                  .ok());
  SchemaMap quotient;  // RQL has no computed columns; the builder does
  quotient.Add("q", Expr::Arith(ArithOp::kDiv, Expr::Attr(Side::kLeft, 1),
                                Expr::Attr(Side::kLeft, 0)));
  ASSERT_TRUE(engine
                  .AddQuery(QueryBuilder::FromSource("S", Schema::MakeInts(2))
                                .Project(quotient)
                                .Build("P"))
                  .ok());
  std::map<std::string, std::vector<std::string>> out;
  engine.SetOutputHandler([&](const std::string& q, const Tuple& t) {
    out[q].push_back(t.ToString());
  });
  ASSERT_TRUE(engine.Start().ok());
  constexpr int64_t kMax = std::numeric_limits<int64_t>::max();
  ASSERT_TRUE(engine.Push("S", Tuple::MakeInts({0, 5}, 0)).ok());
  ASSERT_TRUE(engine.Push("S", Tuple::MakeInts({2, 5}, 1)).ok());
  ASSERT_TRUE(
      engine.Push("S", Tuple::Make({Value(int64_t{2}), Value(5.0)}, 2)).ok());
  ASSERT_TRUE(engine.Push("S", Tuple::MakeInts({kMax, 1}, 3)).ok());
  // a1 / a0: null, 2, 2.5, 0.
  EXPECT_EQ(out["D"].size(), 2u);
  // a1 % 2: 1, 1, null (a double), 1.
  EXPECT_EQ(out["M"].size(), 3u);
  EXPECT_EQ(out["P"].size(), 3u);
  // INT64_MAX + 1 wraps to INT64_MIN.
  EXPECT_EQ(out["W"].size(), 1u);
}

TEST(StreamEngineTest, ErrorsAreSurfaced) {
  StreamEngine engine;
  ASSERT_TRUE(engine.RegisterSource("CPU", CpuSchema()).ok());
  // Duplicate source.
  EXPECT_EQ(engine.RegisterSource("CPU", CpuSchema()).code(),
            StatusCode::kAlreadyExists);
  // Bad RQL.
  EXPECT_FALSE(engine.AddQueryText("SELECT FROM nothing", "X").ok());
  // Unknown stream in query.
  EXPECT_EQ(engine.AddQueryText("SELECT * FROM NOPE", "Y").code(),
            StatusCode::kNotFound);
  // Start without queries.
  EXPECT_FALSE(engine.Start().ok());
  // Push before start.
  EXPECT_FALSE(engine.Push("CPU", Tuple::MakeInts({1, 1}, 0)).ok());
}

// Ingress rejects wrong-arity tuples and regressing timestamps with
// InvalidArgument, checks a whole batch before pushing any of it, and keeps
// working afterwards — single-threaded and sharded.
TEST(StreamEngineTest, IngressRejectsBadTuples) {
  for (int shards : {1, 2}) {
    SCOPED_TRACE(shards);
    StreamEngine engine;
    ASSERT_TRUE(engine.SetShardCount(shards).ok());
    ASSERT_TRUE(engine.RegisterSource("CPU", CpuSchema()).ok());
    ASSERT_TRUE(engine
                    .AddQueryText(
                        "SELECT pid, COUNT(*) FROM CPU [RANGE 100] GROUP BY pid",
                        "C")
                    .ok());
    ASSERT_TRUE(engine.AddQueryText("SELECT * FROM CPU", "ALL").ok());
    // Each of these aborted on a string or null value before ingress
    // checked value types.
    ASSERT_TRUE(engine
                    .AddQueryText(
                        "SELECT pid, SUM(load) FROM CPU [RANGE 10] GROUP BY pid",
                        "SUM")
                    .ok());
    ASSERT_TRUE(engine
                    .AddQueryText(
                        "SELECT pid, MAX(load) FROM CPU [RANGE 10] GROUP BY pid",
                        "MAX")
                    .ok());
    ASSERT_TRUE(
        engine.AddQueryText("SELECT * FROM CPU WHERE pid + 1 > 5", "ARITH")
            .ok());
    ASSERT_TRUE(
        engine.AddQueryText("SELECT * FROM CPU WHERE pid > 5", "CMP").ok());
    ASSERT_TRUE(engine
                    .RegisterSource("TAG", Schema({{"name", ValueType::kString},
                                                   {"on", ValueType::kBool}}))
                    .ok());
    ASSERT_TRUE(engine.AddQueryText("SELECT * FROM TAG", "TAGS").ok());
    std::vector<std::string> seen;
    engine.SetOutputHandler([&](const std::string& q, const Tuple& t) {
      if (q == "ALL") seen.push_back(t.ToString());
    });
    ASSERT_TRUE(engine.Start().ok());
    auto bad = [](const Status& s) {
      return s.code() == StatusCode::kInvalidArgument;
    };

    ASSERT_TRUE(engine.Push("CPU", Tuple::MakeInts({1, 5}, 10)).ok());
    EXPECT_TRUE(bad(engine.Push("CPU", Tuple::MakeInts({1, 5, 7}, 11))));
    EXPECT_TRUE(bad(engine.Push("CPU", Tuple::MakeInts({1}, 11))));
    EXPECT_TRUE(bad(engine.Push("CPU", Tuple::MakeInts({1, 5}, 9))));
    // Equal timestamps are fine.
    ASSERT_TRUE(engine.Push("CPU", Tuple::MakeInts({2, 5}, 10)).ok());

    // A bad tuple anywhere in a batch rejects all of it.
    std::vector<Tuple> regress = {Tuple::MakeInts({3, 1}, 12),
                                  Tuple::MakeInts({3, 2}, 11)};
    EXPECT_TRUE(bad(engine.PushBatch("CPU", regress)));
    std::vector<Tuple> narrow = {Tuple::MakeInts({4, 1}, 12),
                                 Tuple::MakeInts({4}, 13)};
    EXPECT_TRUE(bad(engine.PushBatch("CPU", narrow)));
    std::vector<Tuple> stale = {Tuple::MakeInts({5, 1}, 8)};
    EXPECT_TRUE(bad(engine.PushBatch("CPU", stale)));
    // Rejected batches did not advance the source's last timestamp.
    std::vector<Tuple> good = {Tuple::MakeInts({6, 1}, 11),
                               Tuple::MakeInts({6, 2}, 11)};
    ASSERT_TRUE(engine.PushBatch("CPU", good).ok());
    EXPECT_TRUE(bad(engine.Push("CPU", Tuple::MakeInts({7, 1}, 10))));

    // Int columns take ints and doubles, never strings, bools or nulls.
    const Value seven(int64_t{7});
    EXPECT_TRUE(bad(engine.Push("CPU", Tuple::Make({seven, Value("x")}, 12))));
    EXPECT_TRUE(bad(engine.Push("CPU", Tuple::Make({seven, Value()}, 12))));
    EXPECT_TRUE(bad(engine.Push("CPU", Tuple::Make({Value(), seven}, 12))));
    EXPECT_TRUE(bad(engine.Push("CPU", Tuple::Make({seven, Value(true)}, 12))));
    std::vector<Tuple> mistyped = {Tuple::Make({seven, Value(2.5)}, 12),
                                   Tuple::Make({seven, Value("x")}, 13)};
    EXPECT_TRUE(bad(engine.PushBatch("CPU", mistyped)));
    // The rejected batch pushed nothing and left the last timestamp at 11.
    const Tuple doubles = Tuple::Make({Value(8.0), Value(2.5)}, 11);
    ASSERT_TRUE(engine.PushBatch("CPU", std::vector<Tuple>{doubles}).ok());

    // String and bool columns take only their own type.
    const Tuple tag = Tuple::Make({Value("a"), Value(true)}, 1);
    ASSERT_TRUE(engine.Push("TAG", tag).ok());
    EXPECT_TRUE(bad(engine.Push("TAG", Tuple::Make({seven, Value(true)}, 2))));
    EXPECT_TRUE(bad(engine.Push("TAG", Tuple::Make({Value("a"), seven}, 2))));
    EXPECT_TRUE(bad(engine.Push("TAG", Tuple::Make({Value("a"), Value()}, 2))));
    std::vector<Tuple> mixed = {tag, Tuple::Make({Value(1.5), Value(true)}, 2)};
    EXPECT_TRUE(bad(engine.PushBatch("TAG", mixed)));

    engine.Flush();
    EXPECT_EQ(seen, (std::vector<std::string>{
                        Tuple::MakeInts({1, 5}, 10).ToString(),
                        Tuple::MakeInts({2, 5}, 10).ToString(),
                        Tuple::MakeInts({6, 1}, 11).ToString(),
                        Tuple::MakeInts({6, 2}, 11).ToString(),
                        doubles.ToString()}));
    EXPECT_EQ(engine.OutputCount("C"), 5);
    EXPECT_EQ(engine.OutputCount("SUM"), 5);
    EXPECT_EQ(engine.OutputCount("MAX"), 5);
    EXPECT_EQ(engine.OutputCount("ARITH"), 3);
    EXPECT_EQ(engine.OutputCount("CMP"), 3);
    EXPECT_EQ(engine.OutputCount("TAGS"), 1);
  }
}

TEST(StreamEngineTest, LifecycleGuards) {
  StreamEngine engine;
  EXPECT_EQ(engine.state(), StreamEngine::State::kConfiguring);
  ASSERT_TRUE(engine.RegisterSource("CPU", CpuSchema()).ok());
  ASSERT_TRUE(engine.AddQueryText("SELECT * FROM CPU", "Q").ok());
  ASSERT_TRUE(engine.Start().ok());
  EXPECT_EQ(engine.state(), StreamEngine::State::kRunning);
  // The query set is dynamic: adds stay legal on a running engine (new
  // sources too), but duplicate names and double Start are rejected.
  EXPECT_TRUE(engine.RegisterSource("X", CpuSchema()).ok());
  EXPECT_TRUE(engine.AddQueryText("SELECT * FROM CPU", "Z").ok());
  EXPECT_EQ(engine.AddQueryText("SELECT * FROM CPU", "Z").code(),
            StatusCode::kAlreadyExists);
  EXPECT_FALSE(engine.Start().ok());
  EXPECT_EQ(engine.num_queries(), 2);
  // Pushing to an unconsumed source name fails cleanly.
  EXPECT_EQ(engine.Push("GONE", Tuple::MakeInts({0, 0}, 0)).code(),
            StatusCode::kNotFound);
  // Removing an unknown query fails cleanly; removing a live one works.
  EXPECT_EQ(engine.RemoveQuery("NOPE").code(), StatusCode::kNotFound);
  EXPECT_TRUE(engine.RemoveQuery("Z").ok());
  EXPECT_EQ(engine.num_queries(), 1);
}

// A query that another live query's RQL text reads by name stays: the
// reader's text, which a checkpoint saves and a restore re-parses, names it.
// The refusal changes nothing, and once the reader is gone the query goes.
TEST(StreamEngineTest, RemoveQueryKeepsAQueryThatAnotherReads) {
  for (const bool started : {false, true}) {
    SCOPED_TRACE(started ? "running" : "configuring");
    StreamEngine engine;
    std::map<std::string, int> seen;
    engine.SetOutputHandler(
        [&seen](const std::string& q, const Tuple&) { ++seen[q]; });
    ASSERT_TRUE(engine.RegisterSource("S", CpuSchema()).ok());
    ASSERT_TRUE(engine
                    .AddScript("A: SELECT * FROM S WHERE pid > 1;"
                               "B: SELECT pid, COUNT(*) FROM A [RANGE 10] "
                               "GROUP BY pid;")
                    .ok());
    if (started) {
      ASSERT_TRUE(engine.Start().ok());
    }
    const Status st = engine.RemoveQuery("a");
    EXPECT_EQ(st.code(), StatusCode::kFailedPrecondition) << st.ToString();
    EXPECT_NE(st.message().find("'B'"), std::string::npos) << st.ToString();
    EXPECT_EQ(engine.num_queries(), 2);
    if (!started) {
      ASSERT_TRUE(engine.Start().ok());
    }
    ASSERT_TRUE(engine.Push("S", Tuple::MakeInts({2, 5}, 0)).ok());
    EXPECT_EQ(seen["A"], 1);
    EXPECT_EQ(seen["B"], 1);

    std::string snapshot;
    ASSERT_TRUE(engine.Checkpoint(&snapshot).ok());
    StreamEngine restored;
    const Status back = restored.Restore(snapshot);
    ASSERT_TRUE(back.ok()) << back.ToString();
    EXPECT_EQ(restored.num_queries(), 2);

    EXPECT_TRUE(engine.RemoveQuery("B").ok());
    EXPECT_TRUE(engine.RemoveQuery("A").ok());
    EXPECT_EQ(engine.num_queries(), 0);
  }
}

// A query may not take a registered source's name, from any of the add
// calls, before or after Start: it would hide the source from later
// queries, and removing it would remove the source's catalog entry.
TEST(StreamEngineTest, QueryNamesDoNotTakeSourceNames) {
  StreamEngine engine;
  ASSERT_TRUE(engine.RegisterSource("S", CpuSchema()).ok());
  ASSERT_TRUE(engine.RegisterSource("T", CpuSchema()).ok());
  EXPECT_EQ(engine.AddQueryText("SELECT * FROM T", "S").code(),
            StatusCode::kAlreadyExists);
  EXPECT_EQ(engine.AddScript("s: SELECT * FROM T;").code(),
            StatusCode::kAlreadyExists);
  EXPECT_EQ(engine
                .AddQuery(QueryBuilder::FromSource("T", CpuSchema())
                              .Select("pid > 0")
                              .Build("S"))
                .code(),
            StatusCode::kAlreadyExists);
  EXPECT_EQ(engine.num_queries(), 0);
  ASSERT_TRUE(engine.AddQueryText("SELECT * FROM T", "Q").ok());
  ASSERT_TRUE(engine.Start().ok());
  EXPECT_EQ(engine.AddQueryText("SELECT * FROM T", "S").code(),
            StatusCode::kAlreadyExists);
  // S still names the source: a live query over it reads its tuples.
  ASSERT_TRUE(engine.AddQueryText("SELECT * FROM S", "R").ok());
  ASSERT_TRUE(engine.Push("S", Tuple::MakeInts({1, 1}, 0)).ok());
  EXPECT_EQ(engine.OutputCount("R"), 1);
  EXPECT_EQ(engine.OutputCount("Q"), 0);
}

TEST(StreamEngineTest, HybridScriptEndToEnd) {
  // The README/paper §4.1 script through the facade.
  StreamEngine engine;
  ASSERT_TRUE(engine.RegisterSource("CPU", CpuSchema()).ok());
  ASSERT_TRUE(
      engine
          .AddScript(
              "SMOOTHED: SELECT pid, AVG(load) FROM CPU [RANGE 5] "
              "GROUP BY pid;"
              "RAMPS: SELECT * FROM (SELECT * FROM SMOOTHED WHERE "
              "avg_load < 50) AS B ITERATE SMOOTHED AS E "
              "ON B.pid = E.pid AND E.avg_load > last.avg_load WITHIN 60;")
          .ok());
  ASSERT_TRUE(engine.Start().ok());
  // pid 1 ramps 10 -> 20 -> 30: the µ should fire on each extension.
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(
        engine.Push("CPU", Tuple::MakeInts({1, 10 * (i + 1)}, i)).ok());
  }
  EXPECT_GT(engine.OutputCount("RAMPS"), 0);
}

}  // namespace
}  // namespace rumor
