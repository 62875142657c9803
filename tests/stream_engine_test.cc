#include "api/stream_engine.h"

#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "query/builder.h"

namespace rumor {
namespace {

Schema CpuSchema() {
  return Schema({{"pid", ValueType::kInt}, {"load", ValueType::kInt}});
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
