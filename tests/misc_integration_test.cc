// Cross-cutting integration checks: string-typed attributes through the
// whole pipeline (predicates, hash indexes, group-bys), executor
// determinism, and plan validation on malformed graphs.
#include <gtest/gtest.h>

#include "api/stream_engine.h"

#include "common/rng.h"
#include "mop/selection_mop.h"
#include "plan/compile.h"
#include "plan/executor.h"
#include "query/builder.h"
#include "rules/rule_engine.h"

namespace rumor {
namespace {

Schema LogSchema() {
  return Schema({{"service", ValueType::kString},
                 {"level", ValueType::kString},
                 {"latency", ValueType::kInt}});
}

TEST(StringAttributeTest, SelectionOnStrings) {
  StreamEngine engine;
  ASSERT_TRUE(engine.RegisterSource("LOGS", LogSchema()).ok());
  ASSERT_TRUE(
      engine.AddQueryText("SELECT * FROM LOGS WHERE level = 'error'",
                          "errors")
          .ok());
  ASSERT_TRUE(engine.Start().ok());
  ASSERT_TRUE(engine
                  .Push("LOGS", Tuple::Make({Value("auth"), Value("error"),
                                             Value(int64_t{12})},
                                            0))
                  .ok());
  ASSERT_TRUE(engine
                  .Push("LOGS", Tuple::Make({Value("auth"), Value("info"),
                                             Value(int64_t{3})},
                                            1))
                  .ok());
  EXPECT_EQ(engine.OutputCount("errors"), 1);
}

TEST(StringAttributeTest, PredicateIndexOnStringConstants) {
  // Equality predicates on string attributes are hash-indexable too.
  std::vector<Query> queries;
  auto src = QueryBuilder::FromSource("LOGS", LogSchema());
  for (const char* svc : {"auth", "billing", "search", "cart"}) {
    queries.push_back(src.Select(std::string("service = '") + svc + "'")
                          .Build(std::string("q_") + svc));
  }
  Plan plan;
  ASSERT_TRUE(CompileQueries(queries, &plan).ok());
  OptimizeStats stats = Optimize(&plan);
  EXPECT_EQ(stats.predicate_index_merges, 1);
  CollectingSink sink;
  Executor exec(&plan, &sink);
  exec.Prepare();
  StreamId logs = *plan.streams().FindSource("LOGS");
  exec.PushSource(
      logs, Tuple::Make({Value("billing"), Value("info"), Value(int64_t{5})},
                        0));
  EXPECT_EQ(sink.ForStream(*plan.OutputStreamOf("q_billing")).size(), 1u);
  EXPECT_EQ(sink.ForStream(*plan.OutputStreamOf("q_auth")).size(), 0u);
}

TEST(StringAttributeTest, GroupByStringAndStringEquiJoin) {
  StreamEngine engine;
  ASSERT_TRUE(engine.RegisterSource("LOGS", LogSchema()).ok());
  ASSERT_TRUE(engine.RegisterSource("DEPLOYS",
                                    Schema({{"service", ValueType::kString},
                                            {"version", ValueType::kInt}}))
                  .ok());
  ASSERT_TRUE(engine
                  .AddScript(
                      "LAT: SELECT service, AVG(latency) FROM LOGS "
                      "[RANGE 100] GROUP BY service;"
                      "AFTER: SELECT * FROM DEPLOYS [RANGE 50] JOIN LOGS "
                      "[RANGE 50] ON DEPLOYS.service = LOGS.service;")
                  .ok());
  ASSERT_TRUE(engine.Start().ok());
  ASSERT_TRUE(engine
                  .Push("DEPLOYS",
                        Tuple::Make({Value("auth"), Value(int64_t{3})}, 0))
                  .ok());
  ASSERT_TRUE(engine
                  .Push("LOGS", Tuple::Make({Value("auth"), Value("info"),
                                             Value(int64_t{8})},
                                            1))
                  .ok());
  EXPECT_EQ(engine.OutputCount("LAT"), 1);
  EXPECT_EQ(engine.OutputCount("AFTER"), 1);
}

TEST(DeterminismTest, SameFeedSameOutputs) {
  auto run = [] {
    Plan plan;
    auto s = QueryBuilder::FromSource("S", Schema::MakeInts(4));
    auto t = QueryBuilder::FromSource("T", Schema::MakeInts(4));
    for (int i = 0; i < 4; ++i) {
      RUMOR_CHECK(CompileQuery(s.Select("a0 = " + std::to_string(i))
                                   .Sequence(t, "l.a1 = r.a1", 20)
                                   .Build("Q" + std::to_string(i)),
                               &plan)
                      .ok());
    }
    Optimize(&plan);
    CollectingSink sink;
    Executor exec(&plan, &sink);
    exec.Prepare();
    Rng rng(77);
    StreamId sid = *plan.streams().FindSource("S");
    StreamId tid = *plan.streams().FindSource("T");
    for (int i = 0; i < 500; ++i) {
      exec.PushSource(i % 2 ? tid : sid,
                      Tuple::MakeInts({rng.UniformInt(0, 3),
                                       rng.UniformInt(0, 3), 0, 0},
                                      i));
    }
    std::vector<std::string> out;
    for (const Plan::OutputDef& def : plan.outputs()) {
      for (const Tuple& tup : sink.ForStream(def.stream)) {
        out.push_back(def.query_name + ":" + tup.ToString());
      }
    }
    return out;
  };
  EXPECT_EQ(run(), run());  // bit-for-bit deterministic
}

TEST(PlanValidationTest, CycleIsRejected) {
  // Hand-wire a 1-mop cycle: selection consuming its own output.
  Plan plan;
  ChannelId loop = plan.AddDerivedChannel("loop", Schema::MakeInts(1));
  MopId m = plan.AddMop(std::make_unique<SelectionMop>(
      SelectionMop::Member{0, {nullptr}}));
  plan.BindInput(m, 0, loop);
  plan.BindOutput(m, 0, loop);
  EXPECT_DEATH(plan.Validate(), "cycle");
}

TEST(PlanValidationTest, TwoProducersRejected) {
  Plan plan;
  ChannelId shared = plan.AddDerivedChannel("shared", Schema::MakeInts(1));
  StreamId src = plan.streams().AddSource("S", Schema::MakeInts(1));
  ChannelId s_ch = plan.SourceChannelOf(src);
  for (int i = 0; i < 2; ++i) {
    MopId m = plan.AddMop(std::make_unique<SelectionMop>(
        SelectionMop::Member{0, {nullptr}}));
    plan.BindInput(m, 0, s_ch);
    plan.BindOutput(m, 0, shared);
  }
  EXPECT_DEATH(plan.Validate(), "producers");
}

}  // namespace
}  // namespace rumor
