#include "plan/explain.h"

#include <gtest/gtest.h>

#include "plan/compile.h"
#include "plan/executor.h"
#include "query/builder.h"
#include "rules/rule_engine.h"

namespace rumor {
namespace {

TEST(ExplainTest, SummaryCountsMopsAndOutputs) {
  Plan plan;
  auto s = QueryBuilder::FromSource("S", Schema::MakeInts(3));
  ASSERT_TRUE(CompileQuery(s.Select("a0 = 1").Build("Q1"), &plan).ok());
  ASSERT_TRUE(CompileQuery(s.Select("a0 = 2").Build("Q2"), &plan).ok());
  std::string summary = SummarizePlan(plan);
  EXPECT_NE(summary.find("2 m-ops"), std::string::npos) << summary;
  EXPECT_NE(summary.find("2 query outputs"), std::string::npos) << summary;
}

TEST(ExplainTest, ShowsMopWiringAndCounters) {
  Plan plan;
  auto s = QueryBuilder::FromSource("S", Schema::MakeInts(3));
  ASSERT_TRUE(CompileQuery(s.Select("a0 = 1").Build("Q1"), &plan).ok());
  CountingSink sink;
  Executor exec(&plan, &sink);
  exec.Prepare();
  StreamId src = *plan.streams().FindSource("S");
  exec.PushSource(src, Tuple::MakeInts({1, 0, 0}, 0));
  exec.PushSource(src, Tuple::MakeInts({2, 0, 0}, 1));
  std::string report = ExplainPlan(plan);
  EXPECT_NE(report.find("in=2"), std::string::npos) << report;
  EXPECT_NE(report.find("out=1"), std::string::npos) << report;
  EXPECT_NE(report.find("output Q1"), std::string::npos) << report;
}

TEST(ExplainTest, ShowsChannelCapacityAfterOptimization) {
  Plan plan;
  auto s = QueryBuilder::FromSource("S", Schema::MakeInts(10));
  auto t = QueryBuilder::FromSource("T", Schema::MakeInts(10));
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(CompileQuery(s.Select("a0 = " + std::to_string(i))
                                 .Iterate(t, "l.a1 = r.a1", 10)
                                 .Build("Q" + std::to_string(i)),
                             &plan)
                    .ok());
  }
  Optimize(&plan);
  std::string report = ExplainPlan(plan);
  EXPECT_NE(report.find("capacity=3"), std::string::npos) << report;
  EXPECT_NE(report.find("max capacity 3"), std::string::npos) << report;
}

// The ExplainAnalyze golden shape: on a 2-query plan whose σs CSE-merge into
// one shared m-op, the report names the m-op with its query reach and live
// tuple counters.
TEST(ExplainTest, ExplainAnalyzeAnnotatesLiveCounters) {
  Plan plan;
  auto s = QueryBuilder::FromSource("S", Schema::MakeInts(3));
  ASSERT_TRUE(CompileQuery(s.Select("a0 = 1").Build("Q1"), &plan).ok());
  ASSERT_TRUE(CompileQuery(s.Select("a0 = 1").Build("Q2"), &plan).ok());
  Optimize(&plan);
  CountingSink sink;
  Executor exec(&plan, &sink);
  exec.Prepare();
  StreamId src = *plan.streams().FindSource("S");
  exec.PushSource(src, Tuple::MakeInts({1, 0, 0}, 0));
  exec.PushSource(src, Tuple::MakeInts({2, 0, 0}, 1));
  exec.PushSource(src, Tuple::MakeInts({1, 0, 0}, 2));

  std::string report = ExplainAnalyze(plan);
  // Both queries ride the one CSE-merged σ: 3 in, 2 out, sel 2/3.
  EXPECT_NE(report.find("queries=2"), std::string::npos) << report;
  EXPECT_NE(report.find("in=3 out=2"), std::string::npos) << report;
  EXPECT_NE(report.find("sel=0.6667"), std::string::npos) << report;
  EXPECT_NE(report.find("output Q1"), std::string::npos) << report;
  EXPECT_NE(report.find("output Q2"), std::string::npos) << report;
}

}  // namespace
}  // namespace rumor
