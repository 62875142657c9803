// The rule engine's extension points: a user-defined rule runs beside the
// built-ins, and OptimizeStats counts the rounds that ran. That every rule
// subset and order leaves each query's outputs unchanged (paper §3.3) is the
// MQO oracle's rule axis (mqo_oracle_test).
#include <gtest/gtest.h>

#include "plan/compile.h"
#include "query/builder.h"
#include "rules/rule_engine.h"

namespace rumor {
namespace {

Schema TenInts() { return Schema::MakeInts(10); }

TEST(RuleOrderTest, CustomRuleRegistration) {
  // The engine API is open: a user-defined rule runs alongside built-ins.
  class CountingRule : public MRule {
   public:
    explicit CountingRule(int* counter) : counter_(counter) {}
    std::string name() const override { return "counting"; }
    int ApplyAll(Plan*, const SharableAnalysis*) override {
      ++*counter_;
      return 0;  // never merges => engine terminates after one round
    }

   private:
    int* counter_;
  };
  Plan plan;
  auto s = QueryBuilder::FromSource("S", TenInts());
  ASSERT_TRUE(CompileQuery(s.Select("a0 = 1").Build("Q1"), &plan).ok());
  SharableAnalysis sharable(plan);
  RuleEngine engine;
  int calls = 0;
  engine.AddRule(std::make_unique<CountingRule>(&calls));
  std::vector<int> merges;
  EXPECT_EQ(engine.Run(&plan, sharable, &merges), 1);
  EXPECT_EQ(calls, 1);
  EXPECT_EQ(merges[0], 0);
}

// OptimizeStats::rounds counts the rounds that ran, not the cap: one round
// when nothing merges, and one more than the rounds that merged otherwise.
TEST(RuleOrderTest, OptimizeReportsRoundsRun) {
  auto s = QueryBuilder::FromSource("S", TenInts());
  Plan alone;
  ASSERT_TRUE(CompileQuery(s.Select("a0 = 1").Build("Q1"), &alone).ok());
  EXPECT_EQ(Optimize(&alone).rounds, 1);
  Plan twins;
  ASSERT_TRUE(CompileQuery(s.Select("a0 = 1").Build("Q1"), &twins).ok());
  ASSERT_TRUE(CompileQuery(s.Select("a0 = 1").Build("Q2"), &twins).ok());
  const OptimizeStats stats = Optimize(&twins);
  EXPECT_EQ(stats.cse_merges, 1);
  EXPECT_EQ(stats.rounds, 2);
}

}  // namespace
}  // namespace rumor
