// Paper §3.3 / §7: multiple m-rules can apply to the same operators and
// different application orders may produce different plans. These tests
// check the property the paper relies on implicitly: whatever the order,
// query outputs are unchanged (each rule application preserves semantics,
// so any application sequence does).
#include <gtest/gtest.h>

#include <map>

#include "common/rng.h"
#include "common/str_util.h"
#include "plan/compile.h"
#include "plan/executor.h"
#include "query/builder.h"
#include "rules/rule_engine.h"

namespace rumor {
namespace {

Schema TenInts() { return Schema::MakeInts(10); }

// Runs the given queries under an optimizer configuration; returns
// per-query sorted outputs.
std::map<std::string, std::vector<std::string>> RunWith(
    const std::vector<Query>& queries, const OptimizerOptions& opts,
    uint64_t feed_seed, int events) {
  Plan plan;
  auto compiled = CompileQueries(queries, &plan);
  RUMOR_CHECK(compiled.ok()) << compiled.status().ToString();
  Optimize(&plan, opts);
  CollectingSink sink;
  Executor exec(&plan, &sink);
  exec.Prepare();
  StreamId s = *plan.streams().FindSource("S");
  StreamId t = *plan.streams().FindSource("T");
  Rng rng(feed_seed);
  for (int i = 0; i < events; ++i) {
    std::vector<int64_t> vals;
    for (int k = 0; k < 10; ++k) vals.push_back(rng.UniformInt(0, 4));
    exec.PushSource(i % 2 == 0 ? s : t, Tuple::MakeInts(vals, i));
  }
  std::map<std::string, std::vector<std::string>> out;
  for (const Query& q : queries) {
    std::vector<std::string> rows;
    for (const Tuple& tup : sink.ForStream(*plan.OutputStreamOf(q.name))) {
      rows.push_back(tup.ToString());
    }
    std::sort(rows.begin(), rows.end());
    out[q.name] = std::move(rows);
  }
  return out;
}

// The Fig. 2/3 overlap: selections that qualify for sσ (same stream) whose
// downstream consumers qualify for channel rules.
std::vector<Query> OverlapWorkload(uint64_t seed) {
  Rng rng(seed);
  std::vector<Query> queries;
  auto s = QueryBuilder::FromSource("S", TenInts());
  auto t = QueryBuilder::FromSource("T", TenInts());
  const int n = 3 + static_cast<int>(rng.UniformInt(0, 4));
  for (int i = 0; i < n; ++i) {
    queries.push_back(s.Select(StrCat("a0 = ", rng.UniformInt(0, 3)))
                          .Iterate(t, "l.a1 = r.a1 AND r.a2 > last.a2", 20)
                          .Select("last.a3 > 0")
                          .Build(StrCat("Q", i)));
  }
  return queries;
}

class RuleOrderTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(RuleOrderTest, ChannelFirstAndLastProduceSameOutputs) {
  std::vector<Query> queries = OverlapWorkload(GetParam());
  OptimizerOptions channel_last;
  OptimizerOptions channel_first;
  channel_first.channel_rules_first = true;
  auto a = RunWith(queries, channel_last, GetParam() ^ 0xabc, 400);
  auto b = RunWith(queries, channel_first, GetParam() ^ 0xabc, 400);
  EXPECT_EQ(a, b);
}

TEST_P(RuleOrderTest, EverySingleRuleAloneIsSound) {
  std::vector<Query> queries = OverlapWorkload(GetParam());
  OptimizerOptions none;
  none.enable_cse = none.enable_predicate_index =
      none.enable_shared_aggregate = none.enable_shared_join =
          none.enable_channels = false;
  auto baseline = RunWith(queries, none, GetParam() ^ 0xdef, 400);

  for (int rule = 0; rule < 5; ++rule) {
    OptimizerOptions opts = none;
    switch (rule) {
      case 0: opts.enable_cse = true; break;
      case 1: opts.enable_predicate_index = true; break;
      case 2: opts.enable_shared_aggregate = true; break;
      case 3: opts.enable_shared_join = true; break;
      case 4:
        // Channel rules alone (they still require a producer group, which
        // without sσ only source groups can provide — a no-op here, but it
        // must stay sound).
        opts.enable_channels = true;
        break;
    }
    auto got = RunWith(queries, opts, GetParam() ^ 0xdef, 400);
    EXPECT_EQ(got, baseline) << "rule config " << rule;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RuleOrderTest,
                         ::testing::Range<uint64_t>(0, 8));

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
