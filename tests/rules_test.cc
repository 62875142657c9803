#include "rules/rule_engine.h"

#include <gtest/gtest.h>

#include "common/str_util.h"
#include "plan/compile.h"
#include "plan/executor.h"
#include "query/builder.h"

namespace rumor {
namespace {

Schema TenInts() { return Schema::MakeInts(10); }

Tuple T10(std::vector<int64_t> firsts, Timestamp ts) {
  firsts.resize(10, 0);
  return Tuple::MakeInts(firsts, ts);
}

int CountMopsOfType(const Plan& plan, MopType type) {
  int n = 0;
  for (MopId id : plan.LiveMops()) {
    if (plan.mop(id).type() == type) ++n;
  }
  return n;
}

// --- SharableAnalysis -------------------------------------------------------

TEST(SharableTest, LabeledSourcesAreSharable) {
  Plan plan;
  StreamId a = plan.streams().AddSource("A", TenInts(), 3);
  StreamId b = plan.streams().AddSource("B", TenInts(), 3);
  StreamId c = plan.streams().AddSource("C", TenInts(), 4);
  StreamId d = plan.streams().AddSource("D", TenInts());
  SharableAnalysis sa(plan);
  EXPECT_TRUE(sa.Sharable(a, b));
  EXPECT_FALSE(sa.Sharable(a, c));
  EXPECT_FALSE(sa.Sharable(a, d));
  EXPECT_TRUE(sa.Sharable(d, d));  // reflexivity (base case 1)
}

TEST(SharableTest, SelectionTransparent) {
  // σ1(S) ~ σ2(S) ~ S even with different predicates.
  Plan plan;
  auto s = QueryBuilder::FromSource("S", TenInts());
  auto q1 = CompileQuery(s.Select("a0 = 1").Build("Q1"), &plan);
  auto q2 = CompileQuery(s.Select("a0 = 2").Build("Q2"), &plan);
  ASSERT_TRUE(q1.ok() && q2.ok());
  SharableAnalysis sa(plan);
  StreamId src = *plan.streams().FindSource("S");
  EXPECT_TRUE(sa.Sharable(q1.value().output_stream, src));
  EXPECT_TRUE(
      sa.Sharable(q1.value().output_stream, q2.value().output_stream));
}

TEST(SharableTest, SameOpOnSharableInputsIsSharable) {
  // α(σ1(S)) ~ α(σ2(S)) when the aggregates have the same definition.
  Plan plan;
  auto s = QueryBuilder::FromSource("S", TenInts());
  auto q1 = CompileQuery(
      s.Select("a0 = 1").Aggregate(AggFn::kSum, "a1", {"a2"}, 10).Build("Q1"),
      &plan);
  auto q2 = CompileQuery(
      s.Select("a0 = 2").Aggregate(AggFn::kSum, "a1", {"a2"}, 10).Build("Q2"),
      &plan);
  ASSERT_TRUE(q1.ok() && q2.ok());
  SharableAnalysis sa(plan);
  EXPECT_TRUE(
      sa.Sharable(q1.value().output_stream, q2.value().output_stream));
}

TEST(SharableTest, DifferentDefinitionsNotSharable) {
  Plan plan;
  auto s = QueryBuilder::FromSource("S", TenInts());
  auto q1 = CompileQuery(
      s.Aggregate(AggFn::kSum, "a1", {"a2"}, 10).Build("Q1"), &plan);
  auto q2 = CompileQuery(
      s.Aggregate(AggFn::kSum, "a1", {"a2"}, 20).Build("Q2"), &plan);
  ASSERT_TRUE(q1.ok() && q2.ok());
  SharableAnalysis sa(plan);
  EXPECT_FALSE(
      sa.Sharable(q1.value().output_stream, q2.value().output_stream));
}

TEST(SharableTest, EquivalenceLawsOnRandomPlans) {
  // Signature-based equality is an equivalence relation by construction;
  // sanity-check symmetry/transitivity over a compiled plan's streams.
  Plan plan;
  auto s = QueryBuilder::FromSource("S", TenInts(), 0);
  for (int i = 0; i < 6; ++i) {
    auto q = s.Select(StrCat("a0 = ", i % 3)).Build(StrCat("Q", i));
    ASSERT_TRUE(CompileQuery(q, &plan).ok());
  }
  SharableAnalysis sa(plan);
  const int n = plan.streams().size();
  for (StreamId a = 0; a < n; ++a) {
    EXPECT_TRUE(sa.Sharable(a, a));
    for (StreamId b = 0; b < n; ++b) {
      EXPECT_EQ(sa.Sharable(a, b), sa.Sharable(b, a));
      for (StreamId c = 0; c < n; ++c) {
        if (sa.Sharable(a, b) && sa.Sharable(b, c)) {
          EXPECT_TRUE(sa.Sharable(a, c));
        }
      }
    }
  }
}

// --- individual rules --------------------------------------------------------

TEST(CseRuleTest, MergesIdenticalQueries) {
  Plan plan;
  auto s = QueryBuilder::FromSource("S", TenInts());
  auto q1 = CompileQuery(s.Select("a0 = 5").Build("Q1"), &plan);
  auto q2 = CompileQuery(s.Select("a0 = 5").Build("Q2"), &plan);
  ASSERT_TRUE(q1.ok() && q2.ok());
  OptimizerOptions opts;
  opts.enable_predicate_index = false;
  opts.enable_channels = false;
  OptimizeStats stats = Optimize(&plan, opts);
  EXPECT_EQ(stats.cse_merges, 1);
  EXPECT_EQ(plan.LiveMops().size(), 1u);

  // Both queries now share one output stream, which receives the tuple.
  ASSERT_EQ(plan.outputs().size(), 2u);
  EXPECT_EQ(plan.outputs()[0].stream, plan.outputs()[1].stream);
  CountingSink sink;
  Executor exec(&plan, &sink);
  exec.Prepare();
  StreamId src = *plan.streams().FindSource("S");
  exec.PushSource(src, T10({5}, 0));
  EXPECT_EQ(sink.ForStream(plan.outputs()[0].stream), 1);
}

TEST(CseRuleTest, MergesPatternPrefixes) {
  // Two sequence queries sharing σ(S) and the full ; — prefix merging.
  Plan plan;
  auto s = QueryBuilder::FromSource("S", TenInts());
  auto t = QueryBuilder::FromSource("T", TenInts());
  auto make = [&](const std::string& name) {
    return s.Select("a0 = 1")
        .Sequence(t, "l.a1 = r.a1", 100)
        .Build(name);
  };
  ASSERT_TRUE(CompileQuery(make("Q1"), &plan).ok());
  ASSERT_TRUE(CompileQuery(make("Q2"), &plan).ok());
  EXPECT_EQ(plan.LiveMops().size(), 4u);  // 2 σ + 2 ;
  OptimizerOptions opts;
  opts.enable_channels = false;
  Optimize(&plan, opts);
  EXPECT_EQ(plan.LiveMops().size(), 2u);  // σ + ;
}

TEST(PredicateIndexRuleTest, MergesSelectionsOnSameStream) {
  Plan plan;
  auto s = QueryBuilder::FromSource("S", TenInts());
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(CompileQuery(
                    s.Select(StrCat("a0 = ", i)).Build(StrCat("Q", i)), &plan)
                    .ok());
  }
  OptimizerOptions opts;
  opts.enable_channels = false;
  OptimizeStats stats = Optimize(&plan, opts);
  EXPECT_EQ(stats.predicate_index_merges, 1);
  EXPECT_EQ(CountMopsOfType(plan, MopType::kPredicateIndex), 1);
  EXPECT_EQ(plan.LiveMops().size(), 1u);

  CollectingSink sink;
  Executor exec(&plan, &sink);
  exec.Prepare();
  StreamId src = *plan.streams().FindSource("S");
  exec.PushSource(src, T10({3}, 0));
  EXPECT_EQ(sink.total(), 1);  // only Q3 matches
}

TEST(SharedAggregateRuleTest, MergesDifferentGroupBys) {
  Plan plan;
  auto s = QueryBuilder::FromSource("S", TenInts());
  ASSERT_TRUE(CompileQuery(
                  s.Aggregate(AggFn::kSum, "a1", {"a0"}, 10).Build("Q1"),
                  &plan)
                  .ok());
  ASSERT_TRUE(CompileQuery(
                  s.Aggregate(AggFn::kSum, "a1", {"a2"}, 20).Build("Q2"),
                  &plan)
                  .ok());
  OptimizerOptions opts;
  opts.enable_channels = false;
  OptimizeStats stats = Optimize(&plan, opts);
  EXPECT_EQ(stats.shared_aggregate_merges, 1);
  EXPECT_EQ(CountMopsOfType(plan, MopType::kSharedAggregate), 1);
}

TEST(SharedJoinRuleTest, MergesDifferentWindows) {
  Plan plan;
  auto s = QueryBuilder::FromSource("S", TenInts());
  auto t = QueryBuilder::FromSource("T", TenInts());
  ASSERT_TRUE(
      CompileQuery(s.Join(t, "S.a0 = T.a0", 10, 10).Build("Q1"), &plan)
          .ok());
  ASSERT_TRUE(
      CompileQuery(s.Join(t, "S.a0 = T.a0", 99, 99).Build("Q2"), &plan)
          .ok());
  OptimizerOptions opts;
  opts.enable_channels = false;
  OptimizeStats stats = Optimize(&plan, opts);
  EXPECT_EQ(stats.shared_join_merges, 1);
  EXPECT_EQ(CountMopsOfType(plan, MopType::kSharedJoin), 1);
}

TEST(ChannelRuleTest, BuildsFig6cChain) {
  // n instances of the paper's Query-2 pattern: σsi -> µ -> σe. Expect
  // sσ then cµ then cσ (Example 4 / Fig. 6(c)).
  Plan plan;
  auto s = QueryBuilder::FromSource("S", TenInts());
  auto t = QueryBuilder::FromSource("T", TenInts());
  const int n = 4;
  for (int i = 0; i < n; ++i) {
    auto q = s.Select(StrCat("a0 = ", i))  // starting condition θsi
                 .Iterate(t, "l.a1 = r.a1 AND r.a2 > last.a2", 50)
                 .Select("last.a3 = 0")  // stopping condition (same for all)
                 .Build(StrCat("Q", i));
    ASSERT_TRUE(CompileQuery(q, &plan).ok());
  }
  OptimizeStats stats = Optimize(&plan);
  EXPECT_EQ(stats.predicate_index_merges, 1);
  EXPECT_GE(stats.channel_merges, 2);  // cµ and cσ
  EXPECT_EQ(CountMopsOfType(plan, MopType::kPredicateIndex), 1);
  EXPECT_EQ(CountMopsOfType(plan, MopType::kChannelIterate), 1);
  EXPECT_EQ(CountMopsOfType(plan, MopType::kChannelSelect), 1);
  EXPECT_EQ(plan.LiveMops().size(), 3u);
  // The predicate index must now emit into a capacity-n channel.
  for (MopId id : plan.LiveMops()) {
    if (plan.mop(id).type() == MopType::kPredicateIndex) {
      ASSERT_EQ(plan.mop(id).num_outputs(), 1);
      EXPECT_EQ(plan.channel(plan.output_channel(id, 0)).capacity(), n);
    }
  }
}

TEST(ChannelRuleTest, SourceGroupChannel) {
  // Workload 3: sharable sources Si ; T with identical definitions.
  Plan plan;
  auto t = QueryBuilder::FromSource("T", TenInts());
  const int n = 5;
  for (int i = 0; i < n; ++i) {
    auto si = QueryBuilder::FromSource(StrCat("S", i), TenInts(),
                                       /*sharable_label=*/7);
    ASSERT_TRUE(CompileQuery(
                    si.Sequence(t, "l.a0 = r.a0", 100).Build(StrCat("Q", i)),
                    &plan)
                    .ok());
  }
  OptimizeStats stats = Optimize(&plan);
  EXPECT_GE(stats.channel_merges, 1);
  EXPECT_EQ(CountMopsOfType(plan, MopType::kChannelSequence), 1);
  auto groups = plan.SourceGroupChannels();
  ASSERT_EQ(groups.size(), 1u);
  EXPECT_EQ(plan.channel(groups[0]).capacity(), n);
}

TEST(ChannelRuleTest, DifferentDefinitionsBlockChannel) {
  // Consumers with different windows must NOT be channel-merged.
  Plan plan;
  auto t = QueryBuilder::FromSource("T", TenInts());
  for (int i = 0; i < 3; ++i) {
    auto si = QueryBuilder::FromSource(StrCat("S", i), TenInts(), 7);
    ASSERT_TRUE(
        CompileQuery(
            si.Sequence(t, "l.a0 = r.a0", 100 + i).Build(StrCat("Q", i)),
            &plan)
            .ok());
  }
  OptimizeStats stats = Optimize(&plan);
  EXPECT_EQ(stats.channel_merges, 0);
  EXPECT_EQ(CountMopsOfType(plan, MopType::kChannelSequence), 0);
}

}  // namespace
}  // namespace rumor
