// ShareIndex unit tests + the indexed-vs-scan plan-identity checks at plan
// level (against the scan-based oracle in scan_merge_oracle.h), including
// the regression for the sσ attach target choice when two per-member-port
// predicate indexes coexist on one channel (both paths must
// deterministically pick the oldest).
#include "rules/share_index.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "mop/predicate_index_mop.h"
#include "mop/selection_mop.h"
#include "plan/compile.h"
#include "plan/explain.h"
#include "query/builder.h"
#include "rules/incremental.h"
#include "scan_merge_oracle.h"

namespace rumor {
namespace {

Schema TenInts() { return Schema::MakeInts(10); }

std::vector<MopId> SelectionsOf(const Plan& plan) {
  std::vector<MopId> out;
  for (MopId id : plan.LiveMops()) {
    if (plan.mop(id).type() == MopType::kSelection) out.push_back(id);
  }
  return out;
}

// Forms a per-member-port predicate index from the given single selections,
// exactly as PredicateIndexRule does (members keep their output channels).
MopId FormIndexFrom(Plan* plan, const std::vector<MopId>& singles) {
  std::vector<SelectionDef> defs;
  std::vector<ChannelId> outs;
  for (MopId id : singles) {
    const auto& sel = static_cast<const SelectionMop&>(plan->mop(id));
    defs.push_back(sel.member().def);
    outs.push_back(plan->output_channel(id, 0));
  }
  ChannelId input = plan->input_channel(singles[0], 0);
  MopId target = plan->AddMop(std::make_unique<PredicateIndexMop>(
      std::move(defs), OutputMode::kPerMemberPorts));
  plan->BindInput(target, 0, input);
  for (size_t i = 0; i < outs.size(); ++i) {
    plan->BindOutput(target, static_cast<int>(i), outs[i]);
  }
  for (MopId id : singles) plan->RemoveMop(id);
  return target;
}

TEST(ShareIndexTest, ProbeFindsExactDuplicate) {
  Plan plan;
  auto s = QueryBuilder::FromSource("S", TenInts());
  ASSERT_TRUE(CompileQuery(s.Select("a0 = 1").Build("Q1"), &plan).ok());
  ShareIndex index(&plan);
  MopId first_fresh = plan.num_mops();
  ASSERT_TRUE(CompileQuery(s.Select("a0 = 1").Build("Q2"), &plan).ok());
  index.Sync();

  std::vector<MopId> sels = SelectionsOf(plan);
  ASSERT_EQ(sels.size(), 2u);
  ASSERT_GE(sels[1], first_fresh);
  ShareIndex::Candidate c = index.Probe(sels[1]);
  EXPECT_EQ(c.kind, ShareIndex::Candidate::kCseExact);
  EXPECT_EQ(c.target, sels[0]);
  // The older twin is the keeper: a CSE-restricted probe must not suggest
  // merging it into the newcomer. (An unrestricted probe may still propose
  // forming an index with its yet-unmerged twin — the CSE sub-pass removes
  // the twin before the formation sub-pass runs.)
  uint32_t cse_mask = ShareIndex::MaskOf(ShareIndex::Candidate::kCseExact) |
                      ShareIndex::MaskOf(ShareIndex::Candidate::kCseMember);
  EXPECT_EQ(index.Probe(sels[0], cse_mask).kind, ShareIndex::Candidate::kNone);
}

TEST(ShareIndexTest, ProbeFormsIndexFromTwoSingles) {
  Plan plan;
  auto s = QueryBuilder::FromSource("S", TenInts());
  ASSERT_TRUE(CompileQuery(s.Select("a0 = 1").Build("Q1"), &plan).ok());
  ASSERT_TRUE(CompileQuery(s.Select("a0 = 2").Build("Q2"), &plan).ok());
  ShareIndex index(&plan);
  std::vector<MopId> sels = SelectionsOf(plan);
  ASSERT_EQ(sels.size(), 2u);
  ShareIndex::Candidate c = index.Probe(sels[1]);
  EXPECT_EQ(c.kind, ShareIndex::Candidate::kFormIndex);
  EXPECT_EQ(c.channel, plan.input_channel(sels[1], 0));
  EXPECT_EQ(index.SinglesOn(c.channel), sels);
}

TEST(ShareIndexTest, DebugDumpMatchesRebuildAcrossMutations) {
  Plan plan;
  auto s = QueryBuilder::FromSource("S", TenInts());
  ShareIndex live(&plan);
  OptimizerOptions options;
  Rng rng(0x5eed);
  std::vector<std::string> names;
  for (int step = 0; step < 60; ++step) {
    bool remove = !names.empty() && rng.UniformInt(0, 3) == 0;
    if (remove) {
      size_t victim = static_cast<size_t>(
          rng.UniformInt(0, static_cast<int64_t>(names.size()) - 1));
      ASSERT_TRUE(plan.UnmarkOutput(names[victim]));
      PruneUnreachable(&plan);
      names.erase(names.begin() + victim);
      live.Sync();
    } else {
      std::string name = "q" + std::to_string(step);
      MopId first_fresh = plan.num_mops();
      QueryBuilder q = s.Select(
          "a0 = " + std::to_string(rng.UniformInt(0, 4)));
      if (rng.UniformInt(0, 1) == 0) {
        q = q.Aggregate(AggFn::kSum, "a1", {"a0"},
                        4 + 4 * rng.UniformInt(0, 2));
      }
      ASSERT_TRUE(CompileQuery(q.Build(name), &plan).ok());
      MergeNewQueryIndexed(&plan, &live, first_fresh, options);
      names.push_back(name);
    }
    plan.Validate();
    ShareIndex fresh(&plan);
    ASSERT_EQ(live.DebugDump(), fresh.DebugDump()) << "step " << step;
  }
}

TEST(ShareIndexTest, IndexedMergeMatchesScanOnRandomSequences) {
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    Rng rng(seed * 0x9e3779b97f4a7c15ull + 3);
    Plan scan_plan, indexed_plan;
    auto s = QueryBuilder::FromSource("S", TenInts());
    ShareIndex index(&indexed_plan);
    OptimizerOptions options;
    std::vector<std::string> names;
    for (int step = 0; step < 50; ++step) {
      bool remove = !names.empty() && rng.UniformInt(0, 3) == 0;
      if (remove) {
        size_t victim = static_cast<size_t>(
            rng.UniformInt(0, static_cast<int64_t>(names.size()) - 1));
        ASSERT_TRUE(scan_plan.UnmarkOutput(names[victim]));
        ASSERT_TRUE(indexed_plan.UnmarkOutput(names[victim]));
        PruneUnreachable(&scan_plan);
        PruneUnreachable(&indexed_plan);
        names.erase(names.begin() + victim);
      } else {
        std::string name = "q" + std::to_string(step);
        QueryBuilder q = s;
        switch (rng.UniformInt(0, 3)) {
          case 0:
            q = q.Select("a0 = " + std::to_string(rng.UniformInt(0, 3)));
            break;
          case 1:
            q = q.Select("a1 > " + std::to_string(rng.UniformInt(0, 50)));
            break;
          case 2:
            q = q.Aggregate(AggFn::kSum, "a1", {"a0"},
                            4 + 4 * rng.UniformInt(0, 2));
            break;
          default:
            q = q.Select("a0 = " + std::to_string(rng.UniformInt(0, 3)))
                    .Aggregate(AggFn::kMax, "a2", {"a0"},
                               4 + 4 * rng.UniformInt(0, 2));
            break;
        }
        Query query = q.Build(name);
        MopId first_fresh = indexed_plan.num_mops();
        ASSERT_TRUE(CompileQuery(query, &scan_plan).ok());
        ASSERT_TRUE(CompileQuery(query, &indexed_plan).ok());
        MergeNewQuery(&scan_plan, options);
        MergeNewQueryIndexed(&indexed_plan, &index, first_fresh, options);
        names.push_back(name);
      }
      scan_plan.Validate();
      indexed_plan.Validate();
      // Byte-identical plans: the indexed path replicates the scan path's
      // target choices exactly, so ids, members and wiring all line up.
      ASSERT_EQ(ExplainPlan(indexed_plan), ExplainPlan(scan_plan))
          << "seed " << seed << " step " << step;
    }
  }
}

// Regression: AttachMember can *reuse* a deactivated member slot of a shared
// aggregate, replacing its spec — and so its member signature — with no
// wiring event. The plan must publish the reuse (NotifyMemberReused) so the
// index re-keys that member; a stale signature would otherwise survive
// until the next unrelated reindex of that m-op.
TEST(ShareIndexTest, ReusedAggregateSlotKeepsIndexFresh) {
  Plan plan;
  auto s = QueryBuilder::FromSource("S", TenInts());
  ShareIndex live(&plan);
  OptimizerOptions options;
  auto add = [&](const char* name, int64_t window) {
    MopId first_fresh = plan.num_mops();
    ASSERT_TRUE(CompileQuery(
        s.Aggregate(AggFn::kSum, "a1", {"a0"}, window).Build(name), &plan)
            .ok());
    MergeNewQueryIndexed(&plan, &live, first_fresh, options);
  };
  add("q1", 8);
  add("q2", 12);  // attaches as member 1 of the (now shared) target
  ASSERT_TRUE(plan.UnmarkOutput("q2"));
  PruneUnreachable(&plan);  // deactivates member 1
  live.Sync();
  add("q3", 16);  // reuses slot 1: new window, new signature, same port

  // The reuse branch fired (the target kept 2 members instead of growing).
  MopId target = kInvalidMop;
  for (MopId id : plan.LiveMops()) {
    if (plan.mop(id).type() == MopType::kSharedAggregate) target = id;
  }
  ASSERT_NE(target, kInvalidMop);
  EXPECT_EQ(plan.mop(target).num_members(), 2);

  plan.Validate();
  ShareIndex fresh(&plan);
  EXPECT_EQ(live.DebugDump(), fresh.DebugDump());
}

// Regression: two per-member-port predicate indexes coexisting on one input
// channel. The scan's sσ attach used to keep whichever index it happened to
// see first; both paths must deterministically attach new selections to
// the *oldest* index.
TEST(ShareIndexTest, TwoIndexesOnOneChannelAttachToOldest) {
  auto build = [](Plan* plan, MopId* older, MopId* newer) {
    auto s = QueryBuilder::FromSource("S", TenInts());
    for (int i = 1; i <= 4; ++i) {
      ASSERT_TRUE(CompileQuery(
          s.Select("a0 = " + std::to_string(i)).Build("q" + std::to_string(i)),
          plan).ok());
    }
    std::vector<MopId> sels = SelectionsOf(*plan);
    ASSERT_EQ(sels.size(), 4u);
    *older = FormIndexFrom(plan, {sels[0], sels[1]});
    *newer = FormIndexFrom(plan, {sels[2], sels[3]});
    plan->Validate();
  };

  Plan scan_plan, indexed_plan;
  MopId scan_older, scan_newer, idx_older, idx_newer;
  build(&scan_plan, &scan_older, &scan_newer);
  build(&indexed_plan, &idx_older, &idx_newer);
  ASSERT_LT(idx_older, idx_newer);

  ShareIndex index(&indexed_plan);
  auto fresh_query =
      QueryBuilder::FromSource("S", TenInts()).Select("a0 = 9").Build("q9");
  MopId first_fresh = indexed_plan.num_mops();
  OptimizerOptions options;
  ASSERT_TRUE(CompileQuery(fresh_query, &scan_plan).ok());
  ASSERT_TRUE(CompileQuery(fresh_query, &indexed_plan).ok());

  // The probe itself must name the oldest index.
  index.Sync();
  std::vector<MopId> fresh_sels = SelectionsOf(indexed_plan);
  ASSERT_EQ(fresh_sels.size(), 1u);
  ShareIndex::Candidate c = index.Probe(fresh_sels[0]);
  EXPECT_EQ(c.kind, ShareIndex::Candidate::kAttachSelection);
  EXPECT_EQ(c.target, idx_older);

  MergeNewQuery(&scan_plan, options);
  MergeNewQueryIndexed(&indexed_plan, &index, first_fresh, options);
  scan_plan.Validate();
  indexed_plan.Validate();

  // Both paths grew the oldest index; the newer one is untouched; no single
  // selection is left behind.
  EXPECT_EQ(scan_plan.mop(scan_older).num_members(), 3);
  EXPECT_EQ(scan_plan.mop(scan_newer).num_members(), 2);
  EXPECT_EQ(indexed_plan.mop(idx_older).num_members(), 3);
  EXPECT_EQ(indexed_plan.mop(idx_newer).num_members(), 2);
  EXPECT_TRUE(SelectionsOf(scan_plan).empty());
  EXPECT_TRUE(SelectionsOf(indexed_plan).empty());
  EXPECT_EQ(ExplainPlan(indexed_plan), ExplainPlan(scan_plan));
}

}  // namespace
}  // namespace rumor
