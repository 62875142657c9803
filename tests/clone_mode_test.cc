// CloneWithOutputMode round-trips: for every m-op type that can be a
// channel-rule producer (a merged m-op, with two or more output ports), the
// clone in channel-output mode must produce per-slot streams identical to
// the original's per-member ports.
#include <gtest/gtest.h>

#include "mop/aggregate_mop.h"
#include "mop/iterate_mop.h"
#include "mop/join_mop.h"
#include "mop/predicate_index_mop.h"
#include "mop/selection_mop.h"
#include "mop/sequence_mop.h"
#include "mop_test_util.h"
#include "rules/rule.h"

namespace rumor {
namespace {

ExprPtr EqConst(int attr, int64_t c) {
  return Expr::Cmp(CmpOp::kEq, Expr::Attr(Side::kLeft, attr),
                   Expr::ConstInt(c));
}
ExprPtr Equi(int la, int ra) {
  return Expr::Cmp(CmpOp::kEq, Expr::Attr(Side::kLeft, la),
                   Expr::Attr(Side::kRight, ra));
}

// Feeds the same random events into `original` (per-member ports) and its
// channel-mode clone; compares decoded outputs.
void ExpectCloneEquivalent(Mop& original, Mop& clone, int num_members,
                           int num_input_ports, uint64_t seed) {
  ASSERT_EQ(clone.num_outputs(), 1);
  CollectingEmitter orig_out(num_members), clone_out(1);
  Rng rng(seed);
  Timestamp ts = 0;
  for (int i = 0; i < 200; ++i) {
    ts += 1;
    Tuple t = RandomTuple(rng, 4, 4, ts);
    int port = num_input_ports == 1
                   ? 0
                   : static_cast<int>(rng.UniformInt(0, num_input_ports - 1));
    ChannelTuple ct = Plain(t);
    original.Process(port, ct, orig_out);
    clone.Process(port, ct, clone_out);
  }
  auto decoded = clone_out.DecodePort0(num_members);
  for (int m = 0; m < num_members; ++m) {
    ExpectSameTuples(decoded[m], orig_out.PortTuples(m),
                     "member " + std::to_string(m));
  }
}

TEST(CloneModeTest, PredicateIndex) {
  std::vector<SelectionDef> defs = {{EqConst(0, 1)}, {EqConst(0, 2)},
                                    {EqConst(1, 3)}};
  PredicateIndexMop original(defs, OutputMode::kPerMemberPorts);
  auto clone = CloneWithOutputMode(original, OutputMode::kChannel);
  ASSERT_EQ(clone->type(), MopType::kPredicateIndex);
  ExpectCloneEquivalent(original, *clone, 3, 1, 11);
}

TEST(CloneModeTest, ChannelSelect) {
  ChannelSelectMop original({EqConst(0, 1)}, 1, OutputMode::kPerMemberPorts);
  auto clone = CloneWithOutputMode(original, OutputMode::kChannel);
  ExpectCloneEquivalent(original, *clone, 1, 1, 13);
}

TEST(CloneModeTest, SharedSequence) {
  SequenceDef def{Equi(0, 0), 20};
  std::vector<SequenceMop::Member> members(3, {0, 0, def});
  SequenceMop original(members, SequenceMop::Sharing::kShared,
                       OutputMode::kPerMemberPorts);
  auto clone = CloneWithOutputMode(original, OutputMode::kChannel);
  ASSERT_EQ(clone->type(), MopType::kSharedSequence);
  ExpectCloneEquivalent(original, *clone, 3, 2, 14);
}

TEST(CloneModeTest, SharedIterate) {
  IterateDef def{Equi(0, 0),
                 Expr::Cmp(CmpOp::kGt, Expr::Attr(Side::kRight, 1),
                           Expr::Attr(Side::kLeft, 5)),
                 20, 4, 4};
  std::vector<IterateMop::Member> members(2, {0, 0, def});
  IterateMop original(members, IterateMop::Sharing::kShared,
                      OutputMode::kPerMemberPorts);
  auto clone = CloneWithOutputMode(original, OutputMode::kChannel);
  ExpectCloneEquivalent(original, *clone, 2, 2, 15);
}

TEST(CloneModeTest, SharedJoin) {
  JoinDef def{Equi(0, 0), 15, 15};
  std::vector<JoinMop::Member> members = {{0, 0, def}, {0, 0, def}};
  JoinMop original(members, JoinMop::Sharing::kShared,
                   OutputMode::kPerMemberPorts);
  auto clone = CloneWithOutputMode(original, OutputMode::kChannel);
  ExpectCloneEquivalent(original, *clone, 2, 2, 16);
}

TEST(CloneModeTest, SharedAggregate) {
  std::vector<AggregateMop::Member> members = {
      {0, {AggFn::kSum, 1, {0}, 10}}, {0, {AggFn::kSum, 1, {}, 4}}};
  AggregateMop original(members, AggregateMop::Sharing::kShared,
                        OutputMode::kPerMemberPorts);
  auto clone = CloneWithOutputMode(original, OutputMode::kChannel);
  ASSERT_EQ(clone->type(), MopType::kSharedAggregate);
  ExpectCloneEquivalent(original, *clone, 2, 1, 18);
}

}  // namespace
}  // namespace rumor
