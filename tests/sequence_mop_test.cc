#include "mop/sequence_mop.h"

#include <gtest/gtest.h>

#include "mop_test_util.h"

namespace rumor {
namespace {

using Sharing = SequenceMop::Sharing;

ExprPtr EquiPred(int la, int ra) {
  return Expr::Cmp(CmpOp::kEq, Expr::Attr(Side::kLeft, la),
                   Expr::Attr(Side::kRight, ra));
}
ExprPtr ConstPreds(int64_t lc, int64_t rc) {
  return Expr::And(Expr::Cmp(CmpOp::kEq, Expr::Attr(Side::kLeft, 0),
                             Expr::ConstInt(lc)),
                   Expr::Cmp(CmpOp::kEq, Expr::Attr(Side::kRight, 0),
                             Expr::ConstInt(rc)));
}

SequenceMop::Member M(ExprPtr pred, int64_t window, int ls = 0, int rs = 0) {
  return {ls, rs, SequenceDef{std::move(pred), window}};
}

// Brute-force oracle with the documented semantics: strict l.ts < r.ts,
// window bound, consume-on-match.
class SeqOracle {
 public:
  SeqOracle(ExprPtr pred, int64_t window)
      : pred_(std::move(pred)), window_(window) {}

  void PushLeft(const Tuple& l) { instances_.push_back({l, true}); }

  std::vector<Tuple> PushRight(const Tuple& r) {
    std::vector<Tuple> out;
    for (auto& [l, alive] : instances_) {
      if (!alive) continue;
      if (l.ts() >= r.ts()) continue;
      if (window_ > 0 && r.ts() - l.ts() > window_) continue;
      ExprContext ctx{&l, &r};
      if (EvalPredicate(pred_, ctx)) {
        out.push_back(ConcatTuples(l, r, r.ts()));
        alive = false;  // consume
      }
    }
    return out;
  }

 private:
  ExprPtr pred_;
  int64_t window_;
  std::vector<std::pair<Tuple, bool>> instances_;
};

TEST(SequenceMopTest, BasicMatchEmitsConcat) {
  SequenceMop mop({M(ConstPreds(1, 2), 100)}, Sharing::kIsolated,
                  OutputMode::kPerMemberPorts);
  CollectingEmitter out(1);
  mop.Process(0, Plain(Tuple::MakeInts({1, 7}, 0)), out);
  mop.Process(1, Plain(Tuple::MakeInts({2, 8}, 1)), out);
  ASSERT_EQ(out.port(0).size(), 1u);
  const Tuple& t = out.port(0)[0].tuple;
  EXPECT_EQ(t.ts(), 1);
  ASSERT_EQ(t.size(), 4);
  EXPECT_EQ(t.at(1).AsInt(), 7);
  EXPECT_EQ(t.at(3).AsInt(), 8);
}

TEST(SequenceMopTest, ConsumeOnMatch) {
  // Paper §5.2: a matched instance is deleted.
  SequenceMop mop({M(ConstPreds(1, 2), 100)}, Sharing::kIsolated,
                  OutputMode::kPerMemberPorts);
  CollectingEmitter out(1);
  mop.Process(0, Plain(Tuple::MakeInts({1}, 0)), out);
  mop.Process(1, Plain(Tuple::MakeInts({2}, 1)), out);
  mop.Process(1, Plain(Tuple::MakeInts({2}, 2)), out);  // no instance left
  EXPECT_EQ(out.port(0).size(), 1u);
  EXPECT_EQ(mop.instance_count(), 0u);
}

TEST(SequenceMopTest, WindowExpiry) {
  SequenceMop mop({M(ConstPreds(1, 2), 5)}, Sharing::kIsolated,
                  OutputMode::kPerMemberPorts);
  CollectingEmitter out(1);
  mop.Process(0, Plain(Tuple::MakeInts({1}, 0)), out);
  mop.Process(1, Plain(Tuple::MakeInts({2}, 10)), out);  // expired
  EXPECT_EQ(out.port(0).size(), 0u);
}

TEST(SequenceMopTest, StrictTemporalOrder) {
  SequenceMop mop({M(nullptr, 100)}, Sharing::kIsolated,
                  OutputMode::kPerMemberPorts);
  CollectingEmitter out(1);
  mop.Process(0, Plain(Tuple::MakeInts({1}, 5)), out);
  mop.Process(1, Plain(Tuple::MakeInts({2}, 5)), out);  // same ts: no match
  EXPECT_EQ(out.port(0).size(), 0u);
}

TEST(SequenceMopTest, EquiPredicateEnablesIndex) {
  SequenceMop indexed({M(EquiPred(0, 0), 100)}, Sharing::kIsolated,
                      OutputMode::kPerMemberPorts);
  EXPECT_TRUE(indexed.indexed());
  SequenceMop scan({M(ConstPreds(1, 2), 100)}, Sharing::kIsolated,
                   OutputMode::kPerMemberPorts);
  EXPECT_FALSE(scan.indexed());
}

TEST(SequenceMopTest, SharedMultiplexesToAllMembers) {
  SequenceDef def{ConstPreds(1, 2), 100};
  SequenceMop mop({{0, 0, def}, {0, 0, def}, {0, 0, def}}, Sharing::kShared,
                  OutputMode::kPerMemberPorts);
  CollectingEmitter out(3);
  mop.Process(0, Plain(Tuple::MakeInts({1}, 0)), out);
  mop.Process(1, Plain(Tuple::MakeInts({2}, 1)), out);
  for (int m = 0; m < 3; ++m) EXPECT_EQ(out.port(m).size(), 1u);
  // One shared instance store, not three.
  EXPECT_EQ(mop.instance_count(), 0u);  // consumed once
}

TEST(SequenceMopTest, ChannelMembershipRouting) {
  SequenceDef def{EquiPred(0, 0), 100};
  SequenceMop mop({{0, 0, def}, {1, 0, def}}, Sharing::kChannel,
                  OutputMode::kChannel);
  CollectingEmitter out(1);
  // Left channel tuple belonging only to slot 1.
  mop.Process(0, ChannelTuple{Tuple::MakeInts({4}, 0),
                              BitVector::Singleton(1, 2)},
              out);
  mop.Process(1, Plain(Tuple::MakeInts({4}, 1)), out);
  ASSERT_EQ(out.port(0).size(), 1u);
  EXPECT_FALSE(out.port(0)[0].membership.Test(0));
  EXPECT_TRUE(out.port(0)[0].membership.Test(1));
}

// Property: isolated sequence matches the brute-force oracle (indexed and
// non-indexed predicates).
class SequenceOracleTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SequenceOracleTest, MatchesBruteForce) {
  Rng rng(GetParam());
  ExprPtr pred;
  switch (rng.UniformInt(0, 2)) {
    case 0:
      pred = EquiPred(0, 0);
      break;
    case 1:
      pred = Expr::And(EquiPred(0, 0),
                       Expr::Cmp(CmpOp::kGt, Expr::Attr(Side::kRight, 1),
                                 Expr::Attr(Side::kLeft, 1)));
      break;
    default:
      pred = Expr::Cmp(CmpOp::kLe, Expr::Attr(Side::kLeft, 1),
                       Expr::Attr(Side::kRight, 1));
      break;
  }
  int64_t window = rng.Bernoulli(0.8) ? 1 + rng.UniformInt(1, 20) : 0;
  SequenceMop mop({M(pred, window)}, Sharing::kIsolated,
                  OutputMode::kPerMemberPorts);
  SeqOracle oracle(pred, window);
  CollectingEmitter out(1);
  std::vector<Tuple> expected;
  Timestamp ts = 0;
  for (int i = 0; i < 400; ++i) {
    ts += rng.UniformInt(0, 2);
    Tuple t = RandomTuple(rng, 3, 4, ts);
    if (rng.Bernoulli(0.5)) {
      oracle.PushLeft(t);
      mop.Process(0, Plain(t), out);
    } else {
      auto got = oracle.PushRight(t);
      expected.insert(expected.end(), got.begin(), got.end());
      mop.Process(1, Plain(t), out);
    }
  }
  ExpectSameTuples(out.PortTuples(0), expected, "sequence outputs");
}

INSTANTIATE_TEST_SUITE_P(Seeds, SequenceOracleTest,
                         ::testing::Range<uint64_t>(0, 15));

// Property: shared (s;) and channel (c;) modes ≡ one isolated ; per member.
class SharedSequencePropertyTest
    : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SharedSequencePropertyTest, SharedMatchesIsolated) {
  Rng rng(GetParam());
  const int n = 1 + static_cast<int>(rng.UniformInt(1, 6));
  SequenceDef def{EquiPred(0, 0), 1 + rng.UniformInt(1, 20)};
  std::vector<SequenceMop::Member> members(n, {0, 0, def});
  SequenceMop shared(members, Sharing::kShared, OutputMode::kPerMemberPorts);
  IsolatedMembers isolated = IsolatedOf<SequenceMop>(members);
  CollectingEmitter s_out(n);
  Timestamp ts = 0;
  for (int i = 0; i < 300; ++i) {
    ts += rng.UniformInt(0, 2);
    Tuple t = RandomTuple(rng, 2, 4, ts);
    int port = rng.Bernoulli(0.5) ? 0 : 1;
    shared.Process(port, Plain(t), s_out);
    isolated.Process(port, Plain(t));
  }
  ExpectMatchesIsolated(s_out, isolated, /*ordered=*/false);
}

TEST_P(SharedSequencePropertyTest, ChannelMatchesIsolated) {
  Rng rng(GetParam());
  const int n = 1 + static_cast<int>(rng.UniformInt(1, 6));
  SequenceDef def{EquiPred(0, 0), 1 + rng.UniformInt(1, 20)};
  std::vector<SequenceMop::Member> members;
  for (int i = 0; i < n; ++i) members.push_back({i, 0, def});
  SequenceMop channel(members, Sharing::kChannel,
                      OutputMode::kPerMemberPorts);
  IsolatedMembers isolated = IsolatedOf<SequenceMop>(members);
  CollectingEmitter c_out(n);
  Timestamp ts = 0;
  for (int i = 0; i < 300; ++i) {
    ts += rng.UniformInt(0, 2);
    Tuple t = RandomTuple(rng, 2, 4, ts);
    if (rng.Bernoulli(0.5)) {
      ChannelTuple ct{t, RandomMembership(rng, n)};
      channel.Process(0, ct, c_out);
      isolated.Process(0, ct);
    } else {
      channel.Process(1, Plain(t), c_out);
      isolated.Process(1, Plain(t));
    }
  }
  ExpectMatchesIsolated(c_out, isolated, /*ordered=*/false);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SharedSequencePropertyTest,
                         ::testing::Range<uint64_t>(0, 12));

}  // namespace
}  // namespace rumor
