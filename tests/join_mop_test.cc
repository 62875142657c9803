#include "mop/join_mop.h"

#include <gtest/gtest.h>

#include "mop_test_util.h"

namespace rumor {
namespace {

using Sharing = JoinMop::Sharing;

ExprPtr EquiPred(int la, int ra) {
  return Expr::Cmp(CmpOp::kEq, Expr::Attr(Side::kLeft, la),
                   Expr::Attr(Side::kRight, ra));
}

JoinMop::Member M(ExprPtr pred, int64_t lw, int64_t rw, int ls = 0,
                  int rs = 0) {
  return {ls, rs, JoinDef{std::move(pred), lw, rw}};
}

// Brute-force oracle for one member: remembers all tuples, re-scans.
class JoinOracle {
 public:
  JoinOracle(ExprPtr pred, int64_t lw, int64_t rw)
      : pred_(std::move(pred)), lw_(lw), rw_(rw) {}

  std::vector<Tuple> PushLeft(const Tuple& l) {
    std::vector<Tuple> out;
    for (const Tuple& r : rights_) {
      if (l.ts() - r.ts() > rw_) continue;  // r arrived first
      ExprContext ctx{&l, &r};
      if (EvalPredicate(pred_, ctx)) {
        out.push_back(ConcatTuples(l, r, std::max(l.ts(), r.ts())));
      }
    }
    lefts_.push_back(l);
    return out;
  }
  std::vector<Tuple> PushRight(const Tuple& r) {
    std::vector<Tuple> out;
    for (const Tuple& l : lefts_) {
      if (r.ts() - l.ts() > lw_) continue;  // l arrived first
      ExprContext ctx{&l, &r};
      if (EvalPredicate(pred_, ctx)) {
        out.push_back(ConcatTuples(l, r, std::max(l.ts(), r.ts())));
      }
    }
    rights_.push_back(r);
    return out;
  }

 private:
  ExprPtr pred_;
  int64_t lw_, rw_;
  std::vector<Tuple> lefts_, rights_;
};

TEST(JoinMopTest, BasicEquiJoin) {
  JoinMop mop({M(EquiPred(0, 0), 100, 100)}, Sharing::kIsolated,
              OutputMode::kPerMemberPorts);
  EXPECT_TRUE(mop.indexed());
  CollectingEmitter out(1);
  mop.Process(0, Plain(Tuple::MakeInts({7, 1}, 0)), out);
  mop.Process(1, Plain(Tuple::MakeInts({7, 2}, 1)), out);
  mop.Process(1, Plain(Tuple::MakeInts({8, 3}, 2)), out);
  ASSERT_EQ(out.port(0).size(), 1u);
  const Tuple& t = out.port(0)[0].tuple;
  ASSERT_EQ(t.size(), 4);
  EXPECT_EQ(t.at(1).AsInt(), 1);
  EXPECT_EQ(t.at(3).AsInt(), 2);
  EXPECT_EQ(t.ts(), 1);
}

TEST(JoinMopTest, WindowExcludesOldTuples) {
  JoinMop mop({M(EquiPred(0, 0), 5, 5)}, Sharing::kIsolated,
              OutputMode::kPerMemberPorts);
  CollectingEmitter out(1);
  mop.Process(0, Plain(Tuple::MakeInts({1}, 0)), out);
  mop.Process(1, Plain(Tuple::MakeInts({1}, 10)), out);  // age 10 > 5
  EXPECT_EQ(out.port(0).size(), 0u);
  mop.Process(0, Plain(Tuple::MakeInts({1}, 11)), out);  // joins ts10, age 1
  EXPECT_EQ(out.port(0).size(), 1u);
}

TEST(JoinMopTest, NonEquiPredicateScan) {
  auto pred = Expr::Cmp(CmpOp::kLt, Expr::Attr(Side::kLeft, 0),
                        Expr::Attr(Side::kRight, 0));
  JoinMop mop({M(pred, 100, 100)}, Sharing::kIsolated,
              OutputMode::kPerMemberPorts);
  EXPECT_FALSE(mop.indexed());
  CollectingEmitter out(1);
  mop.Process(0, Plain(Tuple::MakeInts({5}, 0)), out);
  mop.Process(1, Plain(Tuple::MakeInts({6}, 1)), out);
  mop.Process(1, Plain(Tuple::MakeInts({4}, 2)), out);
  EXPECT_EQ(out.port(0).size(), 1u);
}

// Property: isolated join matches the brute-force oracle.
class JoinOracleTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(JoinOracleTest, MatchesBruteForce) {
  Rng rng(GetParam());
  bool equi = rng.Bernoulli(0.7);
  ExprPtr pred = equi ? EquiPred(0, 0)
                      : Expr::Cmp(CmpOp::kLe, Expr::Attr(Side::kLeft, 1),
                                  Expr::Attr(Side::kRight, 1));
  int64_t lw = 1 + rng.UniformInt(1, 20), rw = 1 + rng.UniformInt(1, 20);
  JoinMop mop({M(pred, lw, rw)}, Sharing::kIsolated,
              OutputMode::kPerMemberPorts);
  JoinOracle oracle(pred, lw, rw);
  CollectingEmitter out(1);
  std::vector<Tuple> expected;
  Timestamp ts = 0;
  for (int i = 0; i < 300; ++i) {
    ts += rng.UniformInt(0, 2);
    Tuple t = RandomTuple(rng, 3, 4, ts);
    if (rng.Bernoulli(0.5)) {
      auto got = oracle.PushLeft(t);
      expected.insert(expected.end(), got.begin(), got.end());
      mop.Process(0, Plain(t), out);
    } else {
      auto got = oracle.PushRight(t);
      expected.insert(expected.end(), got.begin(), got.end());
      mop.Process(1, Plain(t), out);
    }
  }
  ExpectSameTuples(out.PortTuples(0), expected, "join outputs");
}

INSTANTIATE_TEST_SUITE_P(Seeds, JoinOracleTest,
                         ::testing::Range<uint64_t>(0, 12));

// Property: shared join (s⋈, different windows) ≡ one isolated ⋈ per
// member.
class SharedJoinPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SharedJoinPropertyTest, SharedMatchesIsolated) {
  Rng rng(GetParam());
  const int num_members = 1 + static_cast<int>(rng.UniformInt(1, 8));
  ExprPtr pred = rng.Bernoulli(0.7)
                     ? EquiPred(0, 0)
                     : Expr::Cmp(CmpOp::kGe, Expr::Attr(Side::kRight, 1),
                                 Expr::Attr(Side::kLeft, 1));
  std::vector<JoinMop::Member> members;
  for (int i = 0; i < num_members; ++i) {
    members.push_back(
        M(pred, 1 + rng.UniformInt(1, 30), 1 + rng.UniformInt(1, 30)));
  }
  JoinMop shared(members, Sharing::kShared, OutputMode::kPerMemberPorts);
  IsolatedMembers isolated = IsolatedOf<JoinMop>(members);
  CollectingEmitter s_out(num_members);
  Timestamp ts = 0;
  for (int i = 0; i < 400; ++i) {
    ts += rng.UniformInt(0, 2);
    Tuple t = RandomTuple(rng, 3, 4, ts);
    int port = rng.Bernoulli(0.5) ? 0 : 1;
    shared.Process(port, Plain(t), s_out);
    isolated.Process(port, Plain(t));
  }
  ExpectMatchesIsolated(s_out, isolated, /*ordered=*/false);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SharedJoinPropertyTest,
                         ::testing::Range<uint64_t>(0, 12));

// Property: precision join (c⋈) over channels ≡ one isolated ⋈ per member,
// each reading its slots.
class PrecisionJoinPropertyTest : public ::testing::TestWithParam<uint64_t> {
};

TEST_P(PrecisionJoinPropertyTest, PrecisionMatchesIsolated) {
  Rng rng(GetParam());
  const int capacity = 1 + static_cast<int>(rng.UniformInt(1, 6));
  ExprPtr pred = EquiPred(0, 0);
  JoinDef def{pred, 1 + rng.UniformInt(1, 20), 1 + rng.UniformInt(1, 20)};
  std::vector<JoinMop::Member> members;
  for (int i = 0; i < capacity; ++i) members.push_back({i, i, def});

  JoinMop precision(members, Sharing::kPrecision,
                    OutputMode::kPerMemberPorts);
  IsolatedMembers isolated = IsolatedOf<JoinMop>(members);
  CollectingEmitter p_out(capacity);
  Timestamp ts = 0;
  for (int i = 0; i < 400; ++i) {
    ts += rng.UniformInt(0, 2);
    ChannelTuple ct{RandomTuple(rng, 2, 4, ts),
                    RandomMembership(rng, capacity)};
    int port = rng.Bernoulli(0.5) ? 0 : 1;
    precision.Process(port, ct, p_out);
    isolated.Process(port, ct);
  }
  ExpectMatchesIsolated(p_out, isolated, /*ordered=*/false);
}

INSTANTIATE_TEST_SUITE_P(Seeds, PrecisionJoinPropertyTest,
                         ::testing::Range<uint64_t>(0, 12));

TEST(JoinMopTest, ChannelOutputModeSharesMatches) {
  // Precision join in channel-output mode: one channel tuple per match,
  // membership = AND of input memberships.
  JoinDef def{EquiPred(0, 0), 100, 100};
  JoinMop mop({{0, 0, def}, {1, 1, def}}, Sharing::kPrecision,
              OutputMode::kChannel);
  CollectingEmitter out(1);
  BitVector both = BitVector::AllOnes(2);
  mop.Process(0, ChannelTuple{Tuple::MakeInts({1}, 0), both}, out);
  mop.Process(1, ChannelTuple{Tuple::MakeInts({1}, 1), both}, out);
  ASSERT_EQ(out.port(0).size(), 1u);
  EXPECT_EQ(out.port(0)[0].membership.Count(), 2);
}

}  // namespace
}  // namespace rumor
