#include "mop/iterate_mop.h"

#include <gtest/gtest.h>

#include "mop_test_util.h"

namespace rumor {
namespace {

using Sharing = IterateMop::Sharing;

// Instance concat layout for 2-attr schemas: [start.a0, start.a1, last.a0,
// last.a1]; event = right side.
constexpr int kArity = 2;

// Match: start.a0 = event.a0 (pid equality).
ExprPtr MatchPred() {
  return Expr::Cmp(CmpOp::kEq, Expr::Attr(Side::kLeft, 0),
                   Expr::Attr(Side::kRight, 0));
}
// Rebind: event.a1 > last.a1 (monotonic run).
ExprPtr RebindPred() {
  return Expr::Cmp(CmpOp::kGt, Expr::Attr(Side::kRight, 1),
                   Expr::Attr(Side::kLeft, kArity + 1));
}

IterateMop::Member M(int64_t window, int ls = 0, int rs = 0) {
  return {ls, rs,
          IterateDef{MatchPred(), RebindPred(), window, kArity, kArity}};
}

// Brute-force oracle implementing the documented deterministic µ semantics.
class IterOracle {
 public:
  explicit IterOracle(int64_t window) : window_(window) {}

  void PushLeft(const Tuple& l) {
    std::vector<Value> concat(l.values().begin(), l.values().end());
    concat.insert(concat.end(), l.values().begin(), l.values().end());
    instances_.push_back({Tuple::Make(std::move(concat), l.ts()), l.ts(),
                          true});
  }

  std::vector<Tuple> PushEvent(const Tuple& e) {
    std::vector<Tuple> out;
    for (auto& inst : instances_) {
      if (!inst.alive) continue;
      if (inst.start_ts >= e.ts()) continue;
      if (window_ > 0 && e.ts() - inst.start_ts > window_) {
        inst.alive = false;
        continue;
      }
      ExprContext ctx{&inst.concat, &e};
      if (!MatchPred()->EvalBool(ctx)) continue;
      if (!RebindPred()->EvalBool(ctx)) {
        inst.alive = false;
        continue;
      }
      std::vector<Value> values;
      for (int k = 0; k < kArity; ++k) values.push_back(inst.concat.at(k));
      values.insert(values.end(), e.values().begin(), e.values().end());
      Tuple updated = Tuple::Make(std::move(values), e.ts());
      out.push_back(updated);
      inst.concat = updated;
    }
    return out;
  }

 private:
  struct Inst {
    Tuple concat;
    Timestamp start_ts;
    bool alive;
  };
  int64_t window_;
  std::vector<Inst> instances_;
};

TEST(IterateMopTest, MonotonicRunEmitsEachExtension) {
  IterateMop mop({M(100)}, Sharing::kIsolated, OutputMode::kPerMemberPorts);
  CollectingEmitter out(1);
  mop.Process(0, Plain(Tuple::MakeInts({7, 10}, 0)), out);  // start, load 10
  mop.Process(1, Plain(Tuple::MakeInts({7, 12}, 1)), out);  // 12 > 10
  mop.Process(1, Plain(Tuple::MakeInts({7, 15}, 2)), out);  // 15 > 12
  ASSERT_EQ(out.port(0).size(), 2u);
  // Second emission: start (7,10), last (7,15).
  const Tuple& t = out.port(0)[1].tuple;
  EXPECT_EQ(t.at(1).AsInt(), 10);
  EXPECT_EQ(t.at(3).AsInt(), 15);
  EXPECT_EQ(t.ts(), 2);
}

TEST(IterateMopTest, RunBrokenKillsInstance) {
  IterateMop mop({M(100)}, Sharing::kIsolated, OutputMode::kPerMemberPorts);
  CollectingEmitter out(1);
  mop.Process(0, Plain(Tuple::MakeInts({7, 10}, 0)), out);
  mop.Process(1, Plain(Tuple::MakeInts({7, 5}, 1)), out);  // 5 < 10: broken
  mop.Process(1, Plain(Tuple::MakeInts({7, 20}, 2)), out);  // instance dead
  EXPECT_EQ(out.port(0).size(), 0u);
}

TEST(IterateMopTest, IrrelevantEventLeavesInstance) {
  IterateMop mop({M(100)}, Sharing::kIsolated, OutputMode::kPerMemberPorts);
  CollectingEmitter out(1);
  mop.Process(0, Plain(Tuple::MakeInts({7, 10}, 0)), out);
  mop.Process(1, Plain(Tuple::MakeInts({8, 99}, 1)), out);  // other pid
  mop.Process(1, Plain(Tuple::MakeInts({7, 11}, 2)), out);  // still alive
  EXPECT_EQ(out.port(0).size(), 1u);
}

TEST(IterateMopTest, FirstEventComparesAgainstStart) {
  // last is initialised to the start event: first event must exceed the
  // start's a1.
  IterateMop mop({M(100)}, Sharing::kIsolated, OutputMode::kPerMemberPorts);
  CollectingEmitter out(1);
  mop.Process(0, Plain(Tuple::MakeInts({7, 10}, 0)), out);
  mop.Process(1, Plain(Tuple::MakeInts({7, 10}, 1)), out);  // not > 10: dead
  mop.Process(1, Plain(Tuple::MakeInts({7, 11}, 2)), out);
  EXPECT_EQ(out.port(0).size(), 0u);
}

TEST(IterateMopTest, WindowBoundsRun) {
  IterateMop mop({M(5)}, Sharing::kIsolated, OutputMode::kPerMemberPorts);
  CollectingEmitter out(1);
  mop.Process(0, Plain(Tuple::MakeInts({7, 1}, 0)), out);
  mop.Process(1, Plain(Tuple::MakeInts({7, 2}, 3)), out);   // within
  mop.Process(1, Plain(Tuple::MakeInts({7, 3}, 10)), out);  // expired
  EXPECT_EQ(out.port(0).size(), 1u);
  EXPECT_EQ(mop.instance_count(), 0u);
}

TEST(IterateMopTest, MatchPredicateIsIndexed) {
  IterateMop mop({M(100)}, Sharing::kIsolated, OutputMode::kPerMemberPorts);
  EXPECT_TRUE(mop.indexed());
}

// Property: isolated µ matches the brute-force oracle.
class IterateOracleTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(IterateOracleTest, MatchesBruteForce) {
  Rng rng(GetParam());
  int64_t window = rng.Bernoulli(0.8) ? 1 + rng.UniformInt(1, 25) : 0;
  IterateMop mop({M(window)}, Sharing::kIsolated,
                 OutputMode::kPerMemberPorts);
  IterOracle oracle(window);
  CollectingEmitter out(1);
  std::vector<Tuple> expected;
  Timestamp ts = 0;
  for (int i = 0; i < 400; ++i) {
    ts += 1;  // strictly increasing: deterministic run semantics
    Tuple t = RandomTuple(rng, kArity, 4, ts);
    if (rng.Bernoulli(0.3)) {
      oracle.PushLeft(t);
      mop.Process(0, Plain(t), out);
    } else {
      auto got = oracle.PushEvent(t);
      expected.insert(expected.end(), got.begin(), got.end());
      mop.Process(1, Plain(t), out);
    }
  }
  ExpectSameTuples(out.PortTuples(0), expected, "iterate outputs");
}

INSTANTIATE_TEST_SUITE_P(Seeds, IterateOracleTest,
                         ::testing::Range<uint64_t>(0, 15));

// Property: shared (sµ) and channel (cµ) modes ≡ one isolated µ per member.
class SharedIteratePropertyTest
    : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SharedIteratePropertyTest, SharedMatchesIsolated) {
  Rng rng(GetParam());
  const int n = 1 + static_cast<int>(rng.UniformInt(1, 5));
  std::vector<IterateMop::Member> members(n, M(1 + rng.UniformInt(1, 20)));
  IterateMop shared(members, Sharing::kShared, OutputMode::kPerMemberPorts);
  IsolatedMembers isolated = IsolatedOf<IterateMop>(members);
  CollectingEmitter s_out(n);
  Timestamp ts = 0;
  for (int i = 0; i < 300; ++i) {
    ts += 1;
    Tuple t = RandomTuple(rng, kArity, 4, ts);
    int port = rng.Bernoulli(0.3) ? 0 : 1;
    shared.Process(port, Plain(t), s_out);
    isolated.Process(port, Plain(t));
  }
  ExpectMatchesIsolated(s_out, isolated, /*ordered=*/false);
}

TEST_P(SharedIteratePropertyTest, ChannelMatchesIsolated) {
  Rng rng(GetParam());
  const int n = 1 + static_cast<int>(rng.UniformInt(1, 5));
  const int64_t window = 1 + rng.UniformInt(1, 20);
  std::vector<IterateMop::Member> members;
  for (int i = 0; i < n; ++i) members.push_back(M(window, i, 0));
  IterateMop channel(members, Sharing::kChannel,
                     OutputMode::kPerMemberPorts);
  IsolatedMembers isolated = IsolatedOf<IterateMop>(members);
  CollectingEmitter c_out(n);
  Timestamp ts = 0;
  for (int i = 0; i < 300; ++i) {
    ts += 1;
    Tuple t = RandomTuple(rng, kArity, 4, ts);
    if (rng.Bernoulli(0.3)) {
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

INSTANTIATE_TEST_SUITE_P(Seeds, SharedIteratePropertyTest,
                         ::testing::Range<uint64_t>(0, 12));

}  // namespace
}  // namespace rumor
