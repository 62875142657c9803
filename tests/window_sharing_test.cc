// Seeded differential test of the window-sharing targets s⋈, s; and sµ: one
// shared m-op runs every member against one isolated m-op per member, on
// random S/T streams, and each member's output must match its isolated twin
// byte for byte and in order. Covers random windows (equal ones and 0),
// non-equi residual conjuncts and unindexed predicates, consume-on-match,
// µ rebind failures, deactivation mid-stream, and SaveState -> LoadState
// into a fresh shared m-op at random cuts.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "mop/iterate_mop.h"
#include "mop/join_mop.h"
#include "mop/mop_state.h"
#include "mop/sequence_mop.h"
#include "mop_test_util.h"

namespace rumor {
namespace {

constexpr int kArity = 3;  // S and T: a0 (the equi key), a1, a2

enum class Kind { kJoin, kSequence, kIterate };

ExprPtr Attr(Side side, int i) { return Expr::Attr(side, i); }
ExprPtr Cmp(CmpOp op, ExprPtr l, ExprPtr r) {
  return Expr::Cmp(op, std::move(l), std::move(r));
}

// The members' common definition; member i differs only in windows[i].
struct Spec {
  Kind kind = Kind::kJoin;
  ExprPtr predicate;  // ⋈, ;; µ: match
  ExprPtr rebind;     // µ
  // ⋈: (left, right) windows; ;/µ use .first (0 = unbounded).
  std::vector<std::pair<int64_t, int64_t>> windows;
};

// l.a0 = r.a0, a non-equi residual, or both.
ExprPtr RandomPredicate(Rng& rng) {
  const ExprPtr equi =
      Cmp(CmpOp::kEq, Attr(Side::kLeft, 0), Attr(Side::kRight, 0));
  const ExprPtr residual =
      rng.Bernoulli(0.5)
          ? Cmp(CmpOp::kLt, Attr(Side::kLeft, 1), Attr(Side::kRight, 1))
          : Cmp(CmpOp::kGt,
                Expr::Arith(ArithOp::kAdd, Attr(Side::kLeft, 2),
                            Attr(Side::kRight, 2)),
                Expr::ConstInt(6));
  switch (rng.UniformInt(0, 2)) {
    case 0: return equi;
    case 1: return Expr::And(equi, residual);
    default: return residual;  // unindexed store
  }
}

Spec RandomSpec(Rng& rng, Kind kind) {
  Spec spec;
  spec.kind = kind;
  if (kind == Kind::kIterate) {
    // Match on the start part; rebind on the last part (event.a1 > last.a1
    // or >=), which fails often and kills the instance.
    spec.predicate = rng.Bernoulli(0.75)
                         ? Cmp(CmpOp::kEq, Attr(Side::kLeft, 0),
                               Attr(Side::kRight, 0))
                         : Cmp(CmpOp::kNe, Attr(Side::kLeft, 2),
                               Attr(Side::kRight, 2));
    spec.rebind = Cmp(rng.Bernoulli(0.5) ? CmpOp::kGt : CmpOp::kGe,
                      Attr(Side::kRight, 1), Attr(Side::kLeft, kArity + 1));
  } else {
    spec.predicate = RandomPredicate(rng);
  }
  const int n = static_cast<int>(rng.UniformInt(2, 6));
  for (int i = 0; i < n; ++i) {
    std::pair<int64_t, int64_t> w;
    if (i > 0 && rng.Bernoulli(0.25)) {
      w = spec.windows[rng.UniformInt(0, i - 1)];  // an equal window
    } else {
      auto one = [&] {
        return rng.Bernoulli(0.15) ? 0 : rng.UniformInt(1, 30);
      };
      w = {one(), one()};
    }
    spec.windows.push_back(w);
  }
  return spec;
}

// An m-op of `spec`'s kind over the members `which`.
std::unique_ptr<Mop> Build(const Spec& spec, const std::vector<int>& which,
                           bool shared) {
  const OutputMode mode = OutputMode::kPerMemberPorts;
  switch (spec.kind) {
    case Kind::kJoin: {
      std::vector<JoinMop::Member> members;
      for (int i : which) {
        members.push_back({0, 0,
                           JoinDef{spec.predicate, spec.windows[i].first,
                                   spec.windows[i].second}});
      }
      return std::make_unique<JoinMop>(
          members, shared ? JoinMop::Sharing::kShared
                          : JoinMop::Sharing::kIsolated,
          mode);
    }
    case Kind::kSequence: {
      std::vector<SequenceMop::Member> members;
      for (int i : which) {
        members.push_back(
            {0, 0, SequenceDef{spec.predicate, spec.windows[i].first}});
      }
      return std::make_unique<SequenceMop>(
          members, shared ? SequenceMop::Sharing::kShared
                          : SequenceMop::Sharing::kIsolated,
          mode);
    }
    case Kind::kIterate: {
      std::vector<IterateMop::Member> members;
      for (int i : which) {
        members.push_back({0, 0,
                           IterateDef{spec.predicate, spec.rebind,
                                      spec.windows[i].first, kArity,
                                      kArity}});
      }
      return std::make_unique<IterateMop>(
          members, shared ? IterateMop::Sharing::kShared
                          : IterateMop::Sharing::kIsolated,
          mode);
    }
  }
  return nullptr;
}

// Live ;/µ instances (-1 for ⋈, whose buffers are not exposed).
int64_t Instances(const Mop& mop) {
  if (mop.type() == MopType::kJoin || mop.type() == MopType::kSharedJoin) {
    return -1;
  }
  return static_cast<int64_t>(
      static_cast<const PatternMop&>(mop).instance_count());
}

class WindowShareDiff {
 public:
  WindowShareDiff(uint64_t seed, Kind kind)
      : rng_(seed), spec_(RandomSpec(rng_, kind)) {
    const int n = static_cast<int>(spec_.windows.size());
    std::vector<int> all;
    for (int i = 0; i < n; ++i) {
      all.push_back(i);
      isolated_.push_back(Build(spec_, {i}, /*shared=*/false));
      active_.push_back(true);
    }
    shared_ = Build(spec_, all, /*shared=*/true);
  }

  void Run(int steps) {
    for (int step = 0; step < steps; ++step) {
      SCOPED_TRACE(testing::Message() << "step " << step);
      const int64_t roll = rng_.UniformInt(0, 99);
      if (roll < 2) {
        Deactivate();
      } else if (roll < 5) {
        RoundTrip();
      } else {
        Push();
      }
      if (testing::Test::HasFailure()) return;
    }
  }

  // Results the isolated members emitted (the run must exercise matches).
  int64_t emitted() const { return emitted_; }

 private:
  static std::vector<std::string> Bytes(const std::vector<Tuple>& tuples) {
    std::vector<std::string> out;
    for (const Tuple& t : tuples) out.push_back(t.ToString());
    return out;
  }

  void Push() {
    ts_ += rng_.UniformInt(0, 3);
    const int port = static_cast<int>(rng_.UniformInt(0, 1));
    const Tuple t = Tuple::MakeInts(
        {rng_.UniformInt(0, 2), rng_.UniformInt(0, 9), rng_.UniformInt(0, 5)},
        ts_);
    const int n = static_cast<int>(isolated_.size());
    CollectingEmitter shared_out(n);
    shared_->Process(port, Plain(t), shared_out);
    int64_t widest_instances = 0;
    for (int i = 0; i < n; ++i) {
      if (!active_[i]) {
        EXPECT_TRUE(shared_out.port(i).empty()) << "inactive member " << i;
        continue;
      }
      CollectingEmitter alone(1);
      isolated_[i]->Process(port, Plain(t), alone);
      EXPECT_EQ(Bytes(shared_out.PortTuples(i)), Bytes(alone.PortTuples(0)))
          << "member " << i << " window " << spec_.windows[i].first << "/"
          << spec_.windows[i].second;
      emitted_ += static_cast<int64_t>(alone.port(0).size());
      widest_instances =
          std::max(widest_instances, Instances(*isolated_[i]));
    }
    // After a right tuple every store has expired to its window, and the
    // shared store holds exactly the widest active member's instances.
    if (port == 1 && spec_.kind != Kind::kJoin) {
      EXPECT_EQ(Instances(*shared_), widest_instances);
    }
  }

  void Deactivate() {
    std::vector<int> active;
    for (size_t i = 0; i < active_.size(); ++i) {
      if (active_[i]) active.push_back(static_cast<int>(i));
    }
    if (active.size() < 2) return;
    const int victim = active[rng_.UniformInt(0, active.size() - 1)];
    ASSERT_TRUE(shared_->DeactivateMember(victim));
    EXPECT_FALSE(shared_->member_active(victim));
    active_[victim] = false;
  }

  // Checkpoints the shared m-op and continues on a fresh one loaded from it.
  void RoundTrip() {
    MopState state;
    ASSERT_TRUE(shared_->SaveState(&state));
    EXPECT_TRUE(state.shared_state);
    EXPECT_FALSE(state.member_filtered);
    std::vector<int> all;
    MopStateBinding binding;
    binding.src = &state;
    binding.input_capacities = {1, 1};
    for (size_t i = 0; i < active_.size(); ++i) {
      all.push_back(static_cast<int>(i));
      EXPECT_EQ(shared_->member_active(static_cast<int>(i)), active_[i]);
      binding.saved_slot.push_back(active_[i] ? static_cast<int>(i) : -1);
    }
    std::unique_ptr<Mop> next = Build(spec_, all, /*shared=*/true);
    for (size_t i = 0; i < active_.size(); ++i) {
      if (!active_[i]) next->DeactivateMember(static_cast<int>(i));
    }
    const Status st = next->LoadState(state, binding);
    ASSERT_TRUE(st.ok()) << st.ToString();
    EXPECT_EQ(Instances(*next), Instances(*shared_));
    shared_ = std::move(next);
  }

  Rng rng_;
  Spec spec_;
  std::unique_ptr<Mop> shared_;
  std::vector<std::unique_ptr<Mop>> isolated_;
  std::vector<bool> active_;
  Timestamp ts_ = 0;
  int64_t emitted_ = 0;
};

class WindowSharingDifferentialTest
    : public ::testing::TestWithParam<uint64_t> {};

TEST_P(WindowSharingDifferentialTest, MembersMatchIsolatedByteForByte) {
  for (Kind kind : {Kind::kJoin, Kind::kSequence, Kind::kIterate}) {
    SCOPED_TRACE(testing::Message() << "kind " << static_cast<int>(kind));
    WindowShareDiff diff(GetParam() * 7 + static_cast<uint64_t>(kind), kind);
    diff.Run(800);
    EXPECT_GT(diff.emitted(), 0);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, WindowSharingDifferentialTest,
                         ::testing::Range<uint64_t>(0, 20));

// Deactivating the widest member shrinks the shared store to the widest
// remaining window at the next right tuple.
TEST(WindowSharingTest, DeactivatingTheWidestMemberShrinksTheStore) {
  const ExprPtr equi =
      Cmp(CmpOp::kEq, Attr(Side::kLeft, 0), Attr(Side::kRight, 0));
  std::vector<SequenceMop::Member> members = {{0, 0, {equi, 5}},
                                              {0, 0, {equi, 0}}};
  SequenceMop mop(members, SequenceMop::Sharing::kShared,
                  OutputMode::kPerMemberPorts);
  CollectingEmitter out(2);
  for (int64_t ts = 0; ts < 20; ++ts) {
    mop.Process(0, Plain(Tuple::MakeInts({1, 0, 0}, ts)), out);
  }
  mop.Process(1, Plain(Tuple::MakeInts({2, 0, 0}, 20)), out);
  EXPECT_EQ(mop.instance_count(), 20u);  // member 1 is unbounded
  ASSERT_TRUE(mop.DeactivateMember(1));
  mop.Process(1, Plain(Tuple::MakeInts({2, 0, 0}, 21)), out);
  EXPECT_EQ(mop.instance_count(), 4u);  // ts 16..19 are within 5 of 21
  mop.Process(1, Plain(Tuple::MakeInts({1, 0, 0}, 22)), out);
  EXPECT_TRUE(out.port(1).empty());
  EXPECT_EQ(out.port(0).size(), 3u);  // ts 17..19 match and are consumed
  EXPECT_EQ(mop.instance_count(), 0u);
}

}  // namespace
}  // namespace rumor
