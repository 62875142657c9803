#include "mop/selection_mop.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "common/str_util.h"
#include "mop/predicate_index_mop.h"
#include "mop_test_util.h"

namespace rumor {
namespace {

ExprPtr EqConst(int attr, int64_t c) {
  return Expr::Cmp(CmpOp::kEq, Expr::Attr(Side::kLeft, attr),
                   Expr::ConstInt(c));
}
ExprPtr GtConst(int attr, int64_t c) {
  return Expr::Cmp(CmpOp::kGt, Expr::Attr(Side::kLeft, attr),
                   Expr::ConstInt(c));
}

TEST(SelectionMopTest, SingleMemberFilters) {
  SelectionMop mop({0, {EqConst(0, 5)}});
  CollectingEmitter out(1);
  mop.Process(0, Plain(Tuple::MakeInts({5, 1}, 0)), out);
  mop.Process(0, Plain(Tuple::MakeInts({6, 1}, 1)), out);
  mop.Process(0, Plain(Tuple::MakeInts({5, 2}, 2)), out);
  ASSERT_EQ(out.port(0).size(), 2u);
  EXPECT_EQ(out.port(0)[0].tuple.ts(), 0);
  EXPECT_EQ(out.port(0)[1].tuple.ts(), 2);
}

TEST(SelectionMopTest, NullPredicatePassesAll) {
  SelectionMop mop({0, {nullptr}});
  CollectingEmitter out(1);
  mop.Process(0, Plain(Tuple::MakeInts({1}, 0)), out);
  EXPECT_EQ(out.port(0).size(), 1u);
}

TEST(SelectionMopTest, InputSlotRespected) {
  // The selection reads slot 1 of a capacity-2 channel.
  SelectionMop mop({1, {nullptr}});
  CollectingEmitter out(1);
  mop.Process(0, ChannelTuple{Tuple::MakeInts({1}, 0),
                              BitVector::Singleton(0, 2)},
              out);
  EXPECT_EQ(out.port(0).size(), 0u);
  mop.Process(0, ChannelTuple{Tuple::MakeInts({1}, 1),
                              BitVector::Singleton(1, 2)},
              out);
  EXPECT_EQ(out.port(0).size(), 1u);
}

TEST(PredicateIndexMopTest, IndexesEqualityMembers) {
  std::vector<SelectionDef> members = {
      {EqConst(0, 1)}, {EqConst(0, 2)}, {EqConst(1, 3)}, {GtConst(0, 5)}};
  PredicateIndexMop mop(members, OutputMode::kPerMemberPorts);
  EXPECT_EQ(mop.num_indexed_members(), 3);
}

TEST(PredicateIndexMopTest, ResidualChecked) {
  // a0 = 1 AND a1 > 10 : index on a0, residual on a1.
  std::vector<SelectionDef> members = {
      {Expr::And(EqConst(0, 1), GtConst(1, 10))}};
  PredicateIndexMop mop(members, OutputMode::kPerMemberPorts);
  EXPECT_EQ(mop.num_indexed_members(), 1);
  CollectingEmitter out(1);
  mop.Process(0, Plain(Tuple::MakeInts({1, 11}, 0)), out);
  mop.Process(0, Plain(Tuple::MakeInts({1, 9}, 1)), out);
  mop.Process(0, Plain(Tuple::MakeInts({2, 20}, 2)), out);
  ASSERT_EQ(out.port(0).size(), 1u);
  EXPECT_EQ(out.port(0)[0].tuple.ts(), 0);
}

// Records every emission in order as "port membership tuple", so two
// m-ops compare on the whole interleaved sequence, not only per port.
class SequenceEmitter : public Emitter {
 public:
  void Emit(int port, ChannelTuple ct) override {
    log.push_back(StrCat(port, " ", ct.membership.ToString(), " ",
                         ct.tuple.ToString()));
  }
  std::vector<std::string> log;
};

constexpr int kArity = 4;       // a0..a2 numeric; a3 numeric or a string
constexpr int64_t kDomain = 8;  // small domain => frequent matches

ExprPtr EqValue(int attr, Value c) {
  return Expr::Cmp(CmpOp::kEq, Expr::Attr(Side::kLeft, attr),
                   Expr::Const(c));
}

// A random member predicate covering every bucket-entry kind: no residual,
// a fused `attr <op> int` residual, a residual that only a Program runs,
// double constants equal to ints (3.0) and string constants (the Value
// map), and predicates with no indexable equality (sequential members).
ExprPtr RandomMemberPredicate(Rng& rng) {
  auto attr = [&] { return static_cast<int>(rng.UniformInt(0, kArity - 1)); };
  auto numeric_attr = [&] {
    return Expr::Attr(Side::kLeft, static_cast<int>(rng.UniformInt(0, 2)));
  };
  auto c = [&] { return rng.UniformInt(0, kDomain - 1); };
  switch (rng.UniformInt(0, 7)) {
    case 0:
      return EqConst(attr(), c());
    case 1:
      return Expr::And(
          EqConst(attr(), c()),
          Expr::Cmp(static_cast<CmpOp>(rng.UniformInt(0, 5)),
                    Expr::Attr(Side::kLeft, attr()), Expr::ConstInt(c())));
    case 2:
      return Expr::And(
          EqConst(attr(), c()),
          Expr::Cmp(CmpOp::kLe,
                    Expr::Arith(ArithOp::kAdd, numeric_attr(), numeric_attr()),
                    Expr::ConstInt(2 * c())));
    case 3:
      return Expr::And(EqValue(attr(), Value(static_cast<double>(c()))),
                       GtConst(attr(), c()));
    case 4:
      return EqValue(3, Value(rng.Bernoulli(0.5) ? "s0" : "s1"));
    case 5:
      return GtConst(attr(), c());
    case 6:
      return Expr::Or(EqConst(0, c()), EqConst(1, c()));
    default:
      return Expr::And(
          EqConst(attr(), c()),
          Expr::Cmp(CmpOp::kLt, numeric_attr(),
                    Expr::Const(Value(static_cast<double>(c()) + 0.5))));
  }
}

// Random tuple: ints in [0, kDomain), sometimes a double (integral or not)
// on any attribute and a string on a3, so fused residuals meet non-int
// values and probes meet non-int keys.
Tuple RandomMixedTuple(Rng& rng, Timestamp ts) {
  std::vector<Value> values;
  for (int a = 0; a < kArity; ++a) {
    const int64_t v = rng.UniformInt(0, kDomain - 1);
    const double roll = rng.UniformDouble();
    if (roll < 0.08) {
      values.push_back(Value(static_cast<double>(v)));
    } else if (roll < 0.12) {
      values.push_back(Value(static_cast<double>(v) + 0.5));
    } else if (roll < 0.2 && a == 3) {
      values.push_back(Value(v % 2 == 0 ? "s0" : "s1"));
    } else {
      values.push_back(Value(v));
    }
  }
  return Tuple::Make(values, ts);
}

// Property: PredicateIndexMop ≡ one isolated SelectionMop per member on
// random workloads, on the whole emission sequence, through Process and
// ProcessBatch, in both output modes, with members added after tuples have
// flowed.
class PredicateIndexPropertyTest : public ::testing::TestWithParam<uint64_t> {
};

TEST_P(PredicateIndexPropertyTest, MatchesReference) {
  Rng rng(GetParam());
  // Fixed members make the all-ones tuple match two attribute indexes and
  // the sequential members, out of member order: the a1 index (members 0
  // and last) is built before the a0 index (member 2), and member 1 is
  // sequential. {1, 1, 1, 0} matches the two indexes but not member 1.
  std::vector<ExprPtr> preds = {EqConst(1, 1), GtConst(3, 0), EqConst(0, 1)};
  const int num_random = static_cast<int>(rng.UniformInt(1, 40));
  for (int i = 0; i < num_random; ++i) {
    preds.push_back(RandomMemberPredicate(rng));
  }
  preds.push_back(Expr::And(EqConst(1, 1), GtConst(2, 0)));
  const int num_members = static_cast<int>(preds.size());
  // Members past `num_initial` join through AttachMember mid-feed.
  const int num_initial = static_cast<int>(rng.UniformInt(1, num_members));

  std::vector<Tuple> feed;
  for (int i = 0; i < 300; ++i) {
    if (i % 25 == 0) {
      feed.push_back(Tuple::MakeInts({1, 1, 1, i % 50 == 0 ? 1 : 0}, i));
    } else {
      feed.push_back(RandomMixedTuple(rng, i));
    }
  }
  const size_t add_at = feed.size() / 2;

  // The reference: one isolated σ per member, run alone on every tuple. A
  // tuple's expected emission goes to the members present whose σ passed
  // it (in channel mode, one tuple with that membership).
  IsolatedMembers isolated;
  for (const ExprPtr& p : preds) {
    isolated.Add(std::make_unique<SelectionMop>(SelectionMop::Member{0, {p}}),
                 {0});
  }
  std::vector<BitVector> passed;
  for (size_t i = 0; i < feed.size(); ++i) {
    const int present = i < add_at ? num_initial : num_members;
    BitVector members(present);
    isolated.Process(0, Plain(feed[i])).ForEach([&](int m) {
      if (m < present) members.Set(m);
    });
    passed.push_back(std::move(members));
  }

  for (OutputMode mode : {OutputMode::kPerMemberPorts, OutputMode::kChannel}) {
    SequenceEmitter ref_out;
    for (size_t i = 0; i < feed.size(); ++i) {
      EmitForMembers(mode, passed[i], feed[i], ref_out);
    }
    ASSERT_FALSE(ref_out.log.empty());

    for (size_t batch : {size_t{0}, size_t{1}, size_t{7}, size_t{64}}) {
      std::vector<SelectionDef> defs;
      for (int m = 0; m < num_initial; ++m) defs.push_back({preds[m]});
      PredicateIndexMop optimized(defs, mode);
      SequenceEmitter opt_out;
      std::vector<ChannelTuple> chunk;
      auto push = [&](size_t from, size_t to) {
        for (size_t i = from; i < to;) {
          if (batch == 0) {
            optimized.Process(0, Plain(feed[i++]), opt_out);
            continue;
          }
          chunk.clear();
          for (; i < to && chunk.size() < batch; ++i) {
            chunk.push_back(Plain(feed[i]));
          }
          optimized.ProcessBatch(0, chunk.data(), chunk.size(), opt_out);
        }
      };
      push(0, add_at);
      for (int m = num_initial; m < num_members; ++m) {
        const MemberAttach attached = optimized.AttachMember({preds[m]});
        EXPECT_EQ(attached.member, m);
        EXPECT_FALSE(attached.reused_slot);
      }
      EXPECT_EQ(optimized.num_outputs(),
                mode == OutputMode::kChannel ? 1 : num_members);
      push(add_at, feed.size());
      EXPECT_EQ(opt_out.log, ref_out.log)
          << "batch " << batch << (mode == OutputMode::kChannel
                                       ? " channel mode"
                                       : " per-member ports");
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PredicateIndexPropertyTest,
                         ::testing::Range<uint64_t>(0, 15));

// The member kinds a slot can hold over its lifecycle: indexed on an int
// constant (the flat table while every constant of the index is an int),
// indexed on a double constant (the Value map), or sequential.
enum class MemberKind { kIntIndexed, kDoubleIndexed, kSequential };

ExprPtr LifecyclePredicate(Rng& rng, MemberKind kind) {
  const int attr = static_cast<int>(rng.UniformInt(0, 2));
  const int other = static_cast<int>(rng.UniformInt(0, 2));
  const int64_t c = rng.UniformInt(0, kDomain - 1);
  switch (kind) {
    case MemberKind::kIntIndexed:
      return rng.Bernoulli(0.5)
                 ? EqConst(attr, c)
                 : Expr::And(EqConst(attr, c),
                             GtConst(other, rng.UniformInt(0, kDomain - 1)));
    case MemberKind::kDoubleIndexed:
      return Expr::And(EqValue(attr, Value(static_cast<double>(c))),
                       GtConst(other, rng.UniformInt(0, kDomain - 1)));
    default:
      return rng.Bernoulli(0.5) ? GtConst(attr, c)
                                : Expr::Or(EqConst(0, c), EqConst(1, c));
  }
}

// Property: an index whose members are deactivated and whose slots are
// reused ≡ one isolated σ per active slot, on every port and in emission
// order (so each tuple's matches come in ascending member order), through
// Process and ProcessBatch, in both output modes. Even seeds use int
// constants and int tuples only (flat-table probes); odd seeds add double
// constants and mixed tuples (Value-map probes). Reused slots move between
// indexed and sequential members.
class PredicateIndexLifecycleTest : public ::testing::TestWithParam<uint64_t> {
};

TEST_P(PredicateIndexLifecycleTest, DeactivateAndReuseMatchIsolatedMembers) {
  const bool int_only = GetParam() % 2 == 0;
  auto random_kind = [&](Rng& rng) {
    const int64_t k = rng.UniformInt(0, int_only ? 1 : 2);
    if (k == 0) return MemberKind::kSequential;
    return k == 1 ? MemberKind::kIntIndexed : MemberKind::kDoubleIndexed;
  };
  // One script of lifecycle steps, replayed on every configuration: a step
  // deactivates a random active slot or attaches a member, then pushes a
  // chunk of tuples.
  struct Step {
    int deactivate = -1;  // slot, or -1 for an attach of `pred`
    ExprPtr pred;
    std::vector<Tuple> chunk;
  };
  Rng rng(GetParam());
  std::vector<ExprPtr> initial;
  std::vector<MemberKind> kinds;
  for (int i = 0; i < 12; ++i) {
    kinds.push_back(random_kind(rng));
    initial.push_back(LifecyclePredicate(rng, kinds.back()));
  }
  std::vector<Step> script;
  std::vector<char> active(initial.size(), 1);
  int moved_to_sequential = 0, moved_to_indexed = 0;
  Timestamp ts = 0;
  for (int round = 0; round < 40; ++round) {
    Step step;
    std::vector<int> live;
    for (size_t m = 0; m < active.size(); ++m) {
      if (active[m]) live.push_back(static_cast<int>(m));
    }
    if (live.size() > 1 && rng.Bernoulli(0.5)) {
      step.deactivate = live[rng.UniformInt(0, live.size() - 1)];
      active[step.deactivate] = 0;
    } else {
      auto slot = std::find(active.begin(), active.end(), 0);
      MemberKind kind = random_kind(rng);
      if (slot != active.end()) {
        const MemberKind old = kinds[slot - active.begin()];
        if (rng.Bernoulli(0.5)) {
          kind = old == MemberKind::kSequential ? MemberKind::kIntIndexed
                                                : MemberKind::kSequential;
        }
        moved_to_sequential += old != MemberKind::kSequential &&
                               kind == MemberKind::kSequential;
        moved_to_indexed += old == MemberKind::kSequential &&
                            kind != MemberKind::kSequential;
        kinds[slot - active.begin()] = kind;
        *slot = 1;
      } else {
        kinds.push_back(kind);
        active.push_back(1);
      }
      step.pred = LifecyclePredicate(rng, kind);
    }
    for (int i = 0; i < 20; ++i) {
      step.chunk.push_back(
          int_only ? Tuple::MakeInts({rng.UniformInt(0, kDomain - 1),
                                      rng.UniformInt(0, kDomain - 1),
                                      rng.UniformInt(0, kDomain - 1),
                                      rng.UniformInt(0, kDomain - 1)},
                                     ts)
                   : RandomMixedTuple(rng, ts));
      ++ts;
    }
    script.push_back(std::move(step));
  }
  EXPECT_GT(moved_to_sequential + moved_to_indexed, 0);

  for (OutputMode mode : {OutputMode::kPerMemberPorts, OutputMode::kChannel}) {
    // The reference: the slots' current predicates as isolated σs; a tuple
    // goes to the active slots whose σ passed it.
    std::vector<ExprPtr> preds = initial;
    std::vector<char> on(initial.size(), 1);
    SequenceEmitter ref_out;
    for (const Step& step : script) {
      if (step.deactivate >= 0) {
        on[step.deactivate] = 0;
      } else {
        auto slot = std::find(on.begin(), on.end(), 0);
        if (slot == on.end()) {
          preds.push_back(step.pred);
          on.push_back(1);
        } else {
          preds[slot - on.begin()] = step.pred;
          *slot = 1;
        }
      }
      IsolatedMembers isolated;
      for (const ExprPtr& p : preds) {
        isolated.Add(
            std::make_unique<SelectionMop>(SelectionMop::Member{0, {p}}), {0});
      }
      for (const Tuple& t : step.chunk) {
        BitVector passed(isolated.size());
        isolated.Process(0, Plain(t)).ForEach([&](int m) {
          if (on[m]) passed.Set(m);
        });
        EmitForMembers(mode, passed, t, ref_out);
      }
    }
    ASSERT_FALSE(ref_out.log.empty());

    for (size_t batch : {size_t{0}, size_t{1}, size_t{7}, size_t{64}}) {
      std::vector<SelectionDef> defs;
      for (const ExprPtr& p : initial) defs.push_back({p});
      PredicateIndexMop index(defs, mode);
      std::vector<char> slots(initial.size(), 1);
      SequenceEmitter out;
      int64_t probes = 0;
      for (const Step& step : script) {
        if (step.deactivate >= 0) {
          ASSERT_TRUE(index.DeactivateMember(step.deactivate));
          EXPECT_FALSE(index.member_active(step.deactivate));
          slots[step.deactivate] = 0;
        } else {
          // The lowest inactive slot is reused; with none, one is appended.
          auto slot = std::find(slots.begin(), slots.end(), 0);
          const MemberAttach attached = index.AttachMember({step.pred});
          EXPECT_EQ(attached.reused_slot, slot != slots.end());
          EXPECT_EQ(attached.member, slot - slots.begin());
          if (slot == slots.end()) {
            slots.push_back(1);
          } else {
            *slot = 1;
          }
          EXPECT_TRUE(index.member_active(attached.member));
        }
        EXPECT_EQ(index.num_members(), static_cast<int>(slots.size()));
        EXPECT_EQ(index.num_outputs(), mode == OutputMode::kChannel
                                           ? 1
                                           : static_cast<int>(slots.size()));
        std::vector<ChannelTuple> chunk;
        for (const Tuple& t : step.chunk) {
          if (batch == 0) {
            index.Process(0, Plain(t), out);
            continue;
          }
          chunk.push_back(Plain(t));
          if (chunk.size() == batch) {
            index.ProcessBatch(0, chunk.data(), chunk.size(), out);
            chunk.clear();
          }
        }
        if (!chunk.empty()) {
          index.ProcessBatch(0, chunk.data(), chunk.size(), out);
        }
        // Probe counters keep counting across deactivations.
        const int64_t now = index.flat_probes() + index.map_probes();
        EXPECT_GE(now, probes);
        probes = now;
      }
      EXPECT_EQ(out.log, ref_out.log)
          << "batch " << batch << (mode == OutputMode::kChannel
                                       ? " channel mode"
                                       : " per-member ports");
      if (RUMOR_METRICS_ENABLED) {
        EXPECT_GT(int_only ? index.flat_probes() : index.map_probes(), 0);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PredicateIndexLifecycleTest,
                         ::testing::Range<uint64_t>(0, 12));

// StateBytes counts what the index holds: its bucket entries and the heap
// of every residual and sequential Program, not only fixed-size records.
TEST(PredicateIndexMopTest, StateBytesCountsEntriesAndProgramCode) {
  std::vector<SelectionDef> defs;
  int64_t program_bytes = 0;
  for (int i = 0; i < 1000; ++i) {
    // Six-conjunct residuals, so program code outweighs a fixed record.
    std::vector<ExprPtr> residual;
    for (int a = 1; a <= 6; ++a) residual.push_back(GtConst(a, i + a));
    ExprPtr rest = Expr::AndAll(residual);
    if (i % 10 == 0) {  // no indexable equality: a sequential member
      defs.push_back({rest});
    } else {
      defs.push_back({Expr::And(EqConst(0, i % 50), rest)});
    }
    program_bytes += Program::Compile(rest).ApproxBytes();
  }
  PredicateIndexMop mop(defs, OutputMode::kPerMemberPorts);
  ASSERT_EQ(mop.num_indexed_members(), 900);
  // Each bucket entry holds at least a member id and an int constant.
  const int64_t entry_bytes = 900 * (sizeof(int32_t) + sizeof(int64_t));
  EXPECT_GE(mop.StateBytes(), entry_bytes + program_bytes);
}

// Property: ChannelSelectMop ≡ one isolated σ per member, each reading its
// channel slot.
class ChannelSelectPropertyTest : public ::testing::TestWithParam<uint64_t> {
};

TEST_P(ChannelSelectPropertyTest, MatchesReference) {
  Rng rng(GetParam());
  const int capacity = 1 + static_cast<int>(rng.UniformInt(1, 8));
  ExprPtr pred = GtConst(0, rng.UniformInt(0, 5));

  ChannelSelectMop optimized({pred}, capacity, OutputMode::kChannel);
  IsolatedMembers reference;
  for (int i = 0; i < capacity; ++i) {
    reference.Add(
        std::make_unique<SelectionMop>(SelectionMop::Member{0, {pred}}), {i});
  }

  CollectingEmitter opt_out(1);
  for (int i = 0; i < 200; ++i) {
    ChannelTuple ct{RandomTuple(rng, 3, 10, i),
                    RandomMembership(rng, capacity)};
    optimized.Process(0, ct, opt_out);
    reference.Process(0, ct);
  }
  auto decoded = opt_out.DecodePort0(capacity);
  for (int m = 0; m < capacity; ++m) {
    ExpectSameTuples(decoded[m], reference.Outputs(m),
                     "slot " + std::to_string(m));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ChannelSelectPropertyTest,
                         ::testing::Range<uint64_t>(0, 10));

}  // namespace
}  // namespace rumor
