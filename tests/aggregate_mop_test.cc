#include "mop/aggregate_mop.h"

#include <gtest/gtest.h>

#include <bit>
#include <map>
#include <memory>
#include <string>

#include "mop_test_util.h"

namespace rumor {
namespace {

using Sharing = AggregateMop::Sharing;

AggregateMop::Member M(AggFn fn, int attr, std::vector<int> groups,
                       int64_t window, int slot = 0) {
  return {slot, AggMemberSpec{fn, attr, std::move(groups), window}};
}

TEST(AggregateMopTest, CountNoGroup) {
  AggregateMop mop({M(AggFn::kCount, -1, {}, 10)}, Sharing::kIsolated,
                   OutputMode::kPerMemberPorts);
  CollectingEmitter out(1);
  mop.Process(0, Plain(Tuple::MakeInts({1}, 1)), out);
  mop.Process(0, Plain(Tuple::MakeInts({2}, 2)), out);
  mop.Process(0, Plain(Tuple::MakeInts({3}, 15)), out);  // first two expired
  ASSERT_EQ(out.port(0).size(), 3u);
  EXPECT_EQ(out.port(0)[0].tuple.at(0).AsInt(), 1);
  EXPECT_EQ(out.port(0)[1].tuple.at(0).AsInt(), 2);
  EXPECT_EQ(out.port(0)[2].tuple.at(0).AsInt(), 1);
}

TEST(AggregateMopTest, SumWithGroupBy) {
  AggregateMop mop({M(AggFn::kSum, 1, {0}, 100)}, Sharing::kIsolated,
                   OutputMode::kPerMemberPorts);
  CollectingEmitter out(1);
  mop.Process(0, Plain(Tuple::MakeInts({7, 10}, 1)), out);
  mop.Process(0, Plain(Tuple::MakeInts({8, 5}, 2)), out);
  mop.Process(0, Plain(Tuple::MakeInts({7, 3}, 3)), out);
  ASSERT_EQ(out.port(0).size(), 3u);
  // (group, sum)
  EXPECT_EQ(out.port(0)[0].tuple.at(1).AsInt(), 10);
  EXPECT_EQ(out.port(0)[1].tuple.at(1).AsInt(), 5);
  EXPECT_EQ(out.port(0)[2].tuple.at(1).AsInt(), 13);
}

TEST(AggregateMopTest, AvgSlidesOut) {
  AggregateMop mop({M(AggFn::kAvg, 0, {}, 2)}, Sharing::kIsolated,
                   OutputMode::kPerMemberPorts);
  CollectingEmitter out(1);
  mop.Process(0, Plain(Tuple::MakeInts({4}, 1)), out);
  mop.Process(0, Plain(Tuple::MakeInts({8}, 2)), out);
  mop.Process(0, Plain(Tuple::MakeInts({1}, 3)), out);  // window (1,3]: {8,1}
  ASSERT_EQ(out.port(0).size(), 3u);
  EXPECT_DOUBLE_EQ(out.port(0)[0].tuple.at(0).AsDouble(), 4.0);
  EXPECT_DOUBLE_EQ(out.port(0)[1].tuple.at(0).AsDouble(), 6.0);
  EXPECT_DOUBLE_EQ(out.port(0)[2].tuple.at(0).AsDouble(), 4.5);
}

TEST(AggregateMopTest, MinMaxWithExpiry) {
  AggregateMop min({M(AggFn::kMin, 0, {}, 5)}, Sharing::kIsolated,
                   OutputMode::kPerMemberPorts);
  AggregateMop max({M(AggFn::kMax, 0, {}, 5)}, Sharing::kIsolated,
                   OutputMode::kPerMemberPorts);
  CollectingEmitter min_out(1), max_out(1);
  for (const Tuple& t : {Tuple::MakeInts({3}, 1), Tuple::MakeInts({9}, 2),
                         Tuple::MakeInts({5}, 7)}) {  // ts 7 expires ts <= 2
    min.Process(0, Plain(t), min_out);
    max.Process(0, Plain(t), max_out);
  }
  ASSERT_EQ(min_out.port(0).size(), 3u);
  EXPECT_EQ(min_out.port(0)[2].tuple.at(0).AsInt(), 5);
  EXPECT_EQ(max_out.port(0)[1].tuple.at(0).AsInt(), 9);
}

// Property: every aggregate function matches the brute-force oracle.
class AggregateOracleTest
    : public ::testing::TestWithParam<std::tuple<uint64_t, AggFn>> {};

TEST_P(AggregateOracleTest, MatchesBruteForce) {
  auto [seed, fn] = GetParam();
  Rng rng(seed);
  const int attr = fn == AggFn::kCount ? -1 : 1;
  std::vector<int> groups = {0};
  const int64_t window = 1 + rng.UniformInt(1, 20);

  AggregateMop mop({M(fn, attr, groups, window)}, Sharing::kIsolated,
                   OutputMode::kPerMemberPorts);
  Oracle oracle(fn, attr, groups, window);
  CollectingEmitter out(1);
  Timestamp ts = 0;
  std::vector<Tuple> expected;
  for (int i = 0; i < 200; ++i) {
    ts += rng.UniformInt(0, 3);
    Tuple t = RandomTuple(rng, 3, 4, ts);
    expected.push_back(oracle.Push(t));
    mop.Process(0, Plain(t), out);
  }
  ASSERT_EQ(out.port(0).size(), expected.size());
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_TRUE(out.port(0)[i].tuple.ContentEquals(expected[i]))
        << "i=" << i << " got " << out.port(0)[i].tuple.ToString()
        << " want " << expected[i].ToString();
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, AggregateOracleTest,
    ::testing::Combine(::testing::Range<uint64_t>(0, 6),
                       ::testing::Values(AggFn::kCount, AggFn::kSum,
                                         AggFn::kAvg, AggFn::kMin,
                                         AggFn::kMax)));

// Property: shared aggregation (sα) ≡ one isolated α per member, with
// different group-bys and windows; each isolated α also matches the naive
// oracle, so a fault common to both engines' member windows shows too.
class SharedAggPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SharedAggPropertyTest, SharedMatchesIsolated) {
  Rng rng(GetParam());
  const int num_members = 1 + static_cast<int>(rng.UniformInt(1, 6));
  AggFn fn = static_cast<AggFn>(rng.UniformInt(0, 4));
  int attr = fn == AggFn::kCount ? -1 : 2;

  std::vector<AggregateMop::Member> members;
  for (int i = 0; i < num_members; ++i) {
    std::vector<int> groups;
    if (rng.Bernoulli(0.7)) groups.push_back(static_cast<int>(rng.UniformInt(0, 1)));
    if (rng.Bernoulli(0.3)) groups.push_back(static_cast<int>(rng.UniformInt(0, 2)));
    members.push_back(M(fn, attr, groups, 1 + rng.UniformInt(1, 30)));
  }
  AggregateMop shared(members, Sharing::kShared, OutputMode::kPerMemberPorts);
  IsolatedMembers isolated = IsolatedOf<AggregateMop>(members);
  std::vector<Oracle> oracles;
  for (const AggregateMop::Member& m : members) {
    oracles.emplace_back(m.spec.fn, m.spec.attr, m.spec.group_by,
                         m.spec.window);
  }
  std::vector<std::vector<Tuple>> expected(num_members);
  CollectingEmitter s_out(num_members);
  Timestamp ts = 0;
  for (int i = 0; i < 300; ++i) {
    ts += rng.UniformInt(0, 2);
    Tuple t = RandomTuple(rng, 4, 3, ts);
    shared.Process(0, Plain(t), s_out);
    isolated.Process(0, Plain(t));
    for (int m = 0; m < num_members; ++m) {
      expected[m].push_back(oracles[m].Push(t));
    }
  }
  ExpectMatchesIsolated(s_out, isolated, /*ordered=*/true);
  for (int m = 0; m < num_members; ++m) {
    ExpectSameSequence(isolated.Outputs(m), expected[m],
                       "oracle, member " + std::to_string(m));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SharedAggPropertyTest,
                         ::testing::Range<uint64_t>(0, 12));

// Property: fragment aggregation (cα) over a channel ≡ one isolated α per
// member, each reading its slot.
class FragmentAggPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(FragmentAggPropertyTest, FragmentMatchesIsolated) {
  Rng rng(GetParam());
  const int capacity = 1 + static_cast<int>(rng.UniformInt(1, 6));
  AggFn fn = static_cast<AggFn>(rng.UniformInt(0, 4));
  int attr = fn == AggFn::kCount ? -1 : 1;
  AggMemberSpec spec{fn, attr, {0}, 1 + rng.UniformInt(1, 20)};

  std::vector<AggregateMop::Member> members;
  for (int i = 0; i < capacity; ++i) members.push_back({i, spec});
  AggregateMop fragment(members, Sharing::kFragment,
                        OutputMode::kPerMemberPorts);
  IsolatedMembers isolated = IsolatedOf<AggregateMop>(members);
  CollectingEmitter f_out(capacity);
  Timestamp ts = 0;
  for (int i = 0; i < 300; ++i) {
    ts += rng.UniformInt(0, 2);
    ChannelTuple ct{RandomTuple(rng, 3, 3, ts),
                    RandomMembership(rng, capacity)};
    fragment.Process(0, ct, f_out);
    isolated.Process(0, ct);
  }
  ExpectMatchesIsolated(f_out, isolated, /*ordered=*/true);
}

INSTANTIATE_TEST_SUITE_P(Seeds, FragmentAggPropertyTest,
                         ::testing::Range<uint64_t>(0, 12));

// Regression: a SUM window that has seen double entries must revert to the
// integer representation once every double entry has expired — the double
// tag (and any floating-point residue in the double accumulator) must not
// outlive the entries that caused it.
TEST(AggregateMopTest, SumRevertsToIntegerAfterDoublesExpire) {
  AggregateMop mop({M(AggFn::kSum, 0, {}, 3)}, Sharing::kIsolated,
                   OutputMode::kPerMemberPorts);
  CollectingEmitter out(1);
  mop.Process(0, Plain(Tuple::MakeInts({5}, 1)), out);
  mop.Process(0, Plain(Tuple::Make({Value(2.5)}, 2)), out);
  // Window (0,3]: {5, 2.5} -> double sum while the double entry is live.
  ASSERT_EQ(out.port(0).size(), 2u);
  EXPECT_EQ(out.port(0)[1].tuple.at(0).type(), ValueType::kDouble);
  EXPECT_DOUBLE_EQ(out.port(0)[1].tuple.at(0).AsDouble(), 7.5);
  // ts 6: both earlier entries expired; only the new int is in-window.
  mop.Process(0, Plain(Tuple::MakeInts({4}, 6)), out);
  ASSERT_EQ(out.port(0).size(), 3u);
  EXPECT_EQ(out.port(0)[2].tuple.at(0).type(), ValueType::kInt);
  EXPECT_EQ(out.port(0)[2].tuple.at(0).AsInt(), 4);
}

// Regression: floating-point residue from expired double entries must not
// contaminate later double sums (0.1 + 0.2 expiring leaves ~4e-17 in a
// naive accumulator, turning a later exact 0.3 into 0.30000000000000004).
TEST(AggregateMopTest, SumDoubleResidueDoesNotLeak) {
  AggregateMop mop({M(AggFn::kSum, 0, {}, 2)}, Sharing::kIsolated,
                   OutputMode::kPerMemberPorts);
  CollectingEmitter out(1);
  mop.Process(0, Plain(Tuple::Make({Value(0.1)}, 1)), out);
  mop.Process(0, Plain(Tuple::Make({Value(0.2)}, 2)), out);
  // ts 10: both expired. ts 11: a fresh double window holding only 0.3.
  mop.Process(0, Plain(Tuple::MakeInts({0}, 10)), out);
  mop.Process(0, Plain(Tuple::Make({Value(0.3)}, 11)), out);
  ASSERT_EQ(out.port(0).size(), 4u);
  EXPECT_EQ(out.port(0)[3].tuple.at(0).AsDouble(), 0.3);
}

// --- differential test of the shared engine -----------------------------------

// Renders a tuple exactly: the timestamp, then each value's type and bits.
std::string Bytes(const Tuple& t) {
  std::string out = std::to_string(t.ts());
  for (const Value& v : t.values()) {
    out += " " + std::to_string(static_cast<int>(v.type())) + ":";
    if (v.type() == ValueType::kDouble) {
      out += std::to_string(std::bit_cast<uint64_t>(v.AsDouble()));
    } else {
      out += v.ToString();
    }
  }
  return out;
}

// (int key, string key, int-or-equal-double key, int/double value): the
// third key and the value mix representations that compare equal.
Tuple DiffTuple(Rng& rng, Timestamp ts) {
  static const char* kNames[] = {"x", "y", "z"};
  const int64_t k = rng.UniformInt(0, 2);
  const int64_t v = rng.UniformInt(0, 5);
  const int64_t kind = rng.UniformInt(0, 2);
  return Tuple::Make(
      {Value(rng.UniformInt(0, 2)), Value(kNames[rng.UniformInt(0, 2)]),
       rng.Bernoulli(0.5) ? Value(k) : Value(static_cast<double>(k)),
       kind == 0   ? Value(v)
       : kind == 1 ? Value(static_cast<double>(v))
                   : Value(v * 0.1)},
      ts);
}

AggMemberSpec DiffSpec(Rng& rng, AggFn fn) {
  AggMemberSpec spec{fn, fn == AggFn::kCount ? -1 : 3, {},
                     1 + rng.UniformInt(0, 29)};
  std::vector<int> attrs = {0, 1, 2};
  for (int64_t i = rng.UniformInt(0, 2); i > 0; --i) {
    const size_t pick = rng.UniformInt(0, attrs.size() - 1);
    spec.group_by.push_back(attrs[pick]);
    attrs.erase(attrs.begin() + pick);
  }
  return spec;
}

// Drives one engine with random input, live membership changes (sα only)
// and a snapshot round trip, and checks every member's output against its
// own Oracle. The harness mirrors the engine's expiry cursors to know which
// entries the log retains, and so what a late member is backfilled with.
class EngineDiff {
 public:
  EngineDiff(uint64_t seed, AggFn fn, bool fragment)
      : rng_(seed), fn_(fn), fragment_(fragment) {
    const AggMemberSpec shared = DiffSpec(rng_, fn_);  // cα: one definition
    const int n = 1 + static_cast<int>(rng_.UniformInt(0, 4));
    std::vector<AggMemberSpec> specs;
    for (int m = 0; m < n; ++m) {
      specs.push_back(fragment_ ? shared : DiffSpec(rng_, fn_));
      members_.emplace_back();
      members_.back().spec = specs.back();
      members_.back().oracle = MakeOracle(specs.back());
    }
    engine_ = std::make_unique<SharedAggEngine>(specs, fragment_);
  }

  void Run(int steps) {
    const int cut = static_cast<int>(rng_.UniformInt(steps / 4, steps - 1));
    Timestamp ts = 0;
    for (int step = 0; step < steps; ++step) {
      if (!fragment_) ChangeMembers();
      if (step == cut) RoundTrip();
      ts += rng_.UniformInt(0, 3);
      Push(DiffTuple(rng_, ts));
      ASSERT_EQ(engine_->log_size(), history_.size() - retained_);
    }
    for (size_t m = 0; m < members_.size(); ++m) {
      ASSERT_EQ(members_[m].got.size(), members_[m].want.size()) << m;
      for (size_t i = 0; i < members_[m].got.size(); ++i) {
        ASSERT_EQ(members_[m].got[i], members_[m].want[i])
            << "member " << m << " output " << i;
      }
    }
  }

 private:
  struct Member {
    AggMemberSpec spec;
    bool active = true;
    size_t cursor = 0;  // first history entry inside the member's window
    std::unique_ptr<Oracle> oracle;
    std::vector<std::string> got, want;
  };

  static std::unique_ptr<Oracle> MakeOracle(const AggMemberSpec& spec) {
    return std::make_unique<Oracle>(spec.fn, spec.attr, spec.group_by,
                                    spec.window);
  }

  void Push(const Tuple& t) {
    BitVector membership = RandomMembership(rng_, engine_->num_members());
    engine_->Process(t, fragment_ ? &membership : nullptr,
                     [&](int m, Tuple out) {
                       members_[m].got.push_back(Bytes(out));
                     });
    history_.push_back(t);
    size_t keep = history_.size();
    for (size_t m = 0; m < members_.size(); ++m) {
      Member& mem = members_[m];
      if (!mem.active) {
        mem.cursor = history_.size();
      } else {
        while (mem.cursor + 1 < history_.size() &&
               history_[mem.cursor].ts() <= t.ts() - mem.spec.window) {
          ++mem.cursor;
        }
        if (!fragment_ || membership.Test(static_cast<int>(m))) {
          mem.want.push_back(Bytes(mem.oracle->Push(t)));
        }
      }
      keep = std::min(keep, mem.cursor);
    }
    retained_ = std::max(retained_, keep);
  }

  // Adds (slot < 0) or re-arms a member and backfills its oracle with the
  // retained entries inside its window.
  void Attach(int slot, const AggMemberSpec& spec) {
    size_t cursor = history_.size();
    for (size_t i = retained_; i < history_.size(); ++i) {
      if (history_[i].ts() > history_.back().ts() - spec.window) {
        cursor = i;
        break;
      }
    }
    const int backfilled = slot < 0 ? engine_->AddMember(spec)
                                    : engine_->ReuseMember(slot, spec);
    EXPECT_EQ(backfilled, static_cast<int>(history_.size() - cursor));
    if (slot < 0) {
      slot = static_cast<int>(members_.size());
      members_.emplace_back();
    }
    Member& mem = members_[slot];
    mem.spec = spec;
    mem.active = true;
    mem.cursor = cursor;
    mem.oracle = MakeOracle(spec);
    for (size_t i = cursor; i < history_.size(); ++i) {
      mem.oracle->Add(history_[i]);
    }
  }

  void Deactivate(int m) {
    engine_->DeactivateMember(m);
    members_[m].active = false;
    members_[m].cursor = history_.size();
  }

  void ChangeMembers() {
    std::vector<int> active, inactive;
    for (size_t m = 0; m < members_.size(); ++m) {
      (members_[m].active ? active : inactive).push_back(static_cast<int>(m));
    }
    switch (rng_.UniformInt(0, 24)) {
      case 0:
        Attach(-1, DiffSpec(rng_, fn_));
        break;
      case 1:
        if (!active.empty()) {
          Deactivate(active[rng_.UniformInt(0, active.size() - 1)]);
        }
        break;
      case 2:
        if (!inactive.empty()) {
          Attach(inactive[rng_.UniformInt(0, inactive.size() - 1)],
                 DiffSpec(rng_, fn_));
        }
        break;
      case 3: {
        // Replace the widest window by a wider one before the log is
        // trimmed again.
        if (active.empty()) break;
        int widest = active[0];
        for (int m : active) {
          if (members_[m].spec.window > members_[widest].spec.window) {
            widest = m;
          }
        }
        AggMemberSpec spec = DiffSpec(rng_, fn_);
        spec.window = members_[widest].spec.window + rng_.UniformInt(1, 10);
        Deactivate(widest);
        Attach(-1, spec);
        break;
      }
      default:
        break;
    }
  }

  // Checkpoints the engine and continues on a fresh one loaded from it.
  void RoundTrip() {
    AggEngineState state;
    engine_->ExtractState(&state);
    std::vector<AggMemberSpec> specs;
    std::vector<int> src;
    size_t keep = history_.size();
    for (size_t m = 0; m < members_.size(); ++m) {
      specs.push_back(members_[m].spec);
      src.push_back(members_[m].active ? static_cast<int>(m) : -1);
      if (members_[m].active) keep = std::min(keep, members_[m].cursor);
    }
    auto next = std::make_unique<SharedAggEngine>(specs, fragment_);
    for (size_t m = 0; m < members_.size(); ++m) {
      if (!members_[m].active) next->DeactivateMember(static_cast<int>(m));
    }
    Status status = next->LoadState(state, src);
    ASSERT_TRUE(status.ok()) << status.ToString();
    engine_ = std::move(next);
    // Entries no active member still covers are not saved.
    retained_ = std::max(retained_, keep);
    ASSERT_EQ(engine_->log_size(), history_.size() - retained_);
  }

  Rng rng_;
  AggFn fn_;
  bool fragment_;
  std::unique_ptr<SharedAggEngine> engine_;
  std::vector<Member> members_;
  std::vector<Tuple> history_;  // every input tuple
  size_t retained_ = 0;         // history_[retained_..] is the engine's log
};

class SharedAggDifferentialTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SharedAggDifferentialTest, MatchesOracleByteForByte) {
  for (AggFn fn : {AggFn::kCount, AggFn::kSum, AggFn::kAvg, AggFn::kMin,
                   AggFn::kMax}) {
    for (bool fragment : {false, true}) {
      SCOPED_TRACE(testing::Message() << "fn " << static_cast<int>(fn)
                                      << (fragment ? " cα" : " sα"));
      EngineDiff(GetParam() * 31 + static_cast<uint64_t>(fn), fn, fragment)
          .Run(400);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SharedAggDifferentialTest,
                         ::testing::Range<uint64_t>(0, 10));

TEST(SharedAggEngineTest, MinMaxReturnOldestOfEqualValues) {
  for (AggFn fn : {AggFn::kMin, AggFn::kMax}) {
    SharedAggEngine engine({AggMemberSpec{fn, 0, {}, 10}});
    std::vector<Tuple> out;
    auto emit = [&](int, Tuple t) { out.push_back(std::move(t)); };
    engine.Process(Tuple::Make({Value(2.0)}, 1), nullptr, emit);
    engine.Process(Tuple::Make({Value(int64_t{2})}, 2), nullptr, emit);
    ASSERT_EQ(out.size(), 2u);
    EXPECT_EQ(out[1].at(0).type(), ValueType::kDouble);
  }
}

}  // namespace
}  // namespace rumor
