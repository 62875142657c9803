// Shared helpers for m-op unit/property tests: a collecting Emitter,
// multiset output comparison, the one-isolated-m-op-per-member reference of
// a merged m-op, and a naive windowed-aggregate oracle. M-ops are driven
// directly through Process(); plan/executor integration is covered
// separately.
#ifndef RUMOR_TESTS_MOP_TEST_UTIL_H_
#define RUMOR_TESTS_MOP_TEST_UTIL_H_

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "mop/mop.h"
#include "query/query.h"

namespace rumor {

class CollectingEmitter : public Emitter {
 public:
  explicit CollectingEmitter(int num_ports) : by_port_(num_ports) {}

  void Emit(int port, ChannelTuple tuple) override {
    ASSERT_GE(port, 0);
    ASSERT_LT(port, static_cast<int>(by_port_.size()));
    by_port_[port].push_back(std::move(tuple));
  }

  const std::vector<ChannelTuple>& port(int i) const { return by_port_[i]; }
  int num_ports() const { return static_cast<int>(by_port_.size()); }

  // Tuples of port i ignoring membership (per-member-ports mode carries
  // singleton memberships).
  std::vector<Tuple> PortTuples(int i) const {
    std::vector<Tuple> out;
    for (const ChannelTuple& ct : by_port_[i]) out.push_back(ct.tuple);
    return out;
  }

  // Decodes channel-mode output on port 0 into per-slot tuple streams.
  std::vector<std::vector<Tuple>> DecodePort0(int capacity) const {
    std::vector<std::vector<Tuple>> out(capacity);
    for (const ChannelTuple& ct : by_port_[0]) {
      ct.membership.ForEach(
          [&](int slot) { out[slot].push_back(ct.tuple); });
    }
    return out;
  }

 private:
  std::vector<std::vector<ChannelTuple>> by_port_;
};

// Canonical multiset rendering for comparison (emission order may legally
// differ between optimized and reference m-ops).
inline std::vector<std::string> Canonical(const std::vector<Tuple>& tuples) {
  std::vector<std::string> out;
  out.reserve(tuples.size());
  for (const Tuple& t : tuples) out.push_back(t.ToString());
  std::sort(out.begin(), out.end());
  return out;
}

inline void ExpectSameTuples(const std::vector<Tuple>& actual,
                             const std::vector<Tuple>& expected,
                             const std::string& label) {
  EXPECT_EQ(Canonical(actual), Canonical(expected)) << label;
}

// As ExpectSameTuples, in order (aggregates emit in a fixed order).
inline void ExpectSameSequence(const std::vector<Tuple>& actual,
                               const std::vector<Tuple>& expected,
                               const std::string& label) {
  ASSERT_EQ(actual.size(), expected.size()) << label;
  for (size_t k = 0; k < actual.size(); ++k) {
    EXPECT_TRUE(actual[k].ContentEquals(expected[k]))
        << label << " k=" << k << " got " << actual[k].ToString() << " want "
        << expected[k].ToString();
  }
}

// Pushes a capacity-1 tuple (membership {0}).
inline ChannelTuple Plain(const Tuple& t) {
  return ChannelTuple{t, BitVector::Singleton(0, 1)};
}

// Random int tuple with attributes in [0, domain).
inline Tuple RandomTuple(Rng& rng, int arity, int64_t domain, Timestamp ts) {
  std::vector<int64_t> vals;
  vals.reserve(arity);
  for (int i = 0; i < arity; ++i) vals.push_back(rng.UniformInt(0, domain - 1));
  return Tuple::MakeInts(vals, ts);
}

// Random membership over `capacity` slots, non-empty.
inline BitVector RandomMembership(Rng& rng, int capacity) {
  BitVector bv(capacity);
  for (int i = 0; i < capacity; ++i) {
    if (rng.Bernoulli(0.5)) bv.Set(i);
  }
  if (bv.None()) bv.Set(static_cast<int>(rng.UniformInt(0, capacity - 1)));
  return bv;
}

// The reference a merged m-op is tested against: its members' one-by-one
// execution (paper §2.2), as one isolated m-op per member, each run alone
// on the tuples of the input slots that member reads. Member i's m-op reads
// capacity-1 inputs, so a tuple reaches it as Plain(tuple).
class IsolatedMembers {
 public:
  // `slots[p]` is the slot the member reads on input port p.
  void Add(std::unique_ptr<Mop> mop, std::vector<int> slots) {
    members_.push_back(Member{std::move(mop), std::move(slots)});
  }

  // Offers `ct` on input `port` to every member whose slot it holds, and
  // returns the set of members that emitted.
  BitVector Process(int port, const ChannelTuple& ct) {
    BitVector emitted(size());
    for (int i = 0; i < size(); ++i) {
      Member& m = members_[i];
      if (!ct.membership.Test(m.slots[port])) continue;
      const size_t before = m.out.port(0).size();
      m.mop->Process(port, Plain(ct.tuple), m.out);
      if (m.out.port(0).size() > before) emitted.Set(i);
    }
    return emitted;
  }

  int size() const { return static_cast<int>(members_.size()); }
  // Member i's results, in emission order.
  std::vector<Tuple> Outputs(int i) const {
    return members_[i].out.PortTuples(0);
  }

 private:
  struct Member {
    std::unique_ptr<Mop> mop;
    std::vector<int> slots;
    CollectingEmitter out{1};
  };
  std::vector<Member> members_;
};

// One isolated MopT per member of a merged MopT (α, ⋈, ; or µ), each
// rewired to slot 0 of capacity-1 inputs and reading the member's slots.
template <typename MopT>
IsolatedMembers IsolatedOf(const std::vector<typename MopT::Member>& members) {
  IsolatedMembers ref;
  for (typename MopT::Member m : members) {
    std::vector<int> slots;
    if constexpr (requires { m.input_slot; }) {
      slots = {m.input_slot};
      m.input_slot = 0;
    } else {
      slots = {m.left_slot, m.right_slot};
      m.left_slot = m.right_slot = 0;
    }
    ref.Add(std::make_unique<MopT>(std::vector<typename MopT::Member>{m},
                                   MopT::Sharing::kIsolated,
                                   OutputMode::kPerMemberPorts),
            std::move(slots));
  }
  return ref;
}

// Compares each port of a merged m-op's per-member-ports output with the
// matching member of `ref`: as sequences when `ordered` (aggregates emit
// in a fixed order), else as multisets.
inline void ExpectMatchesIsolated(const CollectingEmitter& merged,
                                  const IsolatedMembers& ref, bool ordered) {
  ASSERT_EQ(merged.num_ports(), ref.size());
  for (int m = 0; m < ref.size(); ++m) {
    const std::string label = "member " + std::to_string(m);
    if (ordered) {
      ExpectSameSequence(merged.PortTuples(m), ref.Outputs(m), label);
    } else {
      ExpectSameTuples(merged.PortTuples(m), ref.Outputs(m), label);
    }
  }
}

// Naive reference for one windowed aggregate member: it keeps every tuple
// the member has taken and rescans them for the window and the group (an
// int and an equal double are one group). SUM/AVG accumulate in arrival
// and retraction order, the order a member running alone follows, so
// double results compare bit for bit; MIN/MAX return the oldest of equal
// values in the window.
class Oracle {
 public:
  Oracle(AggFn fn, int attr, std::vector<int> groups, int64_t window)
      : fn_(fn), attr_(attr), groups_(std::move(groups)), window_(window) {}

  // Takes `t` into the window without emitting (a late member's backfill).
  void Add(const Tuple& t) {
    items_.push_back(t);
    Accumulate(t, +1);
  }

  // Expires the entries t's window no longer covers, takes `t`, and returns
  // the member's output (t's group values..., aggregate) at t.ts().
  Tuple Push(const Tuple& t) {
    for (; expired_ < items_.size() &&
           items_[expired_].ts() <= t.ts() - window_;
         ++expired_) {
      Accumulate(items_[expired_], -1);
    }
    Add(t);
    const Group& g = *FindGroup(t);
    Value result;
    switch (fn_) {
      case AggFn::kCount: result = Value(g.count); break;
      case AggFn::kSum:
        result = g.double_count > 0 ? Value(g.dsum + g.isum) : Value(g.isum);
        break;
      case AggFn::kAvg:
        result = Value((g.dsum + static_cast<double>(g.isum)) /
                       static_cast<double>(g.count));
        break;
      case AggFn::kMin:
      case AggFn::kMax:
        for (size_t i = expired_; i < items_.size(); ++i) {
          if (!SameGroup(items_[i], t)) continue;
          const Value& v = items_[i].at(attr_);
          const bool better = fn_ == AggFn::kMin ? v < result : result < v;
          if (result.type() == ValueType::kNull || better) result = v;
        }
        break;
    }
    std::vector<Value> out;
    for (int a : groups_) out.push_back(t.at(a));
    out.push_back(result);
    return Tuple::Make(std::move(out), t.ts());
  }

 private:
  struct Group {
    Tuple key;  // any tuple of the group
    int64_t count = 0;
    int64_t isum = 0;
    double dsum = 0;
    int64_t double_count = 0;
  };

  bool SameGroup(const Tuple& a, const Tuple& b) const {
    for (int g : groups_) {
      if (!(a.at(g) == b.at(g))) return false;
    }
    return true;
  }

  Group* FindGroup(const Tuple& t) {
    for (Group& g : groups_state_) {
      if (SameGroup(g.key, t)) return &g;
    }
    return nullptr;
  }

  void Accumulate(const Tuple& t, int sign) {
    Group* g = FindGroup(t);
    if (g == nullptr) {
      groups_state_.push_back(Group{t});
      g = &groups_state_.back();
    }
    g->count += sign;
    if (fn_ != AggFn::kCount) {
      const Value& v = t.at(attr_);
      if (v.type() == ValueType::kInt) {
        g->isum += sign * v.AsInt();
      } else {
        g->dsum += sign * v.ToNumeric();
        g->double_count += sign;
        if (g->double_count == 0) g->dsum = 0;
      }
    }
    if (g->count == 0) {
      *g = groups_state_.back();
      groups_state_.pop_back();
    }
  }

  AggFn fn_;
  int attr_;
  std::vector<int> groups_;
  int64_t window_;
  std::vector<Tuple> items_;  // every tuple taken, in order
  size_t expired_ = 0;        // items_[0, expired_) left the window
  std::vector<Group> groups_state_;
};

}  // namespace rumor

#endif  // RUMOR_TESTS_MOP_TEST_UTIL_H_
