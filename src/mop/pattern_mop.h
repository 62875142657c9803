// The skeleton the Cayuga pattern m-ops, sequence (;) and iterate (µ), share
// (paper §4.2/§4.4): a left tuple starts an *instance*, and right tuples
// match, advance or end it. PatternMop owns the instance store, the
// sharing modes, the member lifecycle, state save/load, expiry and where a
// result goes; SequenceMop and IterateMop define the instance tuple and
// what a right tuple does to it.
//
// Sharing modes:
//  * kIsolated — the compile output for one logical ; or µ, and the
//    reference the merged modes are tested against (one per member): one
//    member's instance store.
//  * kShared   — target of s; and sµ (Cayuga prefix state merging, widened
//    across windows the way s⋈ is): members read the same streams with the
//    same predicate and may differ in the window. One store, kept to the
//    widest window of an active member, serves them all. An instance's
//    history does not depend on the window, so a result goes to the members
//    whose window covers the instance's age (WindowRouting), and consuming
//    or ending the instance applies to all of them (the narrower members'
//    copy had already expired).
//  * kChannel  — target of c; and cµ: identical members whose left inputs
//    are encoded in one channel (member i = slot i) and whose right input is
//    the same stream; instances carry the channel membership and one
//    evaluation serves all members (the strategy of Fig. 6(c), outside the
//    Cayuga automaton model).
//
// An `l.attr = r.attr` conjunct, when present, hash-indexes a store — the
// RUMOR translation of Cayuga's Active Instance (AI) index.
#ifndef RUMOR_MOP_PATTERN_MOP_H_
#define RUMOR_MOP_PATTERN_MOP_H_

#include <vector>

#include "expr/shape.h"
#include "mop/keyed_buffer.h"
#include "mop/mop.h"
#include "mop/mop_state.h"
#include "mop/window_routing.h"

namespace rumor {

class PatternMop : public Mop {
 public:
  enum class Sharing : uint8_t { kIsolated, kShared, kChannel };

  int num_members() const override {
    return static_cast<int>(wiring_.size());
  }
  Sharing sharing() const { return sharing_; }
  bool indexed() const { return !shape_.equi.empty(); }
  // Live instances (for tests).
  size_t instance_count() const { return store_.live_size(); }

  // s;/sµ only: a deactivated member is skipped by the routing, and the
  // store keeps only the widest active window.
  bool member_active(int i) const override {
    return sharing_ != Sharing::kShared || routing_.active(i);
  }
  bool DeactivateMember(int i) override;

  bool SaveState(MopState* out) const override;
  Status LoadState(const MopState& src,
                   const MopStateBinding& binding) override;
  int64_t StateBytes() const override;

 protected:
  // Where a member reads its two inputs, and its window (0 = unbounded).
  struct Wiring {
    int left_slot = 0;
    int right_slot = 0;
    int64_t window = 0;
  };
  template <typename Member>
  static std::vector<Wiring> WiringOf(const std::vector<Member>& members) {
    std::vector<Wiring> out;
    for (const Member& m : members) {
      out.push_back({m.left_slot, m.right_slot, m.def.window});
    }
    return out;
  }

  // An instance: its tuple (;: the start tuple; µ: start ⊕ last, whose
  // timestamp rebinds advance) and, in kChannel mode, the members it
  // belongs to. Its store slot keeps the start timestamp.
  struct Instance {
    Tuple tuple;
    BitVector membership;
  };
  using Store = KeyedBuffer<Instance>;

  // Checks the wiring against `sharing`; the subclass then sets the shape.
  PatternMop(MopType type, MopState::Kind kind, Sharing sharing,
             OutputMode mode, std::vector<Wiring> wiring);

  // `shape` is the predicate the store is probed with.
  void SetShape(JoinShape shape) {
    store_ = Store(!shape.equi.empty());
    shape_ = std::move(shape);
  }

  // Stores the instance left tuple `ct` starts, if it reaches a member;
  // tuple_for() builds the instance tuple.
  template <typename TupleFor>
  void StartInstance(const ChannelTuple& ct, const TupleFor& tuple_for) {
    BitVector membership;  // kChannel: member i <-> slot i
    if (sharing_ != Sharing::kChannel) {
      if (!ct.membership.Test(wiring_[0].left_slot)) return;
    } else {
      membership = ct.membership;
      if (membership.None()) return;
    }
    Tuple tuple = tuple_for();
    Value key;
    if (!shape_.equi.empty()) key = tuple.at(shape_.equi[0].left_attr);
    const Timestamp start = tuple.ts();
    store_.Add(Instance{std::move(tuple), std::move(membership)}, key, start);
  }

  // Offers right tuple `ct` to the store, after expiring the instances none
  // of the members can match any more. visit(store, abs, slot) sees each
  // candidate instance (probed on the equi key when the store is indexed);
  // it may Kill(abs).
  template <typename Visit>
  void ForCandidates(const ChannelTuple& ct, const Visit& visit) {
    if (!ct.membership.Test(wiring_[0].right_slot)) return;
    const Tuple& r = ct.tuple;
    store_.ExpireBefore(OldestKept(r.ts()));
    Value key;
    const Value* key_ptr = nullptr;
    if (!shape_.equi.empty()) {
      key = r.at(shape_.equi[0].right_attr);
      key_ptr = &key;
    }
    store_.ForCandidates(key_ptr, [&](int64_t abs, auto& slot) {
      visit(store_, abs, slot);
    });
  }

  // The members a result of the instance in `slot` goes to at `now`.
  template <typename Slot>
  const BitVector& Recipients(const Slot& slot, Timestamp now) const {
    switch (sharing_) {
      case Sharing::kShared: return routing_.Covering(now, slot.ts);
      case Sharing::kChannel: return slot.item.membership;
      case Sharing::kIsolated: break;
    }
    return only_member_;
  }

  OutputMode mode_;

 private:
  // The oldest start the store keeps at `now`.
  Timestamp OldestKept(Timestamp now) const;

  MopState::Kind kind_;
  Sharing sharing_;
  std::vector<Wiring> wiring_;
  JoinShape shape_;
  Store store_{false};
  WindowRouting routing_;  // kShared
  // kIsolated: the recipients of every result, {member 0}.
  BitVector only_member_ = BitVector::Singleton(0, 1);
};

}  // namespace rumor

#endif  // RUMOR_MOP_PATTERN_MOP_H_
