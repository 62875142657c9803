// Sliding-window join m-ops, in three sharing modes:
//
//  * kIsolated  — the compile output for one logical ⋈, and the reference
//    the merged modes are tested against (one per member): one member's
//    symmetric hash join state.
//  * kShared    — target of rule s⋈ [Hammad 03]: members read the same two
//    streams with the same predicate but different window lengths; one
//    shared state serves all members, and each match is routed to exactly
//    the members whose windows cover the partner tuple's age
//    (WindowRouting, shared with s; and sµ).
//  * kPrecision — target of rule c⋈ [Krishnamurthy 04] (precision sharing):
//    same-definition members whose left/right inputs are encoded in
//    channels (member i = slot i on both sides); stored tuples carry
//    memberships and a match belongs to the AND of the two memberships.
//
// Match semantics (all modes): tuples l, r join iff predicate(l, r) holds,
// r.ts - l.ts <= left_window when l arrived first, and l.ts - r.ts <=
// right_window when r arrived first. Output tuple = concat(l, r) with
// ts = max(l.ts, r.ts). An `attr_l = attr_r` conjunct, when present, is used
// as the hash key of both states.
#ifndef RUMOR_MOP_JOIN_MOP_H_
#define RUMOR_MOP_JOIN_MOP_H_

#include <vector>

#include "expr/program.h"
#include "expr/shape.h"
#include "mop/keyed_buffer.h"
#include "mop/mop.h"
#include "mop/window_routing.h"

namespace rumor {

struct JoinDef {
  ExprPtr predicate;
  int64_t left_window = 0;
  int64_t right_window = 0;

  uint64_t Signature() const {
    uint64_t h = Mix64(PredicateSignature(predicate));
    h = HashCombine(h, static_cast<uint64_t>(left_window));
    h = HashCombine(h, static_cast<uint64_t>(right_window));
    return h;
  }
  // Predicate-only signature (s⋈ allows different windows).
  uint64_t PredicateOnlySignature() const {
    return Mix64(PredicateSignature(predicate));
  }
};

class JoinMop : public Mop {
 public:
  enum class Sharing : uint8_t { kIsolated, kShared, kPrecision };

  struct Member {
    int left_slot = 0;
    int right_slot = 0;
    JoinDef def;
  };

  // Input port 0 = left channel, port 1 = right channel.
  JoinMop(std::vector<Member> members, Sharing sharing, OutputMode mode);

  int num_members() const override {
    return static_cast<int>(members_.size());
  }
  uint64_t MemberSignature(int i) const override {
    return members_[i].def.Signature();
  }
  const Member& member(int i) const { return members_[i]; }
  Sharing sharing() const { return sharing_; }
  bool indexed() const { return indexed_; }

  // s⋈ only: a deactivated member is skipped by the routing, and the
  // buffers keep only the widest active windows.
  bool member_active(int i) const override {
    return sharing_ != Sharing::kShared || left_routing_.active(i);
  }
  bool DeactivateMember(int i) override;

  void Process(int input_port, const ChannelTuple& tuple,
               Emitter& out) override;

  bool SaveState(MopState* out) const override;
  Status LoadState(const MopState& src,
                   const MopStateBinding& binding) override;

  int64_t StateBytes() const override {
    return left_.ApproxBytes() + right_.ApproxBytes();
  }

 private:
  struct StoredTuple {
    Tuple tuple;
    BitVector membership;  // meaningful for kPrecision
  };

  static MopType TypeFor(Sharing sharing);
  // kIsolated: the one member's own expiry, probe and store.
  void ProcessIsolated(int port, const ChannelTuple& ct, Emitter& out);
  void ProcessSharedOrPrecision(int port, const ChannelTuple& ct,
                                Emitter& out);
  void EmitMatch(const BitVector& members, const Tuple& left,
                 const Tuple& right, Emitter& out);

  std::vector<Member> members_;
  Sharing sharing_;
  OutputMode mode_;
  Program program_;  // the predicate every member shares
  JoinShape shape_;
  bool indexed_ = false;
  KeyedBuffer<StoredTuple> left_{false};
  KeyedBuffer<StoredTuple> right_{false};
  // Shared modes: routing by member.left_window / member.right_window (c⋈
  // members' windows are equal; it reads only the expiry bound).
  WindowRouting left_routing_;
  WindowRouting right_routing_;
  // kIsolated: the recipients of every match, {member 0}.
  BitVector only_member_ = BitVector::Singleton(0, 1);
};

}  // namespace rumor

#endif  // RUMOR_MOP_JOIN_MOP_H_
