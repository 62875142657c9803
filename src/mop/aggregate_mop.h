// Sliding-window aggregation m-ops, in three sharing modes:
//
//  * kIsolated  — the compile output for one logical α, and the reference
//    the merged modes are tested against (one per member): one member.
//  * kShared    — target of rule sα [Zhang 05]: members read the same
//    stream with the same aggregate function/attribute but possibly
//    different group-by specifications and window lengths; one shared entry
//    log with per-member expiry cursors serves all of them.
//  * kFragment  — target of rule cα [Krishnamurthy 06]: same-definition
//    members whose inputs are encoded in one channel (member i = slot i);
//    each log entry carries the tuple's membership and contributes only to
//    the members it belongs to (fragment sharing).
//
// Emission contract (all modes): per input tuple and member, the updated
// aggregate of that tuple's group over entries with ts in (t - window, t].
#ifndef RUMOR_MOP_AGGREGATE_MOP_H_
#define RUMOR_MOP_AGGREGATE_MOP_H_

#include <vector>

#include "mop/mop.h"
#include "mop/window.h"

namespace rumor {

class AggregateMop : public Mop {
 public:
  enum class Sharing : uint8_t { kIsolated, kShared, kFragment };

  struct Member {
    int input_slot = 0;
    AggMemberSpec spec;
  };

  AggregateMop(std::vector<Member> members, Sharing sharing, OutputMode mode);

  int num_members() const override {
    return static_cast<int>(members_.size());
  }
  uint64_t MemberSignature(int i) const override {
    return members_[i].spec.Signature();
  }
  const Member& member(int i) const { return members_[i]; }
  Sharing sharing() const { return sharing_; }
  OutputMode output_mode() const { return mode_; }

  // --- dynamic membership (online query churn) -------------------------------
  // True if `m` can be absorbed as a new member without disturbing warm
  // state: per-member-ports output, same fn/attr/input_slot, and this m-op
  // is either the sα target or an isolated α (which converts to an sα target
  // in place, reusing its warm engine).
  bool CanAttach(const Member& m) const;
  // Absorbs `m` (CanAttach must hold) in the lowest inactive slot, so churn
  // does not grow the member set without bound, or else in a new slot and
  // output port; its state is backfilled from the retained log.
  MemberAttach AttachMember(const Member& m);
  // Deactivates a member whose query was removed; its port stays bound but
  // the member no longer computes or emits, and its state is released.
  bool DeactivateMember(int i) override;
  bool member_active(int i) const override;

  // Size of the entry log (for tests/ablation).
  size_t log_size() const { return engine_.log_size(); }

  int64_t StateBytes() const override { return engine_.ApproxBytes(); }

  void Process(int input_port, const ChannelTuple& tuple,
               Emitter& out) override;
  // Batched path: the engines are inherently per-tuple (every input
  // advances expiry cursors and emits updated aggregates), so this only
  // saves the per-tuple virtual dispatch.
  void ProcessBatch(int input_port, const ChannelTuple* tuples, size_t n,
                    Emitter& out) override;

  bool SaveState(MopState* out) const override;
  Status LoadState(const MopState& src,
                   const MopStateBinding& binding) override;

 private:
  static MopType TypeFor(Sharing sharing);
  // Checks the members against `sharing` and returns their specs.
  static std::vector<AggMemberSpec> SpecsOf(const std::vector<Member>& members,
                                            Sharing sharing);

  void ProcessOne(const ChannelTuple& tuple, Emitter& out);
  void EmitResult(Emitter& out, int member, Tuple result);

  std::vector<Member> members_;
  Sharing sharing_;
  OutputMode mode_;
  SharedAggEngine engine_;
};

}  // namespace rumor

#endif  // RUMOR_MOP_AGGREGATE_MOP_H_
