// Cayuga sequence (;) m-ops — paper §4.2/§4.4.
//
// Semantics of one ; member: every left tuple is stored as an *instance*.
// An incoming right tuple r matches instance l iff l.ts < r.ts,
// r.ts - l.ts <= window (when window > 0), and predicate(l, r) holds; each
// match emits concat(l, r) with ts = r.ts and CONSUMES the instance (paper
// §5.2: "when a tuple in the operator state is matched ... that tuple in
// the state is deleted"). Instances expire once they can no longer match.
//
// The sharing modes (isolated, s; across windows, c;), the stores and their
// save/load come from PatternMop (mop/pattern_mop.h).
#ifndef RUMOR_MOP_SEQUENCE_MOP_H_
#define RUMOR_MOP_SEQUENCE_MOP_H_

#include <vector>

#include "expr/program.h"
#include "mop/pattern_mop.h"

namespace rumor {

struct SequenceDef {
  ExprPtr predicate;
  int64_t window = 0;  // 0 = unbounded

  uint64_t Signature() const {
    return HashCombine(PredicateOnlySignature(),
                       static_cast<uint64_t>(window));
  }
  // The definition without its window (s; allows different windows).
  uint64_t PredicateOnlySignature() const {
    return Mix64(PredicateSignature(predicate));
  }
};

class SequenceMop : public PatternMop {
 public:
  struct Member {
    int left_slot = 0;
    int right_slot = 0;
    SequenceDef def;
  };

  // Input port 0 = left (instance-creating) channel, port 1 = right channel.
  SequenceMop(std::vector<Member> members, Sharing sharing, OutputMode mode);

  uint64_t MemberSignature(int i) const override {
    return members_[i].def.Signature();
  }
  const Member& member(int i) const { return members_[i]; }

  void Process(int input_port, const ChannelTuple& tuple,
               Emitter& out) override;

 private:
  static MopType TypeFor(Sharing sharing);

  std::vector<Member> members_;
  Program program_;  // the predicate every member shares
};

}  // namespace rumor

#endif  // RUMOR_MOP_SEQUENCE_MOP_H_
