// Cayuga iterate (µ) m-ops — paper §4.2/§4.4.
//
// Semantics of one µ member (the deterministic variant used throughout this
// library; see DESIGN.md §7): a left tuple creates an *instance* whose state
// is the concatenation (start ⊕ last). The last-part is initialised from the
// start tuple when the two schemas have equal arity (the common case: "the
// last input event that contributes to the pattern" is initially the start
// event), and with nulls otherwise. For an incoming right event e and
// instance i (with i.start.ts < e.ts and e.ts - i.start.ts <= window):
//
//   if match(i, e) holds:
//     if rebind(i, e) holds: the last-part is replaced by e, the updated
//         concatenation is emitted with ts = e.ts, and the instance lives on
//         (the run grows);
//     else: the instance dies (the run is broken — e.g. monotonicity
//         violated);
//   else: the instance is left untouched (the event is irrelevant to it).
//
// `match` is the conjunct group referencing only the start part; `rebind`
// the group referencing the last-part (see SplitIteratePredicate). Stop
// conditions are downstream selections on the emitted concatenations.
//
// The sharing modes (isolated, sµ across windows, cµ), the stores and their
// save/load come from PatternMop (mop/pattern_mop.h). An
// `start.attr = event.attr` match conjunct hash-indexes a store; the key
// lives in the start part and is stable across rebinds.
#ifndef RUMOR_MOP_ITERATE_MOP_H_
#define RUMOR_MOP_ITERATE_MOP_H_

#include <vector>

#include "expr/program.h"
#include "mop/pattern_mop.h"

namespace rumor {

struct IterateDef {
  ExprPtr match;    // over (instance concat, event); start-part conjuncts
  ExprPtr rebind;   // over (instance concat, event); last-part conjuncts
  int64_t window = 0;  // bound on event.ts - start.ts; 0 = unbounded
  int left_size = 0;   // |start schema|
  int right_size = 0;  // |event schema|

  uint64_t Signature() const {
    uint64_t h = Mix64(PredicateSignature(match));
    h = HashCombine(h, PredicateSignature(rebind));
    h = HashCombine(h, static_cast<uint64_t>(window));
    h = HashCombine(h, static_cast<uint64_t>(left_size));
    h = HashCombine(h, static_cast<uint64_t>(right_size));
    return h;
  }
  // The definition without its window (sµ allows different windows).
  uint64_t PredicateOnlySignature() const {
    uint64_t h = Mix64(PredicateSignature(match));
    h = HashCombine(h, PredicateSignature(rebind));
    h = HashCombine(h, static_cast<uint64_t>(left_size));
    h = HashCombine(h, static_cast<uint64_t>(right_size));
    return h;
  }
};

class IterateMop : public PatternMop {
 public:
  struct Member {
    int left_slot = 0;
    int right_slot = 0;
    IterateDef def;
  };

  // Input port 0 = left (instance-creating) channel, port 1 = events.
  IterateMop(std::vector<Member> members, Sharing sharing, OutputMode mode);

  uint64_t MemberSignature(int i) const override {
    return members_[i].def.Signature();
  }
  const Member& member(int i) const { return members_[i]; }

  void Process(int input_port, const ChannelTuple& tuple,
               Emitter& out) override;

 private:
  static MopType TypeFor(Sharing sharing);
  static Tuple MakeInitialConcat(const Tuple& start, const IterateDef& def);

  std::vector<Member> members_;
  Program match_program_;   // the match predicate every member shares
  Program rebind_program_;  // the rebind predicate every member shares
};

}  // namespace rumor

#endif  // RUMOR_MOP_ITERATE_MOP_H_
