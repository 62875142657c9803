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
// Sharing modes mirror SequenceMop: kIsolated (reference), kShared (sµ /
// prefix merging), kChannel (cµ — instances carry channel memberships; the
// Fig. 6(c) strategy). An `start.attr = event.attr` match conjunct
// hash-indexes the store (AI index analogue); the key lives in the start
// part and is stable across rebinds.
#ifndef RUMOR_MOP_ITERATE_MOP_H_
#define RUMOR_MOP_ITERATE_MOP_H_

#include <memory>
#include <vector>

#include "expr/program.h"
#include "expr/shape.h"
#include "mop/mop.h"
#include "mop/keyed_buffer.h"

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
};

class IterateMop : public Mop {
 public:
  enum class Sharing : uint8_t { kIsolated, kShared, kChannel };

  struct Member {
    int left_slot = 0;
    int right_slot = 0;
    IterateDef def;
  };

  // Input port 0 = left (instance-creating) channel, port 1 = events.
  IterateMop(std::vector<Member> members, Sharing sharing, OutputMode mode);

  int num_members() const override {
    return static_cast<int>(members_.size());
  }
  uint64_t MemberSignature(int i) const override {
    return members_[i].def.Signature();
  }
  const Member& member(int i) const { return members_[i]; }
  Sharing sharing() const { return sharing_; }
  bool indexed() const { return indexed_; }
  size_t instance_count() const;

  void Process(int input_port, const ChannelTuple& tuple,
               Emitter& out) override;

  bool SaveState(MopState* out) const override;
  Status LoadState(const MopState& src,
                   const MopStateBinding& binding) override;

 private:
  struct Instance {
    Tuple concat;  // start ⊕ last
    BitVector membership;
  };
  using Store = KeyedBuffer<Instance>;

  static MopType TypeFor(Sharing sharing);
  Tuple MakeInitialConcat(const Tuple& start, const IterateDef& def) const;
  void ProcessLeft(const ChannelTuple& ct);
  void ProcessRight(const ChannelTuple& ct, Emitter& out);

  std::vector<Member> members_;
  Sharing sharing_;
  OutputMode mode_;
  std::vector<Program> match_programs_;
  std::vector<Program> rebind_programs_;
  std::vector<JoinShape> shapes_;  // of the match predicate
  bool indexed_ = false;
  std::vector<std::unique_ptr<Store>> stores_;
};

}  // namespace rumor

#endif  // RUMOR_MOP_ITERATE_MOP_H_
