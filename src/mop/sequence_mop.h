// Cayuga sequence (;) m-ops — paper §4.2/§4.4.
//
// Semantics of one ; member: every left tuple is stored as an *instance*.
// An incoming right tuple r matches instance l iff l.ts < r.ts,
// r.ts - l.ts <= window (when window > 0), and predicate(l, r) holds; each
// match emits concat(l, r) with ts = r.ts and CONSUMES the instance (paper
// §5.2: "when a tuple in the operator state is matched ... that tuple in
// the state is deleted"). Instances expire once they can no longer match.
//
// Sharing modes:
//  * kIsolated — reference: per-member instance stores.
//  * kShared   — target of rule s; (common subexpression elimination ≡
//    Cayuga prefix state merging): identical members reading the same
//    streams share one instance store; matches are multiplexed to all
//    member outputs.
//  * kChannel  — target of rule c;: identical members whose left inputs are
//    encoded in one channel (member i = slot i) and whose right input is the
//    same stream; instances carry the channel membership and one evaluation
//    serves all members (the strategy of Fig. 6(c), outside the Cayuga
//    automaton model).
//
// An `l.attr = r.attr` conjunct in the predicate, when present, hash-indexes
// the instance store — the RUMOR translation of Cayuga's Active Instance
// (AI) index.
#ifndef RUMOR_MOP_SEQUENCE_MOP_H_
#define RUMOR_MOP_SEQUENCE_MOP_H_

#include <memory>
#include <vector>

#include "expr/program.h"
#include "expr/shape.h"
#include "mop/mop.h"
#include "mop/keyed_buffer.h"

namespace rumor {

struct SequenceDef {
  ExprPtr predicate;
  int64_t window = 0;  // 0 = unbounded

  uint64_t Signature() const {
    uint64_t h = Mix64(PredicateSignature(predicate));
    h = HashCombine(h, static_cast<uint64_t>(window));
    return h;
  }
};

class SequenceMop : public Mop {
 public:
  enum class Sharing : uint8_t { kIsolated, kShared, kChannel };

  struct Member {
    int left_slot = 0;
    int right_slot = 0;
    SequenceDef def;
  };

  // Input port 0 = left (instance-creating) channel, port 1 = right channel.
  SequenceMop(std::vector<Member> members, Sharing sharing, OutputMode mode);

  int num_members() const override {
    return static_cast<int>(members_.size());
  }
  uint64_t MemberSignature(int i) const override {
    return members_[i].def.Signature();
  }
  const Member& member(int i) const { return members_[i]; }
  Sharing sharing() const { return sharing_; }
  bool indexed() const { return indexed_; }
  // Live instances (for tests; isolated mode sums per-member stores).
  size_t instance_count() const;

  void Process(int input_port, const ChannelTuple& tuple,
               Emitter& out) override;

  bool SaveState(MopState* out) const override;
  Status LoadState(const MopState& src,
                   const MopStateBinding& binding) override;

  int64_t StateBytes() const override {
    int64_t b = 0;
    for (const auto& store : stores_) {
      if (store != nullptr) b += store->ApproxBytes();
    }
    return b;
  }

 private:
  struct Instance {
    Tuple start;
    BitVector membership;  // over members (kChannel); over {0} otherwise
  };
  using Store = KeyedBuffer<Instance>;

  static MopType TypeFor(Sharing sharing);
  void ProcessLeft(const ChannelTuple& ct, Emitter& out);
  void ProcessRight(const ChannelTuple& ct, Emitter& out);

  std::vector<Member> members_;
  Sharing sharing_;
  OutputMode mode_;
  std::vector<Program> programs_;  // per member (shared modes use [0])
  std::vector<JoinShape> shapes_;
  bool indexed_ = false;
  std::vector<std::unique_ptr<Store>> stores_;  // per member or [0] shared
};

}  // namespace rumor

#endif  // RUMOR_MOP_SEQUENCE_MOP_H_
