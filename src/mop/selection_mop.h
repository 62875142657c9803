// Selection m-ops.
//
//  * SelectionMop — the compile output for one logical σ, and the reference
//    the merged selection m-ops are tested against (one per member).
//  * ChannelSelectMop — target of rule cσ: same-definition selections whose
//    inputs are encoded in one channel; the predicate is evaluated once per
//    channel tuple and the membership component is passed through.
//
// (The predicate-index target of rule sσ lives in predicate_index_mop.h.)
#ifndef RUMOR_MOP_SELECTION_MOP_H_
#define RUMOR_MOP_SELECTION_MOP_H_

#include "expr/program.h"
#include "mop/mop.h"

namespace rumor {

// Definition of one selection operator.
struct SelectionDef {
  ExprPtr predicate;  // null = pass-through

  uint64_t Signature() const { return PredicateSignature(predicate); }
};

class SelectionMop : public Mop {
 public:
  struct Member {
    int input_slot = 0;  // slot of the input channel the selection reads
    SelectionDef def;
  };

  // One member, written to output port 0.
  explicit SelectionMop(Member member);

  int num_members() const override { return 1; }
  uint64_t MemberSignature(int) const override {
    return member_.def.Signature();
  }
  const Member& member() const { return member_; }

  void Process(int input_port, const ChannelTuple& tuple,
               Emitter& out) override;
  void ProcessBatch(int input_port, const ChannelTuple* tuples, size_t n,
                    Emitter& out) override;

 private:
  Member member_;
  Program program_;
  BitVector match_scratch_;  // recycled batch match mask
};

class ChannelSelectMop : public Mop {
 public:
  // `num_members` members share `def`; member i reads input slot i and (in
  // channel mode) writes output slot i.
  ChannelSelectMop(SelectionDef def, int num_members, OutputMode mode);

  int num_members() const override { return num_members_; }
  uint64_t MemberSignature(int) const override { return def_.Signature(); }
  const SelectionDef& def() const { return def_; }

  void Process(int input_port, const ChannelTuple& tuple,
               Emitter& out) override;
  void ProcessBatch(int input_port, const ChannelTuple* tuples, size_t n,
                    Emitter& out) override;

 private:
  SelectionDef def_;
  int num_members_;
  Program program_;
  OutputMode mode_;
  BitVector match_scratch_;
};

}  // namespace rumor

#endif  // RUMOR_MOP_SELECTION_MOP_H_
