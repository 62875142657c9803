#include "mop/selection_mop.h"

namespace rumor {

SelectionMop::SelectionMop(Member member)
    : Mop(MopType::kSelection, /*num_inputs=*/1, /*num_outputs=*/1),
      member_(std::move(member)),
      program_(Program::Compile(member_.def.predicate)) {}

void SelectionMop::Process(int input_port, const ChannelTuple& ct,
                           Emitter& out) {
  RUMOR_DCHECK(input_port == 0);
  (void)input_port;
  if (!ct.membership.Test(member_.input_slot)) return;
  if (!program_.EvalBool(ExprContext{&ct.tuple, nullptr})) return;
  out.Emit(0, ChannelTuple{ct.tuple, BitVector::Singleton(0, 1)});
  CountOut();
}

void SelectionMop::ProcessBatch(int input_port, const ChannelTuple* tuples,
                                size_t n, Emitter& out) {
  RUMOR_DCHECK(input_port == 0);
  (void)input_port;
  program_.EvalBoolBatchGated(tuples, n, member_.input_slot, match_scratch_);
  for (size_t j = 0; j < n; ++j) {
    if (!match_scratch_.Test(static_cast<int>(j))) continue;
    out.Emit(0, ChannelTuple{tuples[j].tuple, BitVector::Singleton(0, 1)});
    CountOut();
  }
}

ChannelSelectMop::ChannelSelectMop(SelectionDef def, int num_members,
                                   OutputMode mode)
    : Mop(MopType::kChannelSelect, /*num_inputs=*/1,
          /*num_outputs=*/mode == OutputMode::kChannel ? 1 : num_members),
      def_(std::move(def)),
      num_members_(num_members),
      program_(Program::Compile(def_.predicate)),
      mode_(mode) {
  RUMOR_CHECK(num_members_ >= 1);
}

void ChannelSelectMop::Process(int input_port, const ChannelTuple& ct,
                               Emitter& out) {
  RUMOR_DCHECK(input_port == 0);
  (void)input_port;
  RUMOR_DCHECK(ct.membership.size() == num_members_);
  ExprContext ctx{&ct.tuple, nullptr};
  // Same definition for every member: evaluate once, pass membership
  // through.
  if (!program_.EvalBool(ctx)) return;
  EmitForMembers(mode_, ct.membership, ct.tuple, out);
  CountOut(mode_ == OutputMode::kChannel ? 1 : ct.membership.Count());
}

void ChannelSelectMop::ProcessBatch(int input_port, const ChannelTuple* tuples,
                                    size_t n, Emitter& out) {
  RUMOR_DCHECK(input_port == 0);
  (void)input_port;
  program_.EvalBoolBatch(tuples, n, match_scratch_);
  for (size_t j = 0; j < n; ++j) {
    if (!match_scratch_.Test(static_cast<int>(j))) continue;
    RUMOR_DCHECK(tuples[j].membership.size() == num_members_);
    EmitForMembers(mode_, tuples[j].membership, tuples[j].tuple, out);
    CountOut(mode_ == OutputMode::kChannel ? 1
                                           : tuples[j].membership.Count());
  }
}

}  // namespace rumor
