#include "mop/projection_mop.h"

namespace rumor {

ProjectionMop::ProjectionMop(Member member)
    : Mop(MopType::kProjection, /*num_inputs=*/1, /*num_outputs=*/1),
      member_(std::move(member)) {}

void ProjectionMop::Process(int input_port, const ChannelTuple& ct,
                            Emitter& out) {
  RUMOR_DCHECK(input_port == 0);
  (void)input_port;
  if (!ct.membership.Test(member_.input_slot)) return;
  ExprContext ctx{&ct.tuple, nullptr};
  std::optional<Tuple> result = member_.def.map.Apply(ctx, ct.tuple.ts());
  if (!result) return;
  out.Emit(0, ChannelTuple{std::move(*result), BitVector::Singleton(0, 1)});
  CountOut();
}

ChannelProjectMop::ChannelProjectMop(ProjectionDef def, int num_members,
                                     OutputMode mode)
    : Mop(MopType::kChannelProject, /*num_inputs=*/1,
          /*num_outputs=*/mode == OutputMode::kChannel ? 1 : num_members),
      def_(std::move(def)),
      num_members_(num_members),
      mode_(mode) {
  RUMOR_CHECK(num_members_ >= 1);
}

void ChannelProjectMop::Process(int input_port, const ChannelTuple& ct,
                                Emitter& out) {
  RUMOR_DCHECK(input_port == 0);
  (void)input_port;
  RUMOR_DCHECK(ct.membership.size() == num_members_);
  ExprContext ctx{&ct.tuple, nullptr};
  std::optional<Tuple> result = def_.map.Apply(ctx, ct.tuple.ts());
  if (!result) return;
  EmitForMembers(mode_, ct.membership, *result, out);
  CountOut(mode_ == OutputMode::kChannel ? 1 : ct.membership.Count());
}

}  // namespace rumor
