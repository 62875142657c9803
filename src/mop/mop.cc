#include "mop/mop.h"

#include "common/str_util.h"

namespace rumor {

const char* MopTypeName(MopType type) {
  switch (type) {
    case MopType::kSelection: return "σ";
    case MopType::kProjection: return "π";
    case MopType::kAggregate: return "α";
    case MopType::kJoin: return "⋈";
    case MopType::kSequence: return ";";
    case MopType::kIterate: return "µ";
    case MopType::kPredicateIndex: return "σ-index";
    case MopType::kChannelSelect: return "cσ";
    case MopType::kChannelProject: return "cπ";
    case MopType::kSharedAggregate: return "sα";
    case MopType::kFragmentAggregate: return "cα";
    case MopType::kSharedJoin: return "s⋈";
    case MopType::kPrecisionJoin: return "c⋈";
    case MopType::kSharedSequence: return "s;";
    case MopType::kChannelSequence: return "c;";
    case MopType::kSharedIterate: return "sµ";
    case MopType::kChannelIterate: return "cµ";
    case MopType::kZip: return "zip";
  }
  return "?";
}

std::string Mop::name() const {
  return StrCat(MopTypeName(type_), "#", id_, "[", num_members(), "]");
}

Status Mop::LoadState(const MopState&, const MopStateBinding&) {
  return Status::Unimplemented(
      StrCat("m-op ", name(), " does not carry restorable state"));
}

void Mop::EmitCounted(OutputMode mode, const BitVector& members,
                      const Tuple& tuple, Emitter& out) {
  if (members.None()) return;
  EmitForMembers(mode, members, tuple, out);
  CountOut(mode == OutputMode::kChannel ? 1 : members.Count());
}

void EmitForMembers(OutputMode mode, const BitVector& members,
                    const Tuple& tuple, Emitter& out) {
  if (members.None()) return;
  if (mode == OutputMode::kChannel) {
    out.Emit(0, ChannelTuple{tuple, members});
    return;
  }
  members.ForEach([&](int member) {
    out.Emit(member, ChannelTuple{tuple, BitVector::Singleton(0, 1)});
  });
}

}  // namespace rumor
