#include "mop/sequence_mop.h"

namespace rumor {

MopType SequenceMop::TypeFor(Sharing sharing) {
  switch (sharing) {
    case Sharing::kIsolated: return MopType::kSequence;
    case Sharing::kShared: return MopType::kSharedSequence;
    case Sharing::kChannel: return MopType::kChannelSequence;
  }
  return MopType::kSequence;
}

SequenceMop::SequenceMop(std::vector<Member> members, Sharing sharing,
                         OutputMode mode)
    : PatternMop(TypeFor(sharing), MopState::Kind::kSequence, sharing, mode,
                 WiringOf(members)),
      members_(std::move(members)) {
  const SequenceDef& first = members_[0].def;
  for (const Member& m : members_) {
    if (sharing == Sharing::kShared) {
      RUMOR_CHECK(ExprEquals(m.def.predicate, first.predicate))
          << "s; members must share the predicate";
    } else if (sharing == Sharing::kChannel) {
      RUMOR_CHECK(m.def.Signature() == first.Signature())
          << "c; members must have identical definitions";
    }
  }
  const size_t stores = sharing == Sharing::kIsolated ? members_.size() : 1;
  for (size_t k = 0; k < stores; ++k) {
    programs_.push_back(Program::Compile(members_[k].def.predicate));
    AddStore(AnalyzeJoin(members_[k].def.predicate));
  }
}

void SequenceMop::Process(int input_port, const ChannelTuple& ct,
                          Emitter& out) {
  if (input_port == 0) {
    StartInstances(ct, [&](int) { return ct.tuple; });
    return;
  }
  RUMOR_DCHECK(input_port == 1);
  const Tuple& r = ct.tuple;
  ForCandidates(ct, [&](int k, Store& store, int64_t abs, auto& slot) {
    const Tuple& start = slot.item.tuple;
    // A left tuple can only be followed by a strictly later right tuple.
    if (start.ts() >= r.ts()) return;
    ExprContext ctx{&start, &r};
    if (!programs_[k].EvalBool(ctx)) return;
    EmitCounted(mode_, Recipients(k, slot, r.ts()),
                ConcatTuples(start, r, r.ts()), out);
    store.Kill(abs);  // consume-on-match
  });
}

}  // namespace rumor
