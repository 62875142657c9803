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
  program_ = Program::Compile(first.predicate);
  SetShape(AnalyzeJoin(first.predicate));
}

void SequenceMop::Process(int input_port, const ChannelTuple& ct,
                          Emitter& out) {
  if (input_port == 0) {
    StartInstance(ct, [&] { return ct.tuple; });
    return;
  }
  RUMOR_DCHECK(input_port == 1);
  const Tuple& r = ct.tuple;
  ForCandidates(ct, [&](Store& store, int64_t abs, auto& slot) {
    const Tuple& start = slot.item.tuple;
    // A left tuple can only be followed by a strictly later right tuple.
    if (start.ts() >= r.ts()) return;
    ExprContext ctx{&start, &r};
    if (!program_.EvalBool(ctx)) return;
    EmitCounted(mode_, Recipients(slot, r.ts()),
                ConcatTuples(start, r, r.ts()), out);
    store.Kill(abs);  // consume-on-match
  });
}

}  // namespace rumor
