#include "mop/iterate_mop.h"

namespace rumor {

MopType IterateMop::TypeFor(Sharing sharing) {
  switch (sharing) {
    case Sharing::kIsolated: return MopType::kIterate;
    case Sharing::kShared: return MopType::kSharedIterate;
    case Sharing::kChannel: return MopType::kChannelIterate;
  }
  return MopType::kIterate;
}

IterateMop::IterateMop(std::vector<Member> members, Sharing sharing,
                       OutputMode mode)
    : PatternMop(TypeFor(sharing), MopState::Kind::kIterate, sharing, mode,
                 WiringOf(members)),
      members_(std::move(members)) {
  const IterateDef& first = members_[0].def;
  for (const Member& m : members_) {
    if (sharing == Sharing::kShared) {
      RUMOR_CHECK(ExprEquals(m.def.match, first.match) &&
                  ExprEquals(m.def.rebind, first.rebind) &&
                  m.def.left_size == first.left_size &&
                  m.def.right_size == first.right_size)
          << "sµ members must share the match and rebind predicates";
    } else if (sharing == Sharing::kChannel) {
      RUMOR_CHECK(m.def.Signature() == first.Signature())
          << "cµ members must have identical definitions";
    }
  }
  match_program_ = Program::Compile(first.match);
  rebind_program_ = Program::Compile(first.rebind);
  SetShape(AnalyzeJoin(first.match));
}

Tuple IterateMop::MakeInitialConcat(const Tuple& start,
                                    const IterateDef& def) {
  RUMOR_DCHECK(start.size() == def.left_size);
  std::vector<Value> values;
  values.reserve(def.left_size + def.right_size);
  values.insert(values.end(), start.values().begin(), start.values().end());
  if (def.right_size == def.left_size) {
    // `last` starts out as the start event itself.
    values.insert(values.end(), start.values().begin(),
                  start.values().end());
  } else {
    values.insert(values.end(), def.right_size, Value());
  }
  return Tuple::Make(std::move(values), start.ts());
}

void IterateMop::Process(int input_port, const ChannelTuple& ct,
                         Emitter& out) {
  if (input_port == 0) {
    StartInstance(
        ct, [&] { return MakeInitialConcat(ct.tuple, members_[0].def); });
    return;
  }
  RUMOR_DCHECK(input_port == 1);
  const Tuple& e = ct.tuple;
  ForCandidates(ct, [&](Store& store, int64_t abs, auto& slot) {
    Instance& inst = slot.item;
    if (slot.ts >= e.ts()) return;  // start must precede the event
    ExprContext ctx{&inst.tuple, &e};
    if (!match_program_.EvalBool(ctx)) return;  // irrelevant event
    if (!rebind_program_.EvalBool(ctx)) {
      store.Kill(abs);  // run broken
      return;
    }
    // Rebind: replace the last-part with the event, emit the new concat.
    const IterateDef& def = members_[0].def;
    std::vector<Value> values;
    values.reserve(def.left_size + def.right_size);
    for (int a = 0; a < def.left_size; ++a) {
      values.push_back(inst.tuple.at(a));
    }
    values.insert(values.end(), e.values().begin(), e.values().end());
    Tuple updated = Tuple::Make(std::move(values), e.ts());
    EmitCounted(mode_, Recipients(slot, e.ts()), updated, out);
    inst.tuple = std::move(updated);
  });
}

}  // namespace rumor
