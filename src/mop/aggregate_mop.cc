#include "mop/aggregate_mop.h"

#include <algorithm>

#include "common/str_util.h"
#include "mop/mop_state.h"

namespace rumor {

MopType AggregateMop::TypeFor(Sharing sharing) {
  switch (sharing) {
    case Sharing::kIsolated: return MopType::kAggregate;
    case Sharing::kShared: return MopType::kSharedAggregate;
    case Sharing::kFragment: return MopType::kFragmentAggregate;
  }
  return MopType::kAggregate;
}

std::vector<AggMemberSpec> AggregateMop::SpecsOf(
    const std::vector<Member>& members, Sharing sharing) {
  RUMOR_CHECK(!members.empty());
  RUMOR_CHECK(sharing != Sharing::kIsolated || members.size() == 1)
      << "an isolated α has one member";
  std::vector<AggMemberSpec> specs;
  for (int i = 0; i < static_cast<int>(members.size()); ++i) {
    const Member& m = members[i];
    if (sharing == Sharing::kShared) {
      RUMOR_CHECK(m.input_slot == members[0].input_slot)
          << "sα members must read the same stream";
    } else if (sharing == Sharing::kFragment) {  // member i <-> slot i
      RUMOR_CHECK(m.input_slot == i)
          << "cα member " << i << " must read channel slot " << i;
      RUMOR_CHECK(m.spec.Signature() == members[0].spec.Signature())
          << "cα members must have identical definitions";
    }
    specs.push_back(m.spec);
  }
  return specs;
}

AggregateMop::AggregateMop(std::vector<Member> members, Sharing sharing,
                           OutputMode mode)
    : Mop(TypeFor(sharing), /*num_inputs=*/1,
          /*num_outputs=*/mode == OutputMode::kChannel
              ? 1
              : static_cast<int>(members.size())),
      members_(std::move(members)),
      sharing_(sharing),
      mode_(mode),
      engine_(SpecsOf(members_, sharing), sharing == Sharing::kFragment) {}

bool AggregateMop::CanAttach(const Member& m) const {
  if (mode_ != OutputMode::kPerMemberPorts) return false;
  // Fragment members correspond to channel slots; a late member has no slot.
  // An isolated α converts in place: its engine is a 1-member shared engine.
  if (sharing_ == Sharing::kFragment) return false;
  const Member& first = members_[0];
  return m.input_slot == first.input_slot && m.spec.fn == first.spec.fn &&
         m.spec.attr == first.spec.attr && m.spec.window > 0;
}

MemberAttach AggregateMop::AttachMember(const Member& m) {
  RUMOR_CHECK(CanAttach(m));
  if (sharing_ == Sharing::kIsolated) {
    sharing_ = Sharing::kShared;
    set_type(MopType::kSharedAggregate);
  }
  int slot = engine_.FindInactiveMember();
  if (slot >= 0) {
    members_[slot] = m;
    engine_.ReuseMember(slot, m.spec);
    return {slot, true};
  }
  members_.push_back(m);
  engine_.AddMember(m.spec);
  set_num_outputs(num_outputs() + 1);
  return {num_members() - 1, false};
}

bool AggregateMop::DeactivateMember(int i) {
  RUMOR_DCHECK(i >= 0 && i < num_members());
  engine_.DeactivateMember(i);
  return true;
}

bool AggregateMop::member_active(int i) const {
  RUMOR_DCHECK(i >= 0 && i < num_members());
  return engine_.member_active(i);
}

void AggregateMop::EmitResult(Emitter& out, int member, Tuple result) {
  if (mode_ == OutputMode::kChannel) {
    out.Emit(0, ChannelTuple{std::move(result),
                             BitVector::Singleton(member, num_members())});
  } else {
    out.Emit(member,
             ChannelTuple{std::move(result), BitVector::Singleton(0, 1)});
  }
  CountOut();
}

void AggregateMop::Process(int input_port, const ChannelTuple& ct,
                           Emitter& out) {
  RUMOR_DCHECK(input_port == 0);
  (void)input_port;
  ProcessOne(ct, out);
}

void AggregateMop::ProcessBatch(int input_port, const ChannelTuple* tuples,
                                size_t n, Emitter& out) {
  RUMOR_DCHECK(input_port == 0);
  (void)input_port;
  for (size_t i = 0; i < n; ++i) ProcessOne(tuples[i], out);
}

bool AggregateMop::SaveState(MopState* out) const {
  out->kind = MopState::Kind::kAggregate;
  out->shared_state = sharing_ != Sharing::kIsolated;
  out->engines.clear();
  AggEngineState es;
  es.slots.resize(num_members());
  for (int i = 0; i < num_members(); ++i) es.slots[i] = i;
  engine_.ExtractState(&es);
  out->engines.push_back(std::move(es));
  return true;
}

Status AggregateMop::LoadState(const MopState& src,
                               const MopStateBinding& binding) {
  if (src.kind != MopState::Kind::kAggregate) {
    return Status::Internal("aggregate m-op handed non-aggregate state");
  }
  if (binding.saved_slot.size() != static_cast<size_t>(num_members())) {
    return Status::Internal("aggregate state binding size mismatch");
  }
  if (src.engines.size() > 1) {
    return Status::InvalidArgument(
        StrCat("aggregate state holds ", src.engines.size(),
               " engines; an aggregate m-op keeps one"));
  }
  // Engine-member r takes the saved engine-member serving saved m-op member
  // binding.saved_slot[r].
  static const std::vector<int> kNoSlots;
  const std::vector<int>& slots =
      src.engines.empty() ? kNoSlots : src.engines[0].slots;
  std::vector<int> direct(num_members(), -1);
  bool any = false;
  for (int r = 0; r < num_members(); ++r) {
    const int s = binding.saved_slot[r];
    if (s < 0) continue;
    const auto it = std::find(slots.begin(), slots.end(), s);
    if (it == slots.end()) {
      return Status::InvalidArgument(
          "snapshot lacks saved aggregate state for a matched member");
    }
    direct[r] = static_cast<int>(it - slots.begin());
    any = true;
  }
  if (!any) return Status::OK();  // nothing to restore
  return engine_.LoadState(src.engines[0], direct);
}

void AggregateMop::ProcessOne(const ChannelTuple& ct, Emitter& out) {
  auto emit = [&](int member, Tuple result) {
    EmitResult(out, member, std::move(result));
  };
  if (sharing_ == Sharing::kFragment) {
    // Member i <-> input slot i.
    RUMOR_DCHECK(ct.membership.size() == num_members());
    engine_.Process(ct.tuple, &ct.membership, emit);
    return;
  }
  // Every member reads the same stream: the tuple applies to everyone.
  if (!ct.membership.Test(members_[0].input_slot)) return;
  engine_.Process(ct.tuple, nullptr, emit);
}

}  // namespace rumor
