#include "mop/aggregate_mop.h"

#include <algorithm>

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

AggregateMop::AggregateMop(std::vector<Member> members, Sharing sharing,
                           OutputMode mode)
    : Mop(TypeFor(sharing), /*num_inputs=*/1,
          /*num_outputs=*/mode == OutputMode::kChannel
              ? 1
              : static_cast<int>(members.size())),
      members_(std::move(members)),
      sharing_(sharing),
      mode_(mode) {
  RUMOR_CHECK(!members_.empty());
  if (sharing_ == Sharing::kIsolated) {
    for (const Member& m : members_) {
      engines_.push_back(std::make_unique<SharedAggEngine>(
          std::vector<AggMemberSpec>{m.spec}));
    }
  } else {
    std::vector<AggMemberSpec> specs;
    for (int i = 0; i < num_members(); ++i) {
      const Member& m = members_[i];
      if (sharing_ == Sharing::kShared) {
        RUMOR_CHECK(m.input_slot == members_[0].input_slot)
            << "sα members must read the same stream";
      } else {  // kFragment: member i <-> channel slot i
        RUMOR_CHECK(m.input_slot == i)
            << "cα member " << i << " must read channel slot " << i;
        RUMOR_CHECK(m.spec.Signature() == members_[0].spec.Signature())
            << "cα members must have identical definitions";
      }
      specs.push_back(m.spec);
    }
    engines_.push_back(std::make_unique<SharedAggEngine>(
        std::move(specs), sharing_ == Sharing::kFragment));
  }
  // Channel-mode output is only meaningful when member outputs can carry a
  // shared payload; aggregates emit member-specific values, so members map
  // to singleton memberships in channel mode. We still allow it for wiring
  // uniformity.
}

size_t AggregateMop::log_size() const {
  size_t n = 0;
  for (const auto& e : engines_) {
    if (e != nullptr) n += e->log_size();
  }
  return n;
}

bool AggregateMop::CanAttach(const Member& m) const {
  if (mode_ != OutputMode::kPerMemberPorts) return false;
  // Fragment members correspond to channel slots; a late member has no slot.
  if (sharing_ == Sharing::kFragment) return false;
  // An isolated multi-member m-op has no shared engine to join; a lone
  // isolated member converts in place (its engine *is* a 1-member shared
  // engine).
  if (sharing_ == Sharing::kIsolated &&
      (num_members() != 1 || engines_[0] == nullptr)) {
    return false;
  }
  const Member& first = members_[0];
  return m.input_slot == first.input_slot && m.spec.fn == first.spec.fn &&
         m.spec.attr == first.spec.attr && m.spec.window > 0;
}

AggregateMop::AttachResult AggregateMop::AttachMember(const Member& m) {
  RUMOR_CHECK(CanAttach(m));
  if (sharing_ == Sharing::kIsolated) {
    sharing_ = Sharing::kShared;
    set_type(MopType::kSharedAggregate);
  }
  int slot = engines_[0]->FindInactiveMember();
  if (slot >= 0) {
    members_[slot] = m;
    engines_[0]->ReuseMember(slot, m.spec);
    return {slot, true};
  }
  members_.push_back(m);
  engines_[0]->AddMember(m.spec);
  set_num_outputs(num_outputs() + 1);
  return {num_members() - 1, false};
}

bool AggregateMop::DeactivateMember(int i) {
  RUMOR_DCHECK(i >= 0 && i < num_members());
  if (sharing_ == Sharing::kIsolated) {
    engines_[i].reset();
  } else {
    engines_[0]->DeactivateMember(i);
  }
  return true;
}

bool AggregateMop::member_active(int i) const {
  RUMOR_DCHECK(i >= 0 && i < num_members());
  return sharing_ == Sharing::kIsolated ? engines_[i] != nullptr
                                        : engines_[0]->member_active(i);
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
  if (sharing_ == Sharing::kIsolated) {
    for (int i = 0; i < num_members(); ++i) {
      if (engines_[i] == nullptr) continue;  // deactivated member
      AggEngineState es;
      es.slots = {i};
      engines_[i]->ExtractState(&es);
      out->engines.push_back(std::move(es));
    }
  } else {
    AggEngineState es;
    es.slots.resize(num_members());
    for (int i = 0; i < num_members(); ++i) es.slots[i] = i;
    engines_[0]->ExtractState(&es);
    out->engines.push_back(std::move(es));
  }
  return true;
}

namespace {

// Locates the saved engine and engine-member index serving saved m-op
// member `s`.
bool FindSavedEngineMember(const MopState& src, int s,
                           const AggEngineState** engine, int* idx) {
  for (const AggEngineState& e : src.engines) {
    for (size_t k = 0; k < e.slots.size(); ++k) {
      if (e.slots[k] == s) {
        *engine = &e;
        *idx = static_cast<int>(k);
        return true;
      }
    }
  }
  return false;
}

// Builds one AggEngineState whose engine-member r carries the state of
// `sources[r]` = (saved engine, engine-member index), for restored engines
// whose members were saved across several engines. Entries are merged in
// timestamp order (per member the relative order within its origin engine —
// the FIFO discipline replay depends on — is preserved).
AggEngineState MergeSavedEngines(
    const std::vector<std::pair<const AggEngineState*, int>>& sources) {
  AggEngineState merged;
  const int n = static_cast<int>(sources.size());
  std::vector<const AggEngineState*> engines;
  for (const auto& [e, idx] : sources) {
    if (e != nullptr &&
        std::find(engines.begin(), engines.end(), e) == engines.end()) {
      engines.push_back(e);
    }
  }
  std::vector<size_t> pos(engines.size(), 0);
  for (;;) {
    int best = -1;
    for (size_t k = 0; k < engines.size(); ++k) {
      if (pos[k] >= engines[k]->entries.size()) continue;
      if (best < 0 || engines[k]->entries[pos[k]].ts <
                          engines[best]->entries[pos[best]].ts) {
        best = static_cast<int>(k);
      }
    }
    if (best < 0) break;
    const AggLogEntry& e = engines[best]->entries[pos[best]++];
    AggLogEntry out = e;
    out.membership = BitVector(n);
    for (int r = 0; r < n; ++r) {
      const auto& [src_engine, src_idx] = sources[r];
      if (src_engine == engines[best] && src_idx < e.membership.size() &&
          e.membership.Test(src_idx)) {
        out.membership.Set(r);
      }
    }
    if (out.membership.None()) continue;
    merged.entries.push_back(std::move(out));
  }
  merged.members.resize(n);
  for (int r = 0; r < n; ++r) {
    const auto& [src_engine, src_idx] = sources[r];
    if (src_engine != nullptr &&
        src_idx < static_cast<int>(src_engine->members.size())) {
      merged.members[r].groups = src_engine->members[src_idx].groups;
    }
  }
  return merged;
}

}  // namespace

Status AggregateMop::LoadState(const MopState& src,
                               const MopStateBinding& binding) {
  if (src.kind != MopState::Kind::kAggregate) {
    return Status::Internal("aggregate m-op handed non-aggregate state");
  }
  if (binding.saved_slot.size() != static_cast<size_t>(num_members())) {
    return Status::Internal("aggregate state binding size mismatch");
  }
  if (sharing_ == Sharing::kIsolated) {
    for (int r = 0; r < num_members(); ++r) {
      const int s = binding.saved_slot[r];
      if (s < 0 || engines_[r] == nullptr) continue;
      const AggEngineState* engine = nullptr;
      int idx = -1;
      if (!FindSavedEngineMember(src, s, &engine, &idx)) {
        return Status::InvalidArgument(
            "snapshot lacks saved aggregate state for a matched member");
      }
      RUMOR_RETURN_IF_ERROR(engines_[r]->LoadState(*engine, {idx}));
    }
    return Status::OK();
  }
  if (sharing_ != Sharing::kShared) {
    return Status::Unimplemented(
        "restored plans build isolated or sα aggregates only");
  }
  // Shared engine: resolve every member's saved source, then load in one
  // shot (merging saved engines when the sources are spread across several).
  std::vector<std::pair<const AggEngineState*, int>> sources(
      num_members(), {nullptr, -1});
  const AggEngineState* common = nullptr;
  bool single_engine = true;
  std::vector<int> direct(num_members(), -1);
  for (int r = 0; r < num_members(); ++r) {
    const int s = binding.saved_slot[r];
    if (s < 0) continue;
    const AggEngineState* engine = nullptr;
    int idx = -1;
    if (!FindSavedEngineMember(src, s, &engine, &idx)) {
      return Status::InvalidArgument(
          "snapshot lacks saved aggregate state for a matched member");
    }
    sources[r] = {engine, idx};
    direct[r] = idx;
    if (common == nullptr) common = engine;
    if (engine != common) single_engine = false;
  }
  if (common == nullptr) return Status::OK();  // nothing to restore
  if (single_engine) {
    return engines_[0]->LoadState(*common, direct);
  }
  AggEngineState merged = MergeSavedEngines(sources);
  std::vector<int> identity(num_members());
  for (int r = 0; r < num_members(); ++r) {
    identity[r] = sources[r].first == nullptr ? -1 : r;
  }
  return engines_[0]->LoadState(merged, identity);
}

void AggregateMop::ProcessOne(const ChannelTuple& ct, Emitter& out) {
  if (sharing_ == Sharing::kIsolated) {
    for (int i = 0; i < num_members(); ++i) {
      if (engines_[i] == nullptr) continue;  // deactivated member
      if (!ct.membership.Test(members_[i].input_slot)) continue;
      engines_[i]->Process(ct.tuple, nullptr, [&](int, Tuple result) {
        EmitResult(out, i, std::move(result));
      });
    }
    return;
  }
  auto emit = [&](int member, Tuple result) {
    EmitResult(out, member, std::move(result));
  };
  if (sharing_ == Sharing::kShared) {
    // All members read the same stream: the tuple applies to everyone.
    if (!ct.membership.Test(members_[0].input_slot)) return;
    engines_[0]->Process(ct.tuple, nullptr, emit);
  } else {
    // Fragment mode: member i <-> input slot i.
    RUMOR_DCHECK(ct.membership.size() == num_members());
    engines_[0]->Process(ct.tuple, &ct.membership, emit);
  }
}

}  // namespace rumor
