#include "mop/join_mop.h"

#include <algorithm>

#include "mop/mop_state.h"

namespace rumor {

MopType JoinMop::TypeFor(Sharing sharing) {
  switch (sharing) {
    case Sharing::kIsolated: return MopType::kJoin;
    case Sharing::kShared: return MopType::kSharedJoin;
    case Sharing::kPrecision: return MopType::kPrecisionJoin;
  }
  return MopType::kJoin;
}

JoinMop::JoinMop(std::vector<Member> members, Sharing sharing,
                 OutputMode mode)
    : Mop(TypeFor(sharing), /*num_inputs=*/2,
          /*num_outputs=*/mode == OutputMode::kChannel
              ? 1
              : static_cast<int>(members.size())),
      members_(std::move(members)),
      sharing_(sharing),
      mode_(mode) {
  RUMOR_CHECK(!members_.empty());
  RUMOR_CHECK(sharing_ != Sharing::kIsolated || members_.size() == 1)
      << "an isolated ⋈ has one member";
  const Member& first = members_[0];
  program_ = Program::Compile(first.def.predicate);
  shape_ = AnalyzeJoin(first.def.predicate);
  indexed_ = !shape_.equi.empty();
  left_ = KeyedBuffer<StoredTuple>(indexed_);
  right_ = KeyedBuffer<StoredTuple>(indexed_);
  if (sharing_ == Sharing::kIsolated) return;

  // Shared modes: one predicate, one state.
  std::vector<int64_t> left_windows, right_windows;
  for (int i = 0; i < num_members(); ++i) {
    const Member& m = members_[i];
    if (sharing_ == Sharing::kShared) {
      RUMOR_CHECK(ExprEquals(m.def.predicate, first.def.predicate))
          << "s⋈ members must share the join predicate";
      RUMOR_CHECK(m.left_slot == first.left_slot &&
                  m.right_slot == first.right_slot)
          << "s⋈ members must read the same streams";
    } else {
      RUMOR_CHECK(m.def.Signature() == first.def.Signature())
          << "c⋈ members must have identical definitions";
      RUMOR_CHECK(m.left_slot == i && m.right_slot == i)
          << "c⋈ member " << i << " must read channel slot " << i;
    }
    left_windows.push_back(m.def.left_window);
    right_windows.push_back(m.def.right_window);
  }
  left_routing_ = WindowRouting(std::move(left_windows));
  right_routing_ = WindowRouting(std::move(right_windows));
}

bool JoinMop::DeactivateMember(int i) {
  if (sharing_ != Sharing::kShared) return false;
  left_routing_.Deactivate(i);
  right_routing_.Deactivate(i);
  return true;
}

bool JoinMop::SaveState(MopState* out) const {
  out->kind = MopState::Kind::kJoin;
  out->shared_state = sharing_ != Sharing::kIsolated;
  // s⋈ routes matches by window age — its one shared buffer belongs to
  // every member wholesale; c⋈ slots belong to the members in their stored
  // membership.
  out->member_filtered = sharing_ == Sharing::kPrecision;
  const auto tuple_of = [](const StoredTuple& st) -> const Tuple& {
    return st.tuple;
  };
  out->left = {ExtractLiveSlots(left_, tuple_of)};
  out->right = {ExtractLiveSlots(right_, tuple_of)};
  return true;
}

Status JoinMop::LoadState(const MopState& src, const MopStateBinding& binding) {
  if (src.kind != MopState::Kind::kJoin) {
    return Status::Internal("join m-op handed non-join state");
  }
  if (binding.saved_slot.size() != static_cast<size_t>(num_members()) ||
      binding.input_capacities.size() < 2) {
    return Status::Internal("join state binding size mismatch");
  }
  // The isolated member's buffers, the s⋈ m-op's shared ones, or every slot
  // of the c⋈ m-op's. A source buffer can hold tuples outside the restored
  // windows (another saved member's window was wider); that superset is
  // harmless, as ExpireBefore runs ahead of every probe.
  BufferSource source{0, -1};
  if (sharing_ == Sharing::kShared) {
    RUMOR_RETURN_IF_ERROR(SharedBufferSource(src, binding, &source));
  } else if (sharing_ == Sharing::kIsolated) {
    source = BufferSourceOf(src, binding.saved_slot[0]);
  }
  // The stored membership is the one the live path would store: c⋈ keeps
  // the members that held the slot, the others the tuple's slot on the
  // restored input channel.
  const auto load = [&](const std::vector<BufferState>& saved, int port,
                        KeyedBuffer<StoredTuple>* into) {
    const int capacity = binding.input_capacities[port];
    const BitVector slot_bit = BitVector::Singleton(
        port == 0 ? members_[0].left_slot : members_[0].right_slot, capacity);
    return LoadSlots(saved, source, into, [&](const BufferSlotState& slot) {
      return StoredTuple{Tuple::Make(slot.tuple.values, slot.tuple.ts),
                         sharing_ == Sharing::kPrecision
                             ? RestoredMembership(binding, slot, capacity)
                             : slot_bit};
    });
  };
  RUMOR_RETURN_IF_ERROR(load(src.left, 0, &left_));
  return load(src.right, 1, &right_);
}

void JoinMop::EmitMatch(const BitVector& members, const Tuple& left,
                        const Tuple& right, Emitter& out) {
  if (members.None()) return;
  EmitCounted(mode_, members,
              ConcatTuples(left, right, std::max(left.ts(), right.ts())), out);
}

void JoinMop::Process(int input_port, const ChannelTuple& ct, Emitter& out) {
  RUMOR_DCHECK(input_port == 0 || input_port == 1);
  if (sharing_ == Sharing::kIsolated) {
    ProcessIsolated(input_port, ct, out);
  } else {
    ProcessSharedOrPrecision(input_port, ct, out);
  }
}

void JoinMop::ProcessIsolated(int port, const ChannelTuple& ct,
                              Emitter& out) {
  const bool from_left = port == 0;
  const Tuple& t = ct.tuple;
  const Member& m = members_[0];
  if (!ct.membership.Test(from_left ? m.left_slot : m.right_slot)) return;
  KeyedBuffer<StoredTuple>& store = from_left ? left_ : right_;
  KeyedBuffer<StoredTuple>& probe = from_left ? right_ : left_;
  // Partner tuples older than the window cannot match this or any later
  // arrival (timestamps are non-decreasing).
  probe.ExpireBefore(WindowStart(
      t.ts(), from_left ? m.def.right_window : m.def.left_window));

  Value key;
  const Value* key_ptr = nullptr;
  if (indexed_) {
    const EquiPair& ep = shape_.equi[0];
    key = t.at(from_left ? ep.left_attr : ep.right_attr);
    key_ptr = &key;
  }
  probe.ForCandidates(key_ptr, [&](int64_t, auto& slot_ref) {
    const Tuple& other = slot_ref.item.tuple;
    const Tuple& l = from_left ? t : other;
    const Tuple& r = from_left ? other : t;
    ExprContext ctx{&l, &r};
    if (program_.EvalBool(ctx)) EmitMatch(only_member_, l, r, out);
  });
  store.Add(StoredTuple{t, ct.membership}, key, t.ts());
}

void JoinMop::ProcessSharedOrPrecision(int port, const ChannelTuple& ct,
                                       Emitter& out) {
  const bool from_left = port == 0;
  const Tuple& t = ct.tuple;
  KeyedBuffer<StoredTuple>& store = from_left ? left_ : right_;
  KeyedBuffer<StoredTuple>& probe = from_left ? right_ : left_;
  probe.ExpireBefore((from_left ? right_routing_ : left_routing_)
                         .OldestKept(t.ts()));

  Value key;
  const Value* key_ptr = nullptr;
  if (indexed_) {
    const EquiPair& ep = shape_.equi[0];
    key = t.at(from_left ? ep.left_attr : ep.right_attr);
    key_ptr = &key;
  }

  probe.ForCandidates(key_ptr, [&](int64_t, auto& slot_ref) {
    const StoredTuple& stored = slot_ref.item;
    const Tuple& l = from_left ? t : stored.tuple;
    const Tuple& r = from_left ? stored.tuple : t;
    ExprContext ctx{&l, &r};
    if (!program_.EvalBool(ctx)) return;
    if (sharing_ == Sharing::kShared) {
      // The stored tuple must lie inside the member's window for the side
      // it was stored on.
      EmitMatch((from_left ? right_routing_ : left_routing_)
                    .Covering(t.ts(), stored.tuple.ts()),
                l, r, out);
    } else {  // kPrecision: AND of the two membership components
      EmitMatch(stored.membership & ct.membership, l, r, out);
    }
  });
  store.Add(StoredTuple{t, ct.membership}, key, t.ts());
}

}  // namespace rumor
