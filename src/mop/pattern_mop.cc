#include "mop/pattern_mop.h"

#include <limits>

#include "common/str_util.h"

namespace rumor {

PatternMop::PatternMop(MopType type, MopState::Kind kind, Sharing sharing,
                       OutputMode mode, std::vector<Wiring> wiring)
    : Mop(type, /*num_inputs=*/2,
          /*num_outputs=*/mode == OutputMode::kChannel
              ? 1
              : static_cast<int>(wiring.size())),
      mode_(mode),
      kind_(kind),
      sharing_(sharing),
      wiring_(std::move(wiring)) {
  RUMOR_CHECK(!wiring_.empty());
  RUMOR_CHECK(sharing_ != Sharing::kIsolated || wiring_.size() == 1)
      << "an isolated " << MopTypeName(type) << " has one member";
  if (sharing_ == Sharing::kIsolated) return;
  std::vector<int64_t> windows;
  for (int i = 0; i < num_members(); ++i) {
    const Wiring& w = wiring_[i];
    RUMOR_CHECK(w.right_slot == wiring_[0].right_slot)
        << MopTypeName(type) << " members must read the same right stream";
    if (sharing_ == Sharing::kShared) {
      RUMOR_CHECK(w.left_slot == wiring_[0].left_slot)
          << MopTypeName(type) << " members must read the same left stream";
      windows.push_back(w.window > 0 ? w.window : WindowRouting::kUnbounded);
    } else {
      RUMOR_CHECK(w.left_slot == i) << MopTypeName(type) << " member " << i
                                    << " must read left channel slot " << i;
    }
  }
  if (sharing_ == Sharing::kShared) {
    routing_ = WindowRouting(std::move(windows));
  }
}

Timestamp PatternMop::OldestKept(Timestamp now) const {
  if (sharing_ == Sharing::kShared) return routing_.OldestKept(now);
  const int64_t window = wiring_[0].window;
  return window > 0 ? WindowStart(now, window)
                    : std::numeric_limits<Timestamp>::min();
}

bool PatternMop::DeactivateMember(int i) {
  if (sharing_ != Sharing::kShared) return false;
  routing_.Deactivate(i);
  return true;
}

int64_t PatternMop::StateBytes() const { return store_.ApproxBytes(); }

bool PatternMop::SaveState(MopState* out) const {
  out->kind = kind_;
  out->shared_state = sharing_ != Sharing::kIsolated;
  // c;/cµ instances carry channel memberships (bit s selects saved member
  // s's instances); the s;/sµ store belongs to every member wholesale.
  out->member_filtered = sharing_ == Sharing::kChannel;
  // The slot keeps the start timestamp; the instance tuple's own (which µ
  // rebinds advance) travels inside the tuple record.
  out->stores = {ExtractLiveSlots(
      store_, [](const Instance& inst) -> const Tuple& { return inst.tuple; })};
  return true;
}

Status PatternMop::LoadState(const MopState& src,
                             const MopStateBinding& binding) {
  if (src.kind != kind_) {
    return Status::Internal(
        StrCat("m-op ", name(), " handed another kind's state"));
  }
  if (binding.saved_slot.size() != static_cast<size_t>(num_members()) ||
      binding.input_capacities.empty()) {
    return Status::Internal(StrCat(name(), " state binding size mismatch"));
  }
  // c;/cµ instances carry the members that held them (member i reads slot
  // i of the left channel); the others' carry none.
  const int capacity = binding.input_capacities[0];
  const auto make = [&](const BufferSlotState& slot) {
    return Instance{Tuple::Make(slot.tuple.values, slot.tuple.ts),
                    sharing_ == Sharing::kChannel
                        ? RestoredMembership(binding, slot, capacity)
                        : BitVector()};
  };
  BufferSource source{0, -1};
  if (sharing_ == Sharing::kShared) {
    RUMOR_RETURN_IF_ERROR(SharedBufferSource(src, binding, &source));
  } else if (sharing_ == Sharing::kIsolated) {
    source = BufferSourceOf(src, binding.saved_slot[0]);
  }
  return LoadSlots(src.stores, source, &store_, make);
}

}  // namespace rumor
