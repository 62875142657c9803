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
  if (sharing_ == Sharing::kIsolated) {
    for (int i = 0; i < num_members(); ++i) {
      self_.push_back(BitVector::Singleton(i, num_members()));
    }
    return;
  }
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

void PatternMop::AddStore(JoinShape shape) {
  stores_.push_back(std::make_unique<Store>(!shape.equi.empty()));
  shapes_.push_back(std::move(shape));
}

void PatternMop::AddInstance(int k, Tuple tuple, BitVector membership) {
  Value key;
  if (!shapes_[k].equi.empty()) key = tuple.at(shapes_[k].equi[0].left_attr);
  const Timestamp start = tuple.ts();
  stores_[k]->Add(Instance{std::move(tuple), std::move(membership)}, key,
                  start);
}

Timestamp PatternMop::OldestKept(int k, Timestamp now) const {
  if (sharing_ == Sharing::kShared) return routing_.OldestKept(now);
  const int64_t window = wiring_[k].window;
  return window > 0 ? now - window : std::numeric_limits<Timestamp>::min();
}

bool PatternMop::DeactivateMember(int i) {
  if (sharing_ != Sharing::kShared) return false;
  routing_.Deactivate(i);
  return true;
}

size_t PatternMop::instance_count() const {
  size_t n = 0;
  for (const auto& s : stores_) n += s->live_size();
  return n;
}

int64_t PatternMop::StateBytes() const {
  int64_t b = 0;
  for (const auto& s : stores_) b += s->ApproxBytes();
  return b;
}

bool PatternMop::SaveState(MopState* out) const {
  out->kind = kind_;
  out->shared_state = sharing_ != Sharing::kIsolated;
  // c;/cµ instances carry channel memberships (bit s selects saved member
  // s's instances); the s;/sµ store belongs to every member wholesale.
  out->member_filtered = sharing_ == Sharing::kChannel;
  out->stores.clear();
  for (const auto& store : stores_) {
    // The slot keeps the start timestamp; the instance tuple's own (which µ
    // rebinds advance) travels inside the tuple record.
    out->stores.push_back(ExtractLiveSlots(
        *store, [](const Instance& inst) -> const Tuple& {
          return inst.tuple;
        }));
  }
  return true;
}

Status PatternMop::LoadState(const MopState& src,
                             const MopStateBinding& binding) {
  if (src.kind != kind_) {
    return Status::Internal(
        StrCat("m-op ", name(), " handed another kind's state"));
  }
  if (sharing_ == Sharing::kChannel) {
    return Status::Unimplemented(StrCat(
        "restored plans build no ", name(),
        " (channel rules are batch rules over channels)"));
  }
  if (binding.saved_slot.size() != static_cast<size_t>(num_members())) {
    return Status::Internal(StrCat(name(), " state binding size mismatch"));
  }
  const auto make = [](const BufferSlotState& slot) {
    return Instance{Tuple::Make(slot.tuple.values, slot.tuple.ts),
                    BitVector()};
  };
  if (sharing_ == Sharing::kShared) {
    BufferSource source;
    RUMOR_RETURN_IF_ERROR(SharedBufferSource(src, binding, &source));
    return LoadSlots(src.stores, source, stores_[0].get(), make);
  }
  for (int r = 0; r < num_members(); ++r) {
    RUMOR_RETURN_IF_ERROR(
        LoadSlots(src.stores, BufferSourceOf(src, binding.saved_slot[r]),
                  stores_[r].get(), make));
  }
  return Status::OK();
}

}  // namespace rumor
