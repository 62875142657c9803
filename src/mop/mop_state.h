// Serializable operator-state records for the checkpoint/restore subsystem.
//
// A MopState is a plain-data image of one stateful m-op's runtime state —
// aggregation window logs + group accumulators, join window buffers,
// sequence/iterate partial-match stores. Stateless m-ops (selections,
// projections, predicate indexes, zips) have nothing to save: their members
// are rebuilt from the query definitions on restore.
//
// The saved plan and the restored plan can be *different* shared plans
// (restore re-adds every saved query before Start(), whose batch Optimize
// merges queries that live adds left unshared), so state never moves
// m-op-to-m-op by id. Instead every *member* gets a structural fingerprint
// (plan/fingerprint.h) and state moves member-to-member: a MopStateBinding
// tells the restored m-op, for each of its members, which saved member slot
// (in which saved record) its state comes from.
#ifndef RUMOR_MOP_MOP_STATE_H_
#define RUMOR_MOP_MOP_STATE_H_

#include <cstdint>
#include <vector>

#include "common/bitvector.h"
#include "common/status.h"
#include "common/tuple.h"
#include "common/value.h"

namespace rumor {

// A tuple detached from any TupleArena: timestamp + payload values. At load
// time the values are re-materialized with Tuple::Make on the restoring
// thread (arenas are thread-affine).
struct StateTuple {
  Timestamp ts = 0;
  std::vector<Value> values;
};

// One entry of a SharedAggEngine window log. `membership` is normalized at
// save time: bits of members whose cursor already passed the entry are
// cleared, so each member's cursor is recoverable as its first set bit.
struct AggLogEntry {
  Timestamp ts = 0;
  Value value;       // pre-extracted aggregand
  StateTuple tuple;  // original tuple (group-by key re-derivation)
  BitVector membership;
};

// Accumulators of one (member, group-key) pair. Numerics are saved
// bit-exactly (dsum travels as raw IEEE-754 bits) so restored running sums
// match the uninterrupted run to the last bit; MIN/MAX extrema queues are
// rebuilt by replaying the log entries at/after the cursor.
struct AggGroupState {
  std::vector<Value> key;
  int64_t count = 0;
  int64_t isum = 0;
  int64_t double_count = 0;
  double dsum = 0;
};

struct AggMemberState {
  int64_t cursor = 0;  // offset into AggEngineState::entries
  std::vector<AggGroupState> groups;
};

// One SharedAggEngine: the shared window log plus per-member state.
// `slots[i]` is the m-op member index engine-member i serves.
struct AggEngineState {
  std::vector<int> slots;
  std::vector<AggLogEntry> entries;
  std::vector<AggMemberState> members;
};

// One live slot of a KeyedBuffer (join window side, sequence/iterate
// partial-match store), in timestamp order.
struct BufferSlotState {
  Timestamp ts = 0;
  Value key;
  StateTuple tuple;
  BitVector membership;
};

struct BufferState {
  std::vector<BufferSlotState> slots;
};

// The full saved state of one stateful m-op.
struct MopState {
  enum class Kind : uint8_t {
    kAggregate = 1,
    kJoin = 2,
    kSequence = 3,
    kIterate = 4,
  };
  Kind kind = Kind::kAggregate;
  // Structural fingerprint of each member slot (0 for a slot no query
  // output reaches, or an inactive one) and whether the slot is active
  // (Mop::member_active); filled by the snapshot layer from the saved plan,
  // not by SaveState.
  std::vector<uint64_t> member_fps;
  std::vector<char> member_active;
  // True when the saved m-op ran its members against shared state (shared
  // aggregate engine, shared join buffers, channel-membership stores).
  bool shared_state = false;
  // Meaningful with shared_state: true when a stored slot belongs to saved
  // member s iff its membership bit s is set (c⋈, c;/cµ channel stores).
  // False for s⋈, s; and sµ, whose single shared buffer belongs to every
  // member wholesale (matches are routed by window age, not membership).
  bool member_filtered = false;

  // kAggregate: the m-op's one engine (a record with more does not load).
  std::vector<AggEngineState> engines;
  // kJoin: the m-op's one pair of side buffers.
  std::vector<BufferState> left;
  std::vector<BufferState> right;
  // kSequence / kIterate: the m-op's one partial-match store.
  std::vector<BufferState> stores;
};

// Serializes the live slots of a KeyedBuffer in timestamp order;
// `tuple_of(item)` names the Tuple carried by the stored item (a join's
// stored tuple, a sequence instance's start, an iterate instance's concat).
// The stored tuple's own timestamp rides along — for µ instances it differs
// from the slot timestamp (rebinds advance it; the slot keeps the start ts).
template <typename Buffer, typename GetTuple>
BufferState ExtractLiveSlots(const Buffer& buffer, const GetTuple& tuple_of) {
  BufferState out;
  buffer.ForAllLive([&](const auto& slot) {
    BufferSlotState s;
    s.ts = slot.ts;
    s.key = slot.key;
    const auto& t = tuple_of(slot.item);
    s.tuple.ts = t.ts();
    s.tuple.values.assign(t.values().begin(), t.values().end());
    s.membership = slot.item.membership;
    out.slots.push_back(std::move(s));
  });
  return out;
}

inline bool StateSlotHasMember(const BufferSlotState& slot, int member) {
  return member < slot.membership.size() && slot.membership.Test(member);
}

// Tells a restored m-op where each of its members' state lives.
struct MopStateBinding {
  const MopState* src = nullptr;
  // For restored member r: the saved member slot whose state it inherits,
  // or -1 for a member with no saved state (e.g. added after the
  // checkpoint — impossible today, but the contract allows it).
  std::vector<int> saved_slot;
  // Capacity of the channel wired to each input port of the restored m-op;
  // needed to rebuild stored membership vectors of the restored plan.
  std::vector<int> input_capacities;
};

// Where the state of one restored KeyedBuffer lives in a saved record: the
// index of the saved buffer (-1: none) and the membership bit its slots are
// filtered by (-1: every slot).
struct BufferSource {
  int buffer = -1;
  int bit = -1;
  bool operator==(const BufferSource&) const = default;
};

// Every record holds one buffer of each kind (an unmerged m-op has one
// member); a member-filtered record's slots belong to the members in their
// stored membership.
inline BufferSource BufferSourceOf(const MopState& src, int saved_slot) {
  if (saved_slot < 0) return {};
  return {0, src.member_filtered ? saved_slot : -1};
}

// The one source of a restored s⋈/s;/sµ buffer, which all of the m-op's
// members read. Fails when their saved state is filtered by different
// members of a member-filtered record: one buffer cannot hold several
// members' slot sets.
inline Status SharedBufferSource(const MopState& src,
                                 const MopStateBinding& binding,
                                 BufferSource* out) {
  *out = {};
  for (int s : binding.saved_slot) {
    const BufferSource b = BufferSourceOf(src, s);
    if (b.buffer < 0) continue;
    if (out->buffer >= 0 && !(b == *out)) {
      return Status::Unimplemented(
          "members of a restored shared m-op draw state from several saved "
          "buffers");
    }
    *out = b;
  }
  return Status::OK();
}

// The stored membership of a saved slot in a restored c⋈, c; or cµ, whose
// member r reads slot r of a `capacity`-slot input channel: bit r is set
// when the slot held saved member binding.saved_slot[r], which every slot
// of a record that is not member-filtered does.
inline BitVector RestoredMembership(const MopStateBinding& binding,
                                    const BufferSlotState& slot,
                                    int capacity) {
  BitVector out(capacity);
  for (size_t r = 0; r < binding.saved_slot.size(); ++r) {
    const int s = binding.saved_slot[r];
    if (s >= 0 && (!binding.src->member_filtered ||
                   StateSlotHasMember(slot, s))) {
      out.Set(static_cast<int>(r));
    }
  }
  return out;
}

// Adds the slots of `source` among `saved` to `into` in timestamp order;
// make(slot) builds the stored item.
template <typename Buffer, typename Make>
Status LoadSlots(const std::vector<BufferState>& saved, BufferSource source,
                 Buffer* into, const Make& make) {
  if (source.buffer < 0) return Status::OK();
  if (source.buffer >= static_cast<int>(saved.size())) {
    return Status::InvalidArgument(
        "snapshot lacks the saved buffer of a restored member");
  }
  for (const BufferSlotState& slot : saved[source.buffer].slots) {
    if (source.bit >= 0 && !StateSlotHasMember(slot, source.bit)) continue;
    into->Add(make(slot), slot.key, slot.ts);
  }
  return Status::OK();
}

}  // namespace rumor

#endif  // RUMOR_MOP_MOP_STATE_H_
