// Serializable operator-state records for the checkpoint/restore subsystem.
//
// A MopState is a plain-data image of one stateful m-op's runtime state —
// aggregation window logs + group accumulators, join window buffers,
// sequence/iterate partial-match stores. Stateless m-ops (selections,
// projections, predicate indexes, zips) have nothing to save: their members
// are rebuilt from the query definitions on restore.
//
// The saved plan and the restored plan are generally *different* shared
// plans (restore replays the incremental merge, which applies only the
// state-preserving rule subset), so state never moves m-op-to-m-op by id.
// Instead every *member* gets a structural fingerprint (plan/fingerprint.h)
// and state moves member-to-member: a MopStateBinding tells the restored
// m-op, for each of its members, which saved member slot (in which saved
// record) its state comes from.
#ifndef RUMOR_MOP_MOP_STATE_H_
#define RUMOR_MOP_MOP_STATE_H_

#include <cstdint>
#include <vector>

#include "common/bitvector.h"
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
// `slots[i]` is the m-op member index engine-member i serves (so an
// isolated AggregateMop's per-member engines and a shared engine serialize
// through the same record).
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
  // Structural fingerprint of each member slot (0 for inactive slots);
  // filled by the snapshot layer from the saved plan.
  std::vector<uint64_t> member_fps;
  std::vector<char> member_active;
  // True when the saved m-op ran its members against shared state (shared
  // aggregate engine, shared join buffers, channel-membership stores).
  bool shared_state = false;
  // Meaningful with shared_state: true when a stored slot belongs to saved
  // member s iff its membership bit s is set (c⋈, c;/cµ channel stores, and
  // s;/sµ whose all-ones memberships filter trivially). False for s⋈, whose
  // single shared buffer belongs to every member wholesale (matches are
  // routed by window age, not membership).
  bool member_filtered = false;

  // kAggregate: one engine per isolated member, or a single shared engine.
  std::vector<AggEngineState> engines;
  // kJoin: per-member (isolated/precision) or single (shared) side buffers.
  std::vector<BufferState> left;
  std::vector<BufferState> right;
  // kSequence / kIterate: partial-match stores, same per-member convention.
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

}  // namespace rumor

#endif  // RUMOR_MOP_MOP_STATE_H_
