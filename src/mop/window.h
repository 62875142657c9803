// Shared sliding-window aggregation: SharedAggEngine, the two-level shared
// aggregation state of [Zhang 05] / [Krishnamurthy 06] behind the sα and cα
// m-rules.
//
// One entry log, kept in a ring, serves every member; each member has its
// own expiry cursor, so members may have different windows. Each distinct
// GROUP BY list interns an entry's group key once, to a dense id stored
// beside the entry (GroupKeyTable), and every member keeps its
// COUNT/SUM/AVG running sums in a flat array indexed by that id. MIN/MAX
// use monotone extrema queues per group id: in sα engines all members share
// one queue and a member's answer is the first queue item inside its
// window, so one structure serves every window length (the sharing
// SlideSide [Theodorakis 20] aims at); in cα engines, whose entries carry
// memberships, each member keeps its own queues.
#ifndef RUMOR_MOP_WINDOW_H_
#define RUMOR_MOP_WINDOW_H_

#include <cstdint>
#include <span>
#include <unordered_map>
#include <vector>

#include "common/bitvector.h"
#include "common/ring.h"
#include "common/status.h"
#include "common/tuple.h"
#include "mop/mop_state.h"
#include "query/query.h"

namespace rumor {

// Interns the group keys of one GROUP BY list to dense ids. Every log entry
// holds a reference to its id; an id returns to the free list when its
// last entry leaves the log, so the table is bounded by the groups in the
// log. Keys compare with Value::operator== (an int and an equal double are
// one group) and keep the representation of the tuple that interned them.
class GroupKeyTable {
 public:
  explicit GroupKeyTable(std::vector<int> group_by)
      : group_by_(std::move(group_by)) {}

  const std::vector<int>& group_by() const { return group_by_; }
  // Id of t's group key, interned if new; takes one reference.
  int32_t Acquire(const Tuple& t);
  // Drops one reference to `id`.
  void Release(int32_t id);
  // Id of `key`, or -1 when it is not interned.
  int32_t Find(std::span<const Value> key) const;
  std::span<const Value> key(int32_t id) const { return keys_[id]->first; }
  // Interned keys, and the id range (live plus free ids).
  size_t live() const { return ids_.size(); }
  size_t capacity() const { return keys_.size(); }
  int64_t ApproxBytes() const;

 private:
  struct KeyHash {
    size_t operator()(const std::vector<Value>& key) const;
  };
  struct Slot {
    int32_t id = -1;
    int64_t refs = 0;
  };
  using Map = std::unordered_map<std::vector<Value>, Slot, KeyHash>;

  std::vector<int> group_by_;
  std::vector<Value> scratch_;  // the key being acquired
  Map ids_;
  std::vector<Map::value_type*> keys_;  // by id; null = free
  std::vector<int32_t> free_;
};

// Per-member aggregate specification. All members of one engine must share
// the aggregate function and input attribute; group-by and window may
// differ (rule sα), and entries may apply to member subsets (rule cα).
struct AggMemberSpec {
  AggFn fn = AggFn::kCount;
  int attr = -1;  // -1 for COUNT
  std::vector<int> group_by;
  int64_t window = 0;

  uint64_t Signature() const;
};

class SharedAggEngine {
 public:
  // `fragment` marks a cα engine: every tuple comes with the subset of
  // members it belongs to. Otherwise (sα and isolated engines) every tuple
  // belongs to every active member.
  explicit SharedAggEngine(std::vector<AggMemberSpec> members,
                           bool fragment = false);

  // Processes tuple `t` on behalf of the members in `membership` (size =
  // #members; null = every member, the only form non-fragment engines
  // take). For each such member, updates its state and calls
  // emit(member, output) with output = (group values..., aggregate).
  // Window semantics: at emission time ts, member m aggregates entries with
  // entry.ts in (ts - window, ts]. Timestamps must not decrease.
  template <typename Emit>
  void Process(const Tuple& t, const BitVector* membership, Emit&& emit) {
    Append(t, membership);
    for (int m = 0; m < num_members(); ++m) {
      Value result;
      if (!Step(m, t.ts(), membership, &result)) continue;
      const std::vector<int>& group_by = members_[m].group_by;
      Value* out;
      Tuple row = Tuple::MakeUninit(group_by.size() + 1, t.ts(), &out);
      for (size_t i = 0; i < group_by.size(); ++i) out[i] = t.at(group_by[i]);
      out[group_by.size()] = result;
      emit(m, std::move(row));
    }
    Trim();
  }

  int num_members() const { return static_cast<int>(members_.size()); }
  // Number of entries currently retained in the shared log.
  size_t log_size() const { return log_.size(); }
  // Number of groups with entries in `member`'s window.
  size_t group_count(int member) const;
  // Number of interned group keys, over all GROUP BY lists.
  size_t key_count() const;
  // Approximate heap bytes of the log, the key tables and id arrays, the
  // accumulators and the extrema queues.
  int64_t ApproxBytes() const;

  // --- dynamic membership (online query churn) -------------------------------
  // Adds a member sharing this engine's fn/attr (group-by and window may
  // differ). The caller guarantees the new member reads the same stream as
  // the existing members (kShared / single-member-isolated discipline, where
  // every log entry applies to every member). The member's state is
  // backfilled from the retained log — entries within its window are applied
  // as if the member had been present when they arrived — so it starts warm
  // up to the log's retention horizon. Returns the number of backfilled
  // entries.
  int AddMember(const AggMemberSpec& spec);

  // Deactivates a member (its query was removed): releases its state,
  // parks its expiry cursor, and skips it on future input. The member index
  // stays valid so other members' indices do not shift, and the slot can be
  // reused by a later ReuseMember — add/remove churn does not grow the
  // member set without bound.
  void DeactivateMember(int member);
  bool member_active(int member) const { return states_[member].active; }
  // Index of a deactivated member slot, or -1.
  int FindInactiveMember() const;
  // Re-arms the deactivated slot `member` with a (possibly different) spec
  // under the same fn/attr discipline as AddMember, backfilling its state
  // from the retained log. Returns the number of backfilled entries.
  int ReuseMember(int member, const AggMemberSpec& spec);

  // --- checkpoint/restore ---------------------------------------------------
  // Serializes the retained log and per-member group accumulators into
  // `out` (slots are left for the caller). Entry memberships are
  // *normalized*: bits of members whose expiry cursor already passed an
  // entry are cleared, so each member's cursor is recoverable as the index
  // of its first set bit — which also makes per-shard logs mergeable by a
  // plain timestamp merge. Group numerics are saved bit-exactly.
  void ExtractState(AggEngineState* out) const;

  // Loads `state` into this freshly constructed (empty) engine.
  // `src_members[r]` names the saved engine-member index whose state
  // restored member r inherits (-1 = start empty). Entries are re-logged in
  // saved order, which rebuilds the key tables and extrema queues, and each
  // member's entries are replayed to cross-check the saved per-group
  // counts; the saved accumulator numerics are then adopted verbatim.
  Status LoadState(const AggEngineState& state,
                   const std::vector<int>& src_members);

 private:
  struct Entry {
    Tuple tuple;  // the input tuple; its ts is the entry's
    Value value;  // aggregated attribute (null for COUNT)
  };
  // Running aggregates of one (member, group). Sums run in arrival and
  // expiry order, so double results match the member running alone.
  struct Acc {
    int64_t count = 0;
    int64_t isum = 0;
    double dsum = 0.0;
    int64_t double_count = 0;
  };
  struct MemberState {
    int64_t cursor = 0;  // absolute index of first non-expired entry
    int table = 0;       // GroupKeyTable of the member's GROUP BY list
    bool active = true;
    std::vector<Acc> acc;  // by group id
  };
  // One monotone-queue item: an entry no later entry beats.
  struct Extremum {
    int64_t abs = 0;
    Value value;
  };
  using ExtremaQueue = Ring<Extremum>;

  int64_t end() const { return base_ + static_cast<int64_t>(log_.size()); }
  const Entry& entry(int64_t abs) const { return log_[abs - base_]; }
  int32_t id(int64_t abs, int table) const {
    return ids_[(abs - base_) * tables_.size() + table];
  }
  // Entries below explicit_until_ carry a membership vector; the others
  // belong to every member from its cursor on.
  bool filtered() const { return base_ < explicit_until_; }
  bool Has(int member, int64_t abs) const {
    if (abs >= explicit_until_) return true;
    const BitVector& bits = memberships_[abs - base_];
    return member < bits.size() && bits.Test(member);
  }

  void Append(const Tuple& t, const BitVector* membership);
  // Expires member m's entries older than its window, then applies the
  // newest entry and writes the aggregate when m takes it.
  bool Step(int m, Timestamp now, const BitVector* membership,
            Value* result);
  void Apply(MemberState& st, int64_t abs, int sign);
  Value Extract(int m, int32_t id) const;
  void PushExtremum(int64_t abs);
  void RebuildQueues();
  // Drops log entries every member's cursor has passed.
  void Trim();
  int TableFor(const std::vector<int>& group_by);
  // Applies the retained in-window log entries to the (empty) state of
  // member `m` and positions its cursor; shared by AddMember/ReuseMember.
  int Backfill(int m);

  std::vector<AggMemberSpec> members_;
  std::vector<MemberState> states_;
  std::vector<GroupKeyTable> tables_;
  Ring<Entry> log_;
  Ring<int32_t> ids_;  // tables_.size() group ids per log entry
  Ring<BitVector> memberships_;  // entries below explicit_until_
  int64_t base_ = 0;             // absolute index of log_[0]
  int64_t explicit_until_ = 0;
  const bool fragment_;
  const bool extrema_;  // MIN/MAX
  const bool is_min_;
  // [owner][group id]: owners are the members while filtered(), the key
  // tables otherwise.
  std::vector<std::vector<ExtremaQueue>> queues_;
};

}  // namespace rumor

#endif  // RUMOR_MOP_WINDOW_H_
