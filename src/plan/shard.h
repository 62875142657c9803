// Shard analysis: how to split a shared plan's *input streams* across N
// identical plan replicas so that per-shard execution is equivalent to
// single-threaded execution.
//
// Stateless m-ops (σ/sσ/π and their channel forms) are pure per-tuple
// functions — replicating them per shard is always correct, any tuple may go
// to any shard. Stateful m-ops (join/sequence/aggregate windows) constrain
// routing: two tuples that can interact through shared state must land on
// the same shard. AnalyzeSharding derives, per source stream, one of:
//
//  * kAny    — no stateful constraint reaches the stream; tuples are
//              round-robined (deterministically) across shards.
//  * kKey    — every stateful constraint is satisfied by hash-partitioning
//              on one attribute (an aggregate's leading group-by column, a
//              join/sequence equi-key) traced back through the stateless
//              prefix to this source attribute. Tuples with equal key values
//              — the only ones that can interact — hash to the same shard.
//  * kPinned — some constraint is unkeyed (aggregate without GROUP BY, a
//              cross join, µ/zip state) or two constraints demand different
//              keys of the same source. The degenerate form of
//              "replicate-and-filter": the whole co-location component runs
//              on one shard (literally replicating the stateful work on all
//              shards would duplicate both state and outputs). Different
//              pinned components still spread across shards.
//
// Constraints compose through a union-find over sources: all sources
// feeding one stateful m-op member form one co-location component (a join's
// two sides must agree shard-wise per key value, and pinning is only correct
// component-wide), and attribute provenance is traced backward through
// stateless operators — including through keyed joins/aggregates, so an
// aggregate over a join output keyed on the join key stays partitionable.
//
// The same analysis places each stateful m-op's *state*: a restored engine
// loads into each replica only what that shard's routes would have built
// there (StateOnShard), so no state sits on a shard that never sees its
// tuples, and a later checkpoint saves each entry once.
#ifndef RUMOR_PLAN_SHARD_H_
#define RUMOR_PLAN_SHARD_H_

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/value.h"
#include "mop/mop_state.h"
#include "plan/plan.h"

namespace rumor {

enum class RouteMode : uint8_t { kAny, kKey, kPinned };

struct StreamRoute {
  RouteMode mode = RouteMode::kAny;
  int key_attr = -1;     // kKey: attribute hashed to pick the shard
  int pinned_shard = 0;  // kPinned: fixed shard of the component
};

// Where one stateful m-op's state lives: keyed state on the shard its key
// hashes to, as ShardOfTuple routes the tuples that built it, and the state
// of a pinned component on that component's shard.
struct StatePlacement {
  RouteMode mode = RouteMode::kPinned;  // kKey or kPinned
  int pinned_shard = 0;  // kPinned; also where a keyed item without a key goes
  // A keyed aggregate's leading GROUP BY column, which its log entries'
  // tuples are hashed on (its groups hash their leading key value, and ⋈
  // and ; slots their stored equi-key).
  int key_column = -1;
};

// Per-source routing decisions for one (plan, num_shards) pair.
struct ShardPlan {
  int num_shards = 1;
  // Dense by StreamId; entries of non-source streams are defaulted (kAny)
  // and never consulted.
  std::vector<StreamRoute> routes;
  // Dense by MopId; meaningful for the stateful live m-ops only.
  std::vector<StatePlacement> state;
  int keyed_sources = 0;
  int pinned_sources = 0;
  int pinned_components = 0;

  std::string ToString(const Plan& plan) const;
};

// Derives the routing table from the plan's stateful m-ops (see file
// comment). Deterministic: the same plan, shard count and `previous` always
// produce the same table. `num_shards` must be >= 1.
//
// `previous` is the table a running engine routes by. A source it keys or
// pins that still feeds a stateful m-op of `plan` has state on the shards
// that route chose, so the source keeps its route, and its component keeps
// it with it: pinned to that shard, or keyed on the same attributes. Where
// the plan now needs another route for such a source (a live add co-locates
// it differently), the analysis fails with Unimplemented instead of
// stranding the state. A source that feeds no state any more (its stateful
// queries were removed) is routed afresh.
Result<ShardPlan> AnalyzeSharding(const Plan& plan, int num_shards,
                                  const ShardPlan* previous = nullptr);

// Picks the shard of one tuple. `rr` is the caller-owned round-robin cursor
// of this stream (advanced for kAny routes). Value::Hash is consistent with
// operator== across numeric representations, so a join's two sides agree on
// the shard of equal key values even when one side carries ints and the
// other doubles.
inline int ShardOfTuple(const StreamRoute& r, std::span<const Value> values,
                        uint64_t* rr, int num_shards) {
  switch (r.mode) {
    case RouteMode::kKey:
      return static_cast<int>(values[r.key_attr].Hash() %
                              static_cast<uint64_t>(num_shards));
    case RouteMode::kPinned:
      return r.pinned_shard;
    case RouteMode::kAny:
      break;
  }
  return static_cast<int>((*rr)++ % static_cast<uint64_t>(num_shards));
}

// The part of `state`, saved state of an m-op that `placement` places, that
// shard `shard` of `num_shards` owns: the log entries, groups and buffer
// slots whose key hashes there, or all of it on a pinned m-op's shard and
// none elsewhere. The record's layout (member fingerprints, engines,
// buffers) is kept whole, so it loads like the full record.
MopState StateOnShard(const MopState& state, const StatePlacement& placement,
                      int shard, int num_shards);

}  // namespace rumor

#endif  // RUMOR_PLAN_SHARD_H_
