// Plan-level operator-state snapshots (the kState section of an engine
// checkpoint, see common/snapshot_io.h).
//
// Save side: walk the live m-ops of one plan (one shard replica), collect
// each stateful m-op's MopState tagged with the structural fingerprints of
// its members (plan/fingerprint.h), and serialize the records into one
// section payload.
//
// Restore side: the restored engine re-parses the saved query texts and
// runs the batch Optimize over them at Start(), which can produce a
// different shared plan (queries added live were merged incrementally).
// LoadPlanState matches saved members to restored members by fingerprint
// (FIFO in occurrence order among equal fingerprints — equal fingerprints
// imply identical state content, so ties are interchangeable)
// and applies Mop::LoadState with the resulting bindings. A sharded
// checkpoint is first collapsed by MergeShardStates into one logical image;
// restore onto n shards loads into each replica only the part of the image
// that shard's routes own (StateOnShard, plan/shard.h): a pinned m-op's
// state on its shard, keyed state by the hash of its key.
#ifndef RUMOR_PLAN_STATE_SNAPSHOT_H_
#define RUMOR_PLAN_STATE_SNAPSHOT_H_

#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "mop/mop_state.h"
#include "plan/plan.h"
#include "plan/shard.h"

namespace rumor {

// Serializes the operator state of every stateful live m-op of `plan` into
// a kState section payload. The plan must be quiescent.
Result<std::string> SavePlanState(const Plan& plan);

// Decodes a kState payload produced by SavePlanState. Any truncation or
// malformed field yields an error and `out` is left untouched.
Status ParsePlanState(std::string_view payload, std::vector<MopState>* out);

// Merges the per-shard state images of one checkpoint (identical plan
// replicas, key-partitioned state) into a single logical image: window logs
// and buffers are timestamp-merged (shard index breaks ties), aggregation
// groups are unioned (accumulators of a key present on several shards are
// summed). Fails if the images disagree structurally.
Result<std::vector<MopState>> MergeShardStates(
    std::vector<std::vector<MopState>> shards);

// Applies a saved state image onto a freshly rebuilt (empty) plan. Fails —
// without touching any state — if the match is inconsistent: a restored
// stateful member with no saved source, saved state no restored member
// consumes, or mismatched operator kinds. With `sharding` over several
// shards, `plan` is the replica of shard `shard` and loads only what that
// shard owns; otherwise it loads the whole image.
Status LoadPlanState(Plan& plan, const std::vector<MopState>& saved,
                     const ShardPlan* sharding = nullptr, int shard = 0);

}  // namespace rumor

#endif  // RUMOR_PLAN_STATE_SNAPSHOT_H_
