// Incremental m-rule application for online query churn (paper §2.3, §7):
// because m-rules are local condition/action pairs, a freshly compiled query
// can be merged into an already-optimized *running* plan without re-searching
// the whole space — and, crucially, without disturbing the state of warm
// shared operators.
//
// MergeNewQueryIndexed runs the state-preserving subset of the rule
// catalogue after new m-ops were compiled into a live plan:
//   * CSE — a new m-op identical to an existing one (same definition, same
//     input channels) is absorbed by it; the existing m-op always wins, so
//     the new query inherits its warm state (window contents, join buffers).
//     A new single-member m-op identical to a member of a shared m-op
//     (sσ, sα, s⋈, s;, sµ) reuses that member's output port.
//   * sσ attach — a new selection snaps onto an existing predicate-index
//     m-op on the same stream (selections are stateless; always safe).
//   * sσ — leftover single selections form new predicate indexes.
//   * sα attach — a new aggregate joins an existing shared-aggregation
//     engine on the same stream with the same fn/attr (windows and group-bys
//     may differ); its state is backfilled from the engine's retained log,
//     so it starts warm up to the log's retention horizon.
//
// The c-family rules are *not* applied incrementally: they rebuild producers
// in channel-output mode, which would discard warm operator state. The s⋈
// rule is likewise skipped live (merging would re-create join state). New
// queries that would only share through those rules run unshared — correct,
// just less shared than a restart would be.
//
// Share points are found by probing the persistent ShareIndex for each
// fresh m-op (O(1) hash lookups instead of plan scans); candidates apply
// greedily in cost-benefit order (largest estimated saved work first; the
// benefit tiers encode rule precedence, so the greedy order refines — never
// contradicts — the fixed rule order). This is what makes AddQuery
// flat-latency out to 10^5..10^6 standing queries. A scan-based
// implementation of the same merge lives in tests/ as the oracle the
// equivalence fuzz compares against.
//
// PruneUnreachable implements the removal half, the local inverse of an
// attach: one backward output-reach pass (Plan::ComputeOutputReach) drives
// teardown of exactly the operators no surviving query reaches, every
// shared m-op with one output port per member deactivates the members only
// removed queries used (keeping their slots and ports for a later attach),
// and RemoveMop collects the channels the teardown orphans. Nothing a
// surviving query shares is rebuilt.
#ifndef RUMOR_RULES_INCREMENTAL_H_
#define RUMOR_RULES_INCREMENTAL_H_

#include "plan/plan.h"
#include "rules/rule_engine.h"
#include "rules/share_index.h"

namespace rumor {

struct IncrementalMergeStats {
  int cse_merges = 0;     // new m-ops absorbed by identical warm m-ops
  int attach_merges = 0;  // members attached to warm sσ/sα targets
  int rule_merges = 0;    // stateless rule merges among leftover m-ops

  int total() const { return cse_merges + attach_merges + rule_merges; }
};

// Merges the fresh m-ops (live ids >= first_fresh, i.e. the plan's
// num_mops() recorded before the new query compiled) into the live plan
// (see file comment). Safe to run on a plan whose m-ops hold runtime state;
// existing operators keep their state and their output wiring. Per round:
// syncs the index, probes every fresh m-op (O(1) each), sorts the
// candidates by descending benefit (ties: lowest fresh id first) and
// applies them greedily, re-probing each at apply time so earlier merges in
// the batch invalidate or improve later ones. Rounds repeat while merges
// cascade (a merged σ exposes the α above it), up to kMaxRuleRounds.
// O(fresh) per add instead of O(plan).
IncrementalMergeStats MergeNewQueryIndexed(Plan* plan, ShareIndex* index,
                                           MopId first_fresh,
                                           const OptimizerOptions& options);

// The sσ/sα attach, which the scan oracle applies too: the fresh σ or α
// becomes a member of the per-member-ports index or aggregate `target`, in
// its lowest inactive slot (whose channel takes over the fresh consumers
// and output marks) or a new port bound to the fresh output channel, and
// `fresh` goes. Returns false, changing nothing, if `target` cannot absorb
// it.
bool AttachFreshMember(Plan* plan, MopId fresh, MopId target);

struct PruneStats {
  int removed_mops = 0;         // m-ops no surviving query reaches
  int deactivated_members = 0;  // sσ, sα/cα, s⋈, s;, sµ members deactivated
};

// Tears down everything no surviving query output reaches. Call after
// Plan::UnmarkOutput removed a query's output mark.
PruneStats PruneUnreachable(Plan* plan);

}  // namespace rumor

#endif  // RUMOR_RULES_INCREMENTAL_H_
