// The scan-based live merge: the oracle MergeNewQueryIndexed is tested
// against. It applies the same state-preserving rule phases to the fresh
// m-ops of a live plan, but finds every share point by rescanning all live
// m-ops (O(plan) per add) instead of probing the ShareIndex. Each phase is
// written as plainly as the rule it applies, so the two implementations
// fail independently: the equivalence fuzzes require byte-identical plans
// (ExplainPlan) and outputs after every add and remove.
//
// A round runs these phases in order, each seeing the rewires of the ones
// before it, until a round merges nothing:
//   * exact CSE (CseRule) to fixpoint, then member CSE (MemberCse);
//   * sσ attach onto the oldest warm predicate index of the input channel
//     (AttachSelections), then formation of new indexes (PredicateIndexRule);
//   * sα attach onto the oldest warm shared-aggregation target with the same
//     channel, fn, attr and input slot (AttachAggregates).
#ifndef RUMOR_TESTS_SCAN_MERGE_ORACLE_H_
#define RUMOR_TESTS_SCAN_MERGE_ORACLE_H_

#include <cstdint>
#include <optional>
#include <unordered_map>
#include <vector>

#include "common/hash.h"
#include "mop/aggregate_mop.h"
#include "mop/predicate_index_mop.h"
#include "mop/selection_mop.h"
#include "plan/plan.h"
#include "rules/incremental.h"
#include "rules/rule.h"
#include "rules/sharable.h"
#include "rules/share_index.h"

namespace rumor {
namespace scan_oracle {

// Member-level CSE: a single-member m-op identical to a *member* of an
// existing merged m-op on the same input channel(s) is redundant — the
// member's output channel already carries exactly the tuples the newcomer
// would produce. Consumers move onto that (warm) member port and the
// newcomer is removed. This is what makes a re-added query converge onto the
// shared plan a restart would build.
inline int MemberCse(Plan* plan) {
  int merges = 0;
  std::vector<MopId> live = plan->LiveMops();
  for (MopId id : live) {
    if (!plan->IsLive(id)) continue;
    const Mop& m = plan->mop(id);
    if (m.num_members() != 1 || m.num_outputs() != 1) continue;
    MopType shared_type;
    if (!MemberCseTargetType(m.type(), &shared_type)) continue;
    for (MopId tid : live) {
      if (tid == id || !plan->IsLive(tid)) continue;
      const Mop& t = plan->mop(tid);
      if (t.type() != shared_type || t.num_members() < 2 ||
          t.num_outputs() != t.num_members()) {
        continue;  // only per-member-ports merged targets
      }
      // Same wiring on every input port.
      bool same_inputs = t.num_inputs() == m.num_inputs();
      for (int p = 0; same_inputs && p < m.num_inputs(); ++p) {
        same_inputs = plan->input_channel(tid, p) == plan->input_channel(id, p);
      }
      if (!same_inputs) continue;
      int match = -1;
      for (int i = 0; i < t.num_members() && match < 0; ++i) {
        if (MemberCseMatches(t, i, m)) match = i;
      }
      if (match < 0) continue;
      ChannelId fresh_out = plan->output_channel(id, 0);
      ChannelId member_out = plan->output_channel(tid, match);
      StreamId fresh_stream = plan->channel(fresh_out).stream_at(0);
      StreamId member_stream = plan->channel(member_out).stream_at(0);
      plan->MoveConsumers(fresh_out, member_out);
      plan->RemapOutput(fresh_stream, member_stream);
      plan->RemoveMop(id);
      ++merges;
      break;
    }
  }
  return merges;
}

// sσ and sα attach: a fresh single-member σ or α joins the oldest warm
// target with its key through the live merge's own attach action
// (AttachFreshMember). `target_key` keys a target (an sσ index by input
// channel; an sα engine or lone aggregate by channel, fn, attr and slot)
// and `fresh_key` a candidate member, each or nullopt. Only the first
// target of a key is tried: one that cannot absorb the member is not
// passed over for a younger one.
template <typename TargetKey, typename FreshKey>
int AttachToOldest(Plan* plan, TargetKey target_key, FreshKey fresh_key) {
  std::unordered_map<uint64_t, MopId> target_by_key;
  for (MopId id : plan->LiveMops()) {
    if (std::optional<uint64_t> key = target_key(id, plan->mop(id))) {
      target_by_key.emplace(*key, id);  // LiveMops ascend: the oldest wins
    }
  }
  int attached = 0;
  for (MopId id : plan->LiveMops()) {
    std::optional<uint64_t> key = fresh_key(id, plan->mop(id));
    if (!key.has_value()) continue;
    auto it = target_by_key.find(*key);
    if (it == target_by_key.end() || it->second == id) continue;
    if (AttachFreshMember(plan, id, it->second)) ++attached;
  }
  return attached;
}

// sσ attach: single-member selections whose input stream already carries a
// warm per-member-port predicate index join the oldest one. Keeps the
// invariant that no single-member selection coexists with an index on the
// same channel.
inline int AttachSelections(Plan* plan) {
  return AttachToOldest(
      plan,
      [plan](MopId id, const Mop& m) -> std::optional<uint64_t> {
        if (m.type() != MopType::kPredicateIndex ||
            static_cast<const PredicateIndexMop&>(m).output_mode() !=
                OutputMode::kPerMemberPorts) {
          return std::nullopt;
        }
        return plan->input_channel(id, 0);
      },
      [plan](MopId id, const Mop& m) -> std::optional<uint64_t> {
        if (m.type() != MopType::kSelection ||
            static_cast<const SelectionMop&>(m).member().input_slot != 0) {
          return std::nullopt;
        }
        return plan->input_channel(id, 0);
      });
}

// sα attach: a lone isolated aggregate joins a warm shared-aggregation
// target (or another lone aggregate, converting it in place) on the same
// input channel with the same fn/attr. The joining member's state is
// backfilled from the target's retained entry log.
inline int AttachAggregates(Plan* plan) {
  auto key_of = [plan](MopId id, const AggregateMop& agg) {
    uint64_t key = Mix64(static_cast<uint64_t>(plan->input_channel(id, 0)));
    key = HashCombine(key, static_cast<uint64_t>(agg.member(0).spec.fn));
    key = HashCombine(key, static_cast<uint64_t>(agg.member(0).spec.attr));
    key = HashCombine(key,
                      static_cast<uint64_t>(agg.member(0).input_slot));
    return key;
  };
  return AttachToOldest(
      plan,
      [&](MopId id, const Mop& m) -> std::optional<uint64_t> {
        if (m.type() != MopType::kAggregate &&
            m.type() != MopType::kSharedAggregate) {
          return std::nullopt;
        }
        const auto& agg = static_cast<const AggregateMop&>(m);
        if (agg.output_mode() != OutputMode::kPerMemberPorts) {
          return std::nullopt;
        }
        return key_of(id, agg);
      },
      [&](MopId id, const Mop& m) -> std::optional<uint64_t> {
        if (m.type() != MopType::kAggregate || m.num_members() != 1 ||
            m.num_outputs() != 1 ||
            static_cast<const AggregateMop&>(m).sharing() !=
                AggregateMop::Sharing::kIsolated) {
          return std::nullopt;
        }
        return key_of(id, static_cast<const AggregateMop&>(m));
      });
}

}  // namespace scan_oracle

// Merges the fresh m-ops of a live plan by whole-plan scans (see the file
// comment); MergeNewQueryIndexed must build the same plan.
inline IncrementalMergeStats MergeNewQuery(Plan* plan,
                                           const OptimizerOptions& options) {
  IncrementalMergeStats stats;
  // CSE and sσ match on exact channel identity and never consult the ~
  // analysis (ChannelRule, which does, is not applied live).
  const SharableAnalysis* sharable = nullptr;
  // Fixpoint: merging an upstream m-op rewires its consumers onto warm
  // channels, which can expose downstream merges (e.g. a σ snapping onto an
  // index member lets the α above it join the shared engine next round).
  for (int round = 0; round < kMaxRuleRounds; ++round) {
    int round_merges = 0;
    if (options.enable_cse) {
      int n = CseRule().ApplyAll(plan, sharable) +
              scan_oracle::MemberCse(plan);
      stats.cse_merges += n;
      round_merges += n;
    }
    if (options.enable_predicate_index) {
      int attached = scan_oracle::AttachSelections(plan);
      int ruled = PredicateIndexRule().ApplyAll(plan, sharable);
      stats.attach_merges += attached;
      stats.rule_merges += ruled;
      round_merges += attached + ruled;
    }
    if (options.enable_shared_aggregate) {
      int attached = scan_oracle::AttachAggregates(plan);
      stats.attach_merges += attached;
      round_merges += attached;
    }
    if (round_merges == 0) break;
  }
  return stats;
}

}  // namespace rumor

#endif  // RUMOR_TESTS_SCAN_MERGE_ORACLE_H_
