#include "rules/incremental.h"

#include <algorithm>
#include <vector>

#include "common/trace.h"
#include "mop/aggregate_mop.h"
#include "mop/predicate_index_mop.h"
#include "mop/selection_mop.h"
#include "rules/rule.h"

namespace rumor {
namespace {

// Hands the consumers and output marks of `from` over to `to`, then drops
// the m-op that produced `from`: what CSE and a reused slot both do.
void Reroute(Plan* plan, MopId fresh, ChannelId from, ChannelId to) {
  plan->MoveConsumers(from, to);
  plan->RemapOutput(plan->channel(from).stream_at(0),
                    plan->channel(to).stream_at(0));
  plan->RemoveMop(fresh);
}

// Applies one freshly probed candidate: exact or member CSE, a σ or α
// attach onto a warm target, or a new predicate index formed from the
// singles on one channel (the plan mutation PredicateIndexRule performs).
// Returns false if the candidate no longer applies.
bool ApplyCandidate(Plan* plan, ShareIndex* index,
                    const ShareIndex::Candidate& c,
                    IncrementalMergeStats* stats) {
  switch (c.kind) {
    case ShareIndex::Candidate::kCseExact:
    case ShareIndex::Candidate::kCseMember: {
      int port = c.kind == ShareIndex::Candidate::kCseMember ? c.member : 0;
      Reroute(plan, c.fresh, plan->output_channel(c.fresh, 0),
              plan->output_channel(c.target, port));
      ++stats->cse_merges;
      return true;
    }
    case ShareIndex::Candidate::kAttachSelection:
    case ShareIndex::Candidate::kAttachAggregate:
      if (!AttachFreshMember(plan, c.fresh, c.target)) return false;
      ++stats->attach_merges;
      return true;
    case ShareIndex::Candidate::kFormIndex: {
      std::vector<MopId> singles = index->SinglesOn(c.channel);
      if (singles.size() < 2) return false;
      FormPredicateIndex(plan, c.channel, singles);
      ++stats->rule_merges;
      return true;
    }
    case ShareIndex::Candidate::kNone:
      break;
  }
  return false;
}

}  // namespace

IncrementalMergeStats MergeNewQueryIndexed(Plan* plan, ShareIndex* index,
                                           MopId first_fresh,
                                           const OptimizerOptions& options) {
  RUMOR_TRACE_SPAN("MergeNewQueryIndexed");
  RUMOR_CHECK(index->plan() == plan);
  IncrementalMergeStats stats;
  // One benefit-ordered sub-pass over one group of merge kinds: probe every
  // fresh m-op, sort the candidates greedy best-first by estimated saved
  // work (ties oldest-fresh-first, i.e. plan id order), re-probe each
  // against the synced index at apply time (earlier merges in the batch can
  // invalidate or improve it) and apply what the index says *now*.
  std::vector<ShareIndex::Candidate> cands;
  auto run_group = [&](uint32_t mask) {
    index->Sync();
    cands.clear();
    for (MopId id = first_fresh; id < plan->num_mops(); ++id) {
      if (!plan->IsLive(id)) continue;
      ShareIndex::Candidate c = index->Probe(id, mask);
      if (c.kind != ShareIndex::Candidate::kNone) cands.push_back(c);
    }
    std::stable_sort(cands.begin(), cands.end(),
                     [](const ShareIndex::Candidate& a,
                        const ShareIndex::Candidate& b) {
                       if (a.benefit != b.benefit) return a.benefit > b.benefit;
                       return a.fresh < b.fresh;
                     });
    int applied = 0;
    for (const ShareIndex::Candidate& c : cands) {
      index->Sync();
      ShareIndex::Candidate now = index->Probe(c.fresh, mask);
      if (now.kind == ShareIndex::Candidate::kNone) continue;
      if (ApplyCandidate(plan, index, now, &stats)) ++applied;
    }
    return applied;
  };
  // A round is a sequence of *ordered* phases, the rule order: exact CSE
  // to fixpoint, member CSE in one forward pass, then sσ (attach, then
  // formation), then sα attach. Each phase sees the rewires of the phases
  // before it in the same round, so e.g. an aggregate whose σ was
  // member-merged onto a warm channel is claimed by the member-CSE cascade
  // or this round's sα phase, never by the next round's exact-CSE phase.
  // The scan-based oracle in tests/ applies the same phases by rescanning
  // the plan; the two must build byte-identical plans.
  for (int round = 0; round < kMaxRuleRounds; ++round) {
    int applied = 0;
    if (options.enable_cse) {
      // Exact CSE cascades to fixpoint within the phase: merging two
      // duplicates can make their (fresh) parents identical.
      while (int n = run_group(
                 ShareIndex::MaskOf(ShareIndex::Candidate::kCseExact))) {
        applied += n;
      }
      // Member CSE is one forward pass in id order with immediate effect:
      // a σ member-merge rewires its downstream α's input onto the warm
      // channel, and the α can then member-match *later in the same pass*.
      for (MopId id = first_fresh; id < plan->num_mops(); ++id) {
        if (!plan->IsLive(id)) continue;
        index->Sync();
        ShareIndex::Candidate c = index->Probe(
            id, ShareIndex::MaskOf(ShareIndex::Candidate::kCseMember));
        if (c.kind == ShareIndex::Candidate::kNone) continue;
        if (ApplyCandidate(plan, index, c, &stats)) ++applied;
      }
    }
    if (options.enable_predicate_index) {
      applied += run_group(
          ShareIndex::MaskOf(ShareIndex::Candidate::kAttachSelection) |
          ShareIndex::MaskOf(ShareIndex::Candidate::kFormIndex));
    }
    if (options.enable_shared_aggregate) {
      applied += run_group(
          ShareIndex::MaskOf(ShareIndex::Candidate::kAttachAggregate));
    }
    if (applied == 0) break;
  }
  index->Sync();
  return stats;
}

bool AttachFreshMember(Plan* plan, MopId fresh, MopId target) {
  Mop& t = plan->mop(target);
  MemberAttach attached;
  if (t.type() == MopType::kPredicateIndex) {
    const auto& sel = static_cast<const SelectionMop&>(plan->mop(fresh));
    attached =
        static_cast<PredicateIndexMop&>(t).AttachMember(sel.member().def);
  } else {
    const auto& agg = static_cast<const AggregateMop&>(plan->mop(fresh));
    auto& shared = static_cast<AggregateMop&>(t);
    if (!shared.CanAttach(agg.member(0))) return false;
    attached = shared.AttachMember(agg.member(0));
  }
  const ChannelId out = plan->output_channel(fresh, 0);
  if (attached.reused_slot) {
    plan->NotifyMemberReused(target, attached.member);
    Reroute(plan, fresh, out, plan->output_channel(target, attached.member));
  } else {
    plan->AddMopOutputPort(target, out);
    plan->RemoveMop(fresh);
  }
  return true;
}

PruneStats PruneUnreachable(Plan* plan) {
  PruneStats stats;
  // One backward pass from the surviving query outputs answers both
  // questions below: reach 0 on an m-op = no surviving output depends on it
  // (remove); reach 0 on a channel = no surviving query reads it (its
  // member can be deactivated). O(plan + outputs). Removing unreachable
  // m-ops cannot change the reach of anything else, so one snapshot serves
  // both phases.
  const Plan::OutputReach reach = plan->ComputeOutputReach();
  for (MopId id : plan->LiveMops()) {
    if (reach.mops[id] == 0) {
      plan->RemoveMop(id);
      ++stats.removed_mops;
    }
  }
  // Shared targets with one output port per member (sσ, sα/cα, s⋈, s;, sµ)
  // deactivate the members no surviving query reads; their ports stay
  // bound for a later attach to reuse.
  for (MopId id : plan->LiveMops()) {
    Mop& m = plan->mop(id);
    if (m.num_members() < 2 || m.num_outputs() != m.num_members()) continue;
    for (int i = 0; i < m.num_members(); ++i) {
      if (!reach.channels[plan->output_channel(id, i)] && m.member_active(i) &&
          m.DeactivateMember(i)) {
        ++stats.deactivated_members;
      }
    }
  }
  return stats;
}

}  // namespace rumor
