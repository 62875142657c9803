#include "rules/incremental.h"

#include <algorithm>
#include <memory>
#include <sstream>
#include <vector>

#include "common/trace.h"
#include "mop/aggregate_mop.h"
#include "mop/predicate_index_mop.h"
#include "mop/selection_mop.h"

namespace rumor {

std::string IncrementalMergeStats::ToString() const {
  std::ostringstream os;
  os << "IncrementalMergeStats{cse=" << cse_merges
     << " attach=" << attach_merges << " rules=" << rule_merges << "}";
  return os.str();
}

std::string PruneStats::ToString() const {
  std::ostringstream os;
  os << "PruneStats{mops=" << removed_mops
     << " index_members=" << pruned_index_members
     << " deactivated=" << deactivated_members
     << " channels=" << collected_channels << "}";
  return os.str();
}

namespace {

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
      ChannelId fresh_out = plan->output_channel(c.fresh, 0);
      int port = c.kind == ShareIndex::Candidate::kCseMember ? c.member : 0;
      ChannelId kept_out = plan->output_channel(c.target, port);
      StreamId fresh_stream = plan->channel(fresh_out).stream_at(0);
      StreamId kept_stream = plan->channel(kept_out).stream_at(0);
      plan->MoveConsumers(fresh_out, kept_out);
      plan->RemapOutput(fresh_stream, kept_stream);
      plan->RemoveMop(c.fresh);
      ++stats->cse_merges;
      return true;
    }
    case ShareIndex::Candidate::kAttachSelection: {
      const auto& sel = static_cast<const SelectionMop&>(plan->mop(c.fresh));
      SelectionDef def = sel.member().def;
      ChannelId out = plan->output_channel(c.fresh, 0);
      auto& target = static_cast<PredicateIndexMop&>(plan->mop(c.target));
      target.AddMember(std::move(def));
      plan->AddMopOutputPort(c.target, out);
      plan->RemoveMop(c.fresh);
      ++stats->attach_merges;
      return true;
    }
    case ShareIndex::Candidate::kAttachAggregate: {
      const auto& fresh = static_cast<const AggregateMop&>(plan->mop(c.fresh));
      AggregateMop::Member member = fresh.member(0);
      auto& target = static_cast<AggregateMop&>(plan->mop(c.target));
      if (!target.CanAttach(member)) return false;
      ChannelId out = plan->output_channel(c.fresh, 0);
      AggregateMop::AttachResult res = target.AttachMember(member);
      if (res.reused_slot) {
        // In-place spec change on the reused slot: dirty the target so the
        // index re-derives its member signatures.
        plan->NotifyMopMutated(c.target);
        ChannelId slot_out = plan->output_channel(c.target, res.member);
        StreamId fresh_stream = plan->channel(out).stream_at(0);
        StreamId slot_stream = plan->channel(slot_out).stream_at(0);
        plan->MoveConsumers(out, slot_out);
        plan->RemapOutput(fresh_stream, slot_stream);
      } else {
        plan->AddMopOutputPort(c.target, out);
      }
      plan->RemoveMop(c.fresh);
      ++stats->attach_merges;
      return true;
    }
    case ShareIndex::Candidate::kFormIndex: {
      std::vector<MopId> singles = index->SinglesOn(c.channel);
      if (singles.size() < 2) return false;
      std::vector<SelectionDef> defs;
      std::vector<ChannelId> outs;
      defs.reserve(singles.size());
      for (MopId id : singles) {
        const auto& sel = static_cast<const SelectionMop&>(plan->mop(id));
        defs.push_back(sel.member().def);
        outs.push_back(plan->output_channel(id, 0));
      }
      MopId formed = plan->AddMop(std::make_unique<PredicateIndexMop>(
          std::move(defs), OutputMode::kPerMemberPorts));
      plan->BindInput(formed, 0, c.channel);
      for (size_t i = 0; i < outs.size(); ++i) {
        plan->BindOutput(formed, static_cast<int>(i), outs[i]);
      }
      for (MopId id : singles) plan->RemoveMop(id);
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

PruneStats PruneUnreachable(Plan* plan) {
  PruneStats stats;
  // One backward pass from the surviving query outputs answers both
  // questions below: reach 0 on an m-op = no surviving output depends on it
  // (remove); reach 0 on a channel = no surviving query reads it (its
  // member slot can be dropped). O(plan + outputs) — the former per-query
  // refcount walk plus per-output channel rescan was what made RemoveQuery
  // quadratic on large plans. Removing unreachable m-ops cannot change the
  // reach of anything else, so one snapshot serves both phases.
  const Plan::OutputReach reach = plan->ComputeOutputReach();
  for (MopId id : plan->LiveMops()) {
    if (reach.mops[id] == 0) {
      plan->RemoveMop(id);
      ++stats.removed_mops;
    }
  }

  // Member-level teardown on surviving shared m-ops.
  const std::vector<uint8_t>& needed = reach.channels;
  std::vector<MopId> index_rebuilds;
  for (MopId id : plan->LiveMops()) {
    Mop& m = plan->mop(id);
    if (m.type() == MopType::kPredicateIndex) {
      const auto& index = static_cast<const PredicateIndexMop&>(m);
      if (index.output_mode() != OutputMode::kPerMemberPorts) continue;
      bool all_needed = true;
      for (int i = 0; i < index.num_members(); ++i) {
        all_needed &= needed[plan->output_channel(id, i)] != 0;
      }
      if (!all_needed) index_rebuilds.push_back(id);
    } else if (m.num_members() > 1 && m.num_outputs() == m.num_members()) {
      // Shared-state targets with per-member ports (sα/cα, s⋈, s;, sµ)
      // deactivate the members no surviving query reads.
      for (int i = 0; i < m.num_members(); ++i) {
        if (!needed[plan->output_channel(id, i)] && m.member_active(i) &&
            m.DeactivateMember(i)) {
          ++stats.deactivated_members;
        }
      }
    }
  }
  // Predicate indexes are stateless: rebuild them without the members no
  // surviving query reads.
  for (MopId id : index_rebuilds) {
    const auto& index = static_cast<const PredicateIndexMop&>(plan->mop(id));
    std::vector<SelectionDef> defs;
    std::vector<ChannelId> outs;
    for (int i = 0; i < index.num_members(); ++i) {
      ChannelId out = plan->output_channel(id, i);
      if (!needed[out]) {
        ++stats.pruned_index_members;
        continue;
      }
      defs.push_back(index.member(i));
      outs.push_back(out);
    }
    RUMOR_CHECK(!defs.empty()) << "fully unused index should have ref 0";
    ChannelId input = plan->input_channel(id, 0);
    MopId rebuilt = plan->AddMop(std::make_unique<PredicateIndexMop>(
        std::move(defs), OutputMode::kPerMemberPorts));
    plan->BindInput(rebuilt, 0, input);
    for (size_t i = 0; i < outs.size(); ++i) {
      plan->BindOutput(rebuilt, static_cast<int>(i), outs[i]);
    }
    plan->RemoveMop(id);
  }

  stats.collected_channels = plan->GcOrphanChannels();
  return stats;
}

}  // namespace rumor
