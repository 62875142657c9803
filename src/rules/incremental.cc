#include "rules/incremental.h"

#include <algorithm>
#include <memory>
#include <sstream>
#include <unordered_map>
#include <vector>

#include "common/hash.h"
#include "common/trace.h"
#include "mop/aggregate_mop.h"
#include "mop/predicate_index_mop.h"
#include "mop/selection_mop.h"
#include "rules/rule.h"
#include "rules/sharable.h"

namespace rumor {

namespace {

// Member-level CSE: a single-member m-op identical to a *member* of an
// existing merged m-op on the same input channel(s) is redundant — the
// member's output channel already carries exactly the tuples the newcomer
// would produce. Consumers move onto that (warm) member port and the
// newcomer is removed. This is what makes a re-added query converge onto the
// shared plan a restart would build.
int MemberCse(Plan* plan) {
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

// sσ attach: single-member selections whose input stream already carries a
// warm predicate index join it as new members (stateless, so nothing to
// preserve beyond wiring). Keeps the invariant that no single-member
// selection coexists with an index on the same channel.
int AttachSelections(Plan* plan) {
  std::unordered_map<ChannelId, MopId> index_by_input;
  for (MopId id : plan->LiveMops()) {
    const Mop& m = plan->mop(id);
    if (m.type() != MopType::kPredicateIndex) continue;
    const auto& index = static_cast<const PredicateIndexMop&>(m);
    if (index.output_mode() != OutputMode::kPerMemberPorts) continue;
    // Two per-member-port indexes can coexist on one channel (e.g. after a
    // sharded re-merge); attach to the *oldest* deterministically instead
    // of whichever the scan happens to see first.
    auto [it, inserted] = index_by_input.emplace(plan->input_channel(id, 0),
                                                 id);
    if (!inserted && id < it->second) it->second = id;
  }
  if (index_by_input.empty()) return 0;
  int attached = 0;
  for (MopId id : plan->LiveMops()) {
    const Mop& m = plan->mop(id);
    if (m.type() != MopType::kSelection || m.num_members() != 1 ||
        m.num_outputs() != 1) {
      continue;
    }
    const auto& sel = static_cast<const SelectionMop&>(m);
    if (sel.member(0).input_slot != 0) continue;
    auto it = index_by_input.find(plan->input_channel(id, 0));
    if (it == index_by_input.end() || it->second == id) continue;
    ChannelId out = plan->output_channel(id, 0);
    auto& index = static_cast<PredicateIndexMop&>(plan->mop(it->second));
    index.AddMember(sel.member(0).def);
    plan->AddMopOutputPort(it->second, out);
    plan->RemoveMop(id);
    ++attached;
  }
  return attached;
}

// sα attach: a lone isolated aggregate joins a warm shared-aggregation
// target (or another lone aggregate, converting it in place) on the same
// input channel with the same fn/attr. The joining member's state is
// backfilled from the target's retained entry log.
int AttachAggregates(Plan* plan) {
  auto key_of = [plan](MopId id, const AggregateMop& agg) {
    uint64_t key = Mix64(static_cast<uint64_t>(plan->input_channel(id, 0)));
    key = HashCombine(key, static_cast<uint64_t>(agg.member(0).spec.fn));
    key = HashCombine(key, static_cast<uint64_t>(agg.member(0).spec.attr));
    key = HashCombine(key,
                      static_cast<uint64_t>(agg.member(0).input_slot));
    return key;
  };
  // Oldest candidate target per key (oldest = warmest).
  std::unordered_map<uint64_t, MopId> target_by_key;
  for (MopId id : plan->LiveMops()) {
    const Mop& m = plan->mop(id);
    if (m.type() != MopType::kAggregate &&
        m.type() != MopType::kSharedAggregate) {
      continue;
    }
    const auto& agg = static_cast<const AggregateMop&>(m);
    if (agg.output_mode() != OutputMode::kPerMemberPorts) continue;
    if (agg.sharing() == AggregateMop::Sharing::kIsolated &&
        agg.num_members() != 1) {
      continue;
    }
    target_by_key.emplace(key_of(id, agg), id);
  }
  int attached = 0;
  for (MopId id : plan->LiveMops()) {
    const Mop& m = plan->mop(id);
    if (m.type() != MopType::kAggregate || m.num_members() != 1 ||
        m.num_outputs() != 1) {
      continue;
    }
    const auto& agg = static_cast<const AggregateMop&>(m);
    if (agg.sharing() != AggregateMop::Sharing::kIsolated) continue;
    auto it = target_by_key.find(key_of(id, agg));
    if (it == target_by_key.end() || it->second == id) continue;
    auto& target = static_cast<AggregateMop&>(plan->mop(it->second));
    if (!target.CanAttach(agg.member(0))) continue;
    ChannelId out = plan->output_channel(id, 0);
    AggregateMop::AttachResult res = target.AttachMember(agg.member(0));
    if (res.reused_slot) {
      // The reactivated slot keeps its port and channel; route the new
      // query's consumers and output mark onto them. The slot's member spec
      // changed in place (no wiring event), so publish the mutation for
      // signature-keyed log consumers.
      plan->NotifyMopMutated(it->second);
      ChannelId slot_out = plan->output_channel(it->second, res.member);
      StreamId fresh_stream = plan->channel(out).stream_at(0);
      StreamId slot_stream = plan->channel(slot_out).stream_at(0);
      plan->MoveConsumers(out, slot_out);
      plan->RemapOutput(fresh_stream, slot_stream);
    } else {
      plan->AddMopOutputPort(it->second, out);
    }
    plan->RemoveMop(id);
    ++attached;
  }
  return attached;
}

}  // namespace

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

IncrementalMergeStats MergeNewQuery(Plan* plan,
                                    const OptimizerOptions& options) {
  RUMOR_TRACE_SPAN("MergeNewQuery");
  IncrementalMergeStats stats;
  // The rules applied here do not consult the ~ analysis (CSE and sσ match
  // on exact channel identity), so no whole-plan recomputation is paid on a
  // live add; rules that do need it (ChannelRule) CHECK against null and
  // are deliberately not applied incrementally.
  const SharableAnalysis* sharable = nullptr;
  // Fixpoint: merging an upstream m-op rewires its consumers onto warm
  // channels, which can expose downstream merges (e.g. a σ snapping onto an
  // index member lets the α above it join the shared engine next round).
  for (int round = 0; round < options.max_rounds; ++round) {
    int round_merges = 0;
    if (options.enable_cse) {
      int n = CseRule().ApplyAll(plan, sharable) + MemberCse(plan);
      stats.cse_merges += n;
      round_merges += n;
    }
    if (options.enable_predicate_index) {
      int attached = AttachSelections(plan);
      int ruled = PredicateIndexRule().ApplyAll(plan, sharable);
      stats.attach_merges += attached;
      stats.rule_merges += ruled;
      round_merges += attached + ruled;
    }
    if (options.enable_shared_aggregate) {
      int attached = AttachAggregates(plan);
      stats.attach_merges += attached;
      round_merges += attached;
    }
    if (round_merges == 0) break;
  }
  return stats;
}

namespace {

// Applies one freshly probed candidate. Each arm performs exactly the plan
// mutation the corresponding scan-based rule performs (CseRule / MemberCse /
// AttachSelections / AttachAggregates / PredicateIndexRule), so the indexed
// path is plan-identical to the oracle. Returns false if the candidate no
// longer applies.
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
      SelectionDef def = sel.member(0).def;
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
        defs.push_back(sel.member(0).def);
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
  // work (ties oldest-fresh-first — the order the scan path's LiveMops
  // iteration would apply them), re-probe each against the synced index at
  // apply time (earlier merges in the batch can invalidate or improve it)
  // and apply what the index says *now*.
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
  // The scan path's round is a sequence of *ordered* phases — exact CSE to
  // fixpoint (CseRule), member CSE in one forward pass (MemberCse), then sσ
  // (AttachSelections + PredicateIndexRule), then sα (AttachAggregates) —
  // and each phase sees the rewires of the phases before it in the same
  // round. Replicating that phase structure (rather than one all-kinds
  // batch per round) is what makes the indexed path plan-identical: e.g.
  // an aggregate whose σ was member-merged onto a warm channel is claimed
  // by the member-CSE cascade or this round's sα phase, exactly as the
  // scan decides it, never by the next round's exact-CSE phase.
  for (int round = 0; round < options.max_rounds; ++round) {
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
      // channel, and the α can then member-match *later in the same pass*
      // (MemberCse's in-pass cascade).
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
