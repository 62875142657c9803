#include <memory>
#include <unordered_map>
#include <vector>

#include "common/hash.h"
#include "mop/iterate_mop.h"
#include "mop/join_mop.h"
#include "mop/sequence_mop.h"
#include "rules/rule.h"

namespace rumor {

namespace {

// Group key of a single-member ⋈/;/µ m-op: its kind, both input channels
// and slots, and its definition without the window.
template <typename M>
uint64_t WindowGroupKey(const Plan& plan, MopId id) {
  const M& mop = static_cast<const M&>(plan.mop(id));
  const typename M::Member& member = mop.member(0);
  uint64_t key = Mix64(static_cast<uint64_t>(mop.type()));
  key = HashCombine(key, static_cast<uint64_t>(plan.input_channel(id, 0)));
  key = HashCombine(key, static_cast<uint64_t>(plan.input_channel(id, 1)));
  key = HashCombine(key, member.def.PredicateOnlySignature());
  key = HashCombine(key, static_cast<uint64_t>(member.left_slot));
  key = HashCombine(key, static_cast<uint64_t>(member.right_slot));
  return key;
}

// Replaces the m-ops `ids` by one shared m-op whose member i is ids[i]'s
// operator and keeps its output channel.
template <typename M>
void MergeGroup(Plan* plan, const std::vector<MopId>& ids) {
  std::vector<typename M::Member> members;
  std::vector<ChannelId> outputs;
  for (MopId id : ids) {
    members.push_back(static_cast<const M&>(plan->mop(id)).member(0));
    outputs.push_back(plan->output_channel(id, 0));
  }
  const ChannelId left = plan->input_channel(ids[0], 0);
  const ChannelId right = plan->input_channel(ids[0], 1);
  const MopId target = plan->AddMop(std::make_unique<M>(
      std::move(members), M::Sharing::kShared, OutputMode::kPerMemberPorts));
  plan->BindInput(target, 0, left);
  plan->BindInput(target, 1, right);
  for (size_t i = 0; i < outputs.size(); ++i) {
    plan->BindOutput(target, static_cast<int>(i), outputs[i]);
  }
  for (MopId id : ids) plan->RemoveMop(id);
}

}  // namespace

// s⋈ (paper Table 1, [Hammad 03]), and s; and sµ widened the same way:
// operators of one kind reading the same two streams with the same
// predicate but potentially different window lengths share one state; each
// result is routed per member by window coverage (WindowRouting). The
// paper's s; and sµ (Cayuga prefix state merging) share only identical
// definitions, which CSE already merges; the history of a ; or µ instance
// does not depend on the window, so one store kept to the widest window
// serves every member. Members keep their original output channels.
int SharedJoinRule::ApplyAll(Plan* plan, const SharableAnalysis*) {
  std::unordered_map<uint64_t, size_t> group_of;
  std::vector<std::vector<MopId>> groups;  // in first-seen order
  for (MopId id : plan->LiveMops()) {
    const Mop& m = plan->mop(id);
    if (m.num_members() != 1 || m.num_outputs() != 1) continue;
    uint64_t key;
    switch (m.type()) {
      case MopType::kJoin: key = WindowGroupKey<JoinMop>(*plan, id); break;
      case MopType::kSequence:
        key = WindowGroupKey<SequenceMop>(*plan, id);
        break;
      case MopType::kIterate:
        key = WindowGroupKey<IterateMop>(*plan, id);
        break;
      default: continue;
    }
    auto [it, fresh] = group_of.try_emplace(key, groups.size());
    if (fresh) groups.emplace_back();
    groups[it->second].push_back(id);
  }
  int merges = 0;
  for (const std::vector<MopId>& ids : groups) {
    if (ids.size() < 2) continue;
    switch (plan->mop(ids[0]).type()) {
      case MopType::kJoin: MergeGroup<JoinMop>(plan, ids); break;
      case MopType::kSequence: MergeGroup<SequenceMop>(plan, ids); break;
      default: MergeGroup<IterateMop>(plan, ids); break;
    }
    ++merges;
  }
  return merges;
}

}  // namespace rumor
