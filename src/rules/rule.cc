#include "rules/rule.h"

#include <unordered_map>

#include "common/hash.h"
#include "mop/aggregate_mop.h"
#include "mop/iterate_mop.h"
#include "mop/join_mop.h"
#include "mop/predicate_index_mop.h"
#include "mop/projection_mop.h"
#include "mop/selection_mop.h"
#include "mop/sequence_mop.h"

namespace rumor {

std::unique_ptr<Mop> CloneWithOutputMode(const Mop& mop, OutputMode mode) {
  switch (mop.type()) {
    case MopType::kPredicateIndex: {
      const auto& m = static_cast<const PredicateIndexMop&>(mop);
      std::vector<SelectionDef> members;
      for (int i = 0; i < m.num_members(); ++i) members.push_back(m.member(i));
      return std::make_unique<PredicateIndexMop>(std::move(members), mode);
    }
    case MopType::kChannelSelect: {
      const auto& m = static_cast<const ChannelSelectMop&>(mop);
      return std::make_unique<ChannelSelectMop>(m.def(), m.num_members(),
                                                mode);
    }
    case MopType::kChannelProject: {
      const auto& m = static_cast<const ChannelProjectMop&>(mop);
      return std::make_unique<ChannelProjectMop>(m.def(), m.num_members(),
                                                 mode);
    }
    case MopType::kSharedAggregate:
    case MopType::kFragmentAggregate: {
      const auto& m = static_cast<const AggregateMop&>(mop);
      std::vector<AggregateMop::Member> members;
      for (int i = 0; i < m.num_members(); ++i) members.push_back(m.member(i));
      return std::make_unique<AggregateMop>(std::move(members), m.sharing(),
                                            mode);
    }
    case MopType::kSharedJoin:
    case MopType::kPrecisionJoin: {
      const auto& m = static_cast<const JoinMop&>(mop);
      std::vector<JoinMop::Member> members;
      for (int i = 0; i < m.num_members(); ++i) members.push_back(m.member(i));
      return std::make_unique<JoinMop>(std::move(members), m.sharing(), mode);
    }
    case MopType::kSharedSequence:
    case MopType::kChannelSequence: {
      const auto& m = static_cast<const SequenceMop&>(mop);
      std::vector<SequenceMop::Member> members;
      for (int i = 0; i < m.num_members(); ++i) members.push_back(m.member(i));
      return std::make_unique<SequenceMop>(std::move(members), m.sharing(),
                                           mode);
    }
    case MopType::kSharedIterate:
    case MopType::kChannelIterate: {
      const auto& m = static_cast<const IterateMop&>(mop);
      std::vector<IterateMop::Member> members;
      for (int i = 0; i < m.num_members(); ++i) members.push_back(m.member(i));
      return std::make_unique<IterateMop>(std::move(members), m.sharing(),
                                          mode);
    }
    case MopType::kSelection:
    case MopType::kProjection:
    case MopType::kAggregate:
    case MopType::kJoin:
    case MopType::kSequence:
    case MopType::kIterate:
    case MopType::kZip:
      // Unmerged m-ops have one output port, and a channel-rule producer
      // has two or more: fall through to the unsupported check.
      break;
  }
  RUMOR_CHECK(false) << "unsupported mop type for clone";
  return nullptr;
}

// CSE: merge single-member m-ops with identical definitions reading the
// exact same input channels — the plan-level form of Cayuga prefix state
// merging (rules s; and sµ in Table 1; §4.3 of the paper shows the
// correspondence). The kept m-op's output channel absorbs the duplicates'
// consumers; duplicate output streams are remapped for query-output marks.
int CseRule::ApplyAll(Plan* plan, const SharableAnalysis*) {
  int merges = 0;
  bool progress = true;
  // Deduping can make parents identical; iterate to the fixpoint (this is
  // the inductive prefix merge of Fig. 7/8).
  while (progress) {
    progress = false;
    std::unordered_map<uint64_t, std::vector<MopId>> groups;
    for (MopId id : plan->LiveMops()) {
      const Mop& m = plan->mop(id);
      if (m.num_members() != 1 || m.num_outputs() != 1) continue;
      uint64_t key = Mix64(static_cast<uint64_t>(m.type()));
      key = HashCombine(key, m.MemberSignature(0));
      for (ChannelId c : plan->input_channels(id)) {
        key = HashCombine(key, static_cast<uint64_t>(c));
      }
      groups[key].push_back(id);
    }
    for (auto& [key, ids] : groups) {
      if (ids.size() < 2) continue;
      MopId kept = ids[0];
      ChannelId kept_out = plan->output_channel(kept, 0);
      StreamId kept_stream = plan->channel(kept_out).stream_at(0);
      for (size_t i = 1; i < ids.size(); ++i) {
        ChannelId dup_out = plan->output_channel(ids[i], 0);
        StreamId dup_stream = plan->channel(dup_out).stream_at(0);
        plan->MoveConsumers(dup_out, kept_out);
        plan->RemapOutput(dup_stream, kept_stream);
        plan->RemoveMop(ids[i]);
        ++merges;
      }
      progress = true;
    }
  }
  return merges;
}

}  // namespace rumor
