#include <unordered_map>

#include "mop/predicate_index_mop.h"
#include "mop/selection_mop.h"
#include "rules/rule.h"

namespace rumor {

// sσ (paper §2.4, Table 1): a set of selection operators reading the same
// stream is replaced by one predicate-index m-op. Applies to *all*
// selections on the stream — indexable equality predicates go into hash
// indexes, the rest are evaluated sequentially inside the target m-op (the
// paper's §5.3 workload relies on this for non-indexable starting
// conditions). Each member keeps its original output channel, so consumers
// are untouched.
int PredicateIndexRule::ApplyAll(Plan* plan, const SharableAnalysis*) {
  std::unordered_map<ChannelId, std::vector<MopId>> by_input;
  for (MopId id : plan->LiveMops()) {
    const Mop& m = plan->mop(id);
    if (m.type() != MopType::kSelection) continue;
    if (static_cast<const SelectionMop&>(m).member().input_slot != 0) {
      continue;
    }
    by_input[plan->input_channel(id, 0)].push_back(id);
  }
  int merges = 0;
  for (auto& [input, ids] : by_input) {
    if (ids.size() < 2) continue;
    FormPredicateIndex(plan, input, ids);
    ++merges;
  }
  return merges;
}

void FormPredicateIndex(Plan* plan, ChannelId input,
                        const std::vector<MopId>& singles) {
  std::vector<SelectionDef> defs;
  std::vector<ChannelId> outputs;
  defs.reserve(singles.size());
  for (MopId id : singles) {
    const auto& sel = static_cast<const SelectionMop&>(plan->mop(id));
    defs.push_back(sel.member().def);
    outputs.push_back(plan->output_channel(id, 0));
  }
  MopId target = plan->AddMop(std::make_unique<PredicateIndexMop>(
      std::move(defs), OutputMode::kPerMemberPorts));
  plan->BindInput(target, 0, input);
  for (size_t i = 0; i < outputs.size(); ++i) {
    plan->BindOutput(target, static_cast<int>(i), outputs[i]);
  }
  for (MopId id : singles) plan->RemoveMop(id);
}

}  // namespace rumor
