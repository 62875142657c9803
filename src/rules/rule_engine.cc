#include "rules/rule_engine.h"

#include <cstdio>
#include <sstream>

#include "common/trace.h"
#include "rules/share_index.h"

namespace rumor {

std::string OptimizeStats::ToString() const {
  std::ostringstream os;
  os << "OptimizeStats{cse=" << cse_merges
     << " sσ=" << predicate_index_merges
     << " sα=" << shared_aggregate_merges << " s⋈=" << shared_join_merges
     << " c*=" << channel_merges << " rounds=" << rounds;
  if (dynamic_adds > 0 || dynamic_removes > 0) {
    os << " adds=" << dynamic_adds << " removes=" << dynamic_removes
       << " inc_cse=" << incremental_cse_merges
       << " inc_attach=" << incremental_attach_merges
       << " inc_rules=" << incremental_rule_merges
       << " pruned_mops=" << pruned_mops
       << " pruned_members=" << pruned_members;
  }
  if (queries > 0) {
    os << " | sharing: " << queries << " queries -> " << live_mops
       << " m-ops (" << total_members << " members, " << shared_mops
       << " shared)";
    char buf[64];
    std::snprintf(buf, sizeof(buf), ", %.2f m-ops/query", mops_per_query());
    os << buf;
  }
  os << "}";
  return os.str();
}

int RuleEngine::Run(Plan* plan, const SharableAnalysis& sharable,
                    std::vector<int>* merges) {
  merges->resize(rules_.size(), 0);
  int rounds = 0;
  while (rounds < kMaxRuleRounds) {
    ++rounds;
    int round_merges = 0;
    for (size_t i = 0; i < rules_.size(); ++i) {
      int n = rules_[i]->ApplyAll(plan, &sharable);
      (*merges)[i] += n;
      round_merges += n;
#ifndef NDEBUG
      // Every rule application must leave the plan consistent (fully bound
      // ports, single producers, acyclic, no dead-channel wiring).
      if (n > 0) plan->Validate();
#endif
    }
    if (round_merges == 0) break;
  }
  return rounds;
}

OptimizeStats Optimize(Plan* plan, const OptimizerOptions& options,
                       ShareIndex* index) {
  RUMOR_TRACE_SPAN("Optimize");
  OptimizeStats stats;
  SharableAnalysis sharable(*plan);

  RuleEngine engine;
  // Registration order = priority order.
  std::vector<int> which;  // maps engine slot -> stats slot
  if (options.enable_cse) {
    engine.AddRule(std::make_unique<CseRule>());
    which.push_back(0);
  }
  auto add_channels = [&] {
    if (options.enable_channels) {
      engine.AddRule(std::make_unique<ChannelRule>());
      which.push_back(4);
    }
  };
  if (options.channel_rules_first) add_channels();
  if (options.enable_predicate_index) {
    engine.AddRule(std::make_unique<PredicateIndexRule>());
    which.push_back(1);
  }
  if (options.enable_shared_aggregate) {
    engine.AddRule(std::make_unique<SharedAggregateRule>());
    which.push_back(2);
  }
  if (options.enable_shared_join) {
    engine.AddRule(std::make_unique<SharedJoinRule>());
    which.push_back(3);
  }
  if (!options.channel_rules_first) add_channels();

  std::vector<int> merges;
  stats.rounds = engine.Run(plan, sharable, &merges);

  for (size_t i = 0; i < merges.size(); ++i) {
    switch (which[i]) {
      case 0: stats.cse_merges += merges[i]; break;
      case 1: stats.predicate_index_merges += merges[i]; break;
      case 2: stats.shared_aggregate_merges += merges[i]; break;
      case 3: stats.shared_join_merges += merges[i]; break;
      case 4: stats.channel_merges += merges[i]; break;
    }
  }
  FillSharingQuality(*plan, &stats);
  plan->Validate();
  if (index != nullptr) index->Sync();
  return stats;
}

void FillSharingQuality(const Plan& plan, OptimizeStats* stats) {
  stats->queries = static_cast<int>(plan.outputs().size());
  stats->live_mops = 0;
  stats->total_members = 0;
  stats->shared_mops = 0;
  // One backward pass; saturated-at-2 reach is exactly the shared/unshared
  // distinction this snapshot needs (the per-query refcount walk it
  // replaces was O(outputs × cone) — quadratic at 10^5 queries).
  const Plan::OutputReach reach = plan.ComputeOutputReach();
  for (MopId id : plan.LiveMops()) {
    ++stats->live_mops;
    stats->total_members += plan.mop(id).num_members();
    if (reach.mops[id] >= 2) ++stats->shared_mops;
  }
}

}  // namespace rumor
