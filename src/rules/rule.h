// M-rules (paper §2.3): a transformation rule on plans of m-ops. Each rule
// is a (condition, action) pair — the condition identifies a set of m-ops
// with a sharing opportunity, the action replaces that set with a single
// target m-op, rebinding channel edges.
//
// The rules implemented here are the Table-1 catalogue:
//   CseRule             — common subexpression elimination; subsumes s; and
//                         sµ (≡ Cayuga prefix state merging, §4.3) and exact
//                         duplicates of every other operator type.
//   PredicateIndexRule  — sσ: selections on one stream -> predicate index
//                         (the Cayuga FR/AN index translation).
//   SharedAggregateRule — sα: same-stream aggregates, shared state.
//   SharedJoinRule      — s⋈, and s; and sµ across windows: same-stream
//                         joins, sequences or iterates that differ only in
//                         the window share one state routed by window.
//   ChannelRule         — the c-family (cσ, cπ, cα, c⋈, c;, cµ): maps
//                         sharable streams from one producer onto a channel
//                         and merges the same-definition consumers
//                         (channel_mapper.cc enforces the §3.2 criteria).
#ifndef RUMOR_RULES_RULE_H_
#define RUMOR_RULES_RULE_H_

#include <memory>
#include <string>
#include <vector>

#include "plan/plan.h"
#include "rules/sharable.h"

namespace rumor {

class MRule {
 public:
  virtual ~MRule() = default;
  virtual std::string name() const = 0;
  // One full pass: evaluates the condition over the current plan (all
  // candidate groups) and applies the action to each qualifying group.
  // Returns the number of merges performed. `sharable` may be null for
  // rules that do not consult the ~ relation (they match on exact channel
  // identity); rules that need it must CHECK it is present.
  virtual int ApplyAll(Plan* plan, const SharableAnalysis* sharable) = 0;
};

class CseRule : public MRule {
 public:
  std::string name() const override { return "cse(s;/sµ)"; }
  int ApplyAll(Plan* plan, const SharableAnalysis* sharable) override;
};

class PredicateIndexRule : public MRule {
 public:
  std::string name() const override { return "sσ"; }
  int ApplyAll(Plan* plan, const SharableAnalysis* sharable) override;
};

// The sσ plan mutation, which the live merge's index formation applies too:
// one predicate index reading `input` replaces the single-member slot-0
// selections `singles` of it, each member keeping its output channel.
void FormPredicateIndex(Plan* plan, ChannelId input,
                        const std::vector<MopId>& singles);

class SharedAggregateRule : public MRule {
 public:
  std::string name() const override { return "sα"; }
  int ApplyAll(Plan* plan, const SharableAnalysis* sharable) override;
};

class SharedJoinRule : public MRule {
 public:
  std::string name() const override { return "s⋈/s;/sµ"; }
  int ApplyAll(Plan* plan, const SharableAnalysis* sharable) override;
};

class ChannelRule : public MRule {
 public:
  std::string name() const override { return "cτ(channels)"; }
  int ApplyAll(Plan* plan, const SharableAnalysis* sharable) override;
};

// Rebuilds an (un-executed) m-op with a different output mode; used when the
// channel rule turns a producer's per-member output ports into one channel
// port. Supports every merged m-op type.
std::unique_ptr<Mop> CloneWithOutputMode(const Mop& mop, OutputMode mode);

}  // namespace rumor

#endif  // RUMOR_RULES_RULE_H_
