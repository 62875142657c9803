// Plan explainer: human-readable report of an (optionally executed) plan —
// per m-op type, member count, wiring, and runtime counters. The stream
// equivalent of EXPLAIN ANALYZE; examples and the benchmark harness use it
// to show what the optimizer did.
#ifndef RUMOR_PLAN_EXPLAIN_H_
#define RUMOR_PLAN_EXPLAIN_H_

#include <string>

#include "plan/plan.h"

namespace rumor {

// Renders the plan: each m-op with its wiring and tuples in/out, the wired
// channels, and the query outputs. Counters are the Mop::tuples_in/out()
// values and are zero before execution.
std::string ExplainPlan(const Plan& plan);

// EXPLAIN ANALYZE: the plan tree annotated with live runtime metrics — per
// m-op member count, query reach (shared vs private), tuples in/out,
// selectivity, batch count, (sampled) per-tuple cost and state bytes, then
// the query outputs. On a merged N-query plan this is the view that shows
// exactly where events die:
//
//   σ-index#2[100]  reads[ch0] writes[ch1]  queries=100 members=100
//       in=300000 out=11930 sel=0.0398 batches=4688 ns/tuple≈210.4
//
// Counters are zero before execution (and when compiled with
// RUMOR_METRICS=OFF).
std::string ExplainAnalyze(const Plan& plan);

// One-line summary: "#m-ops, #channels (max capacity), #queries".
std::string SummarizePlan(const Plan& plan);

// Graphviz DOT rendering of the plan (m-ops as nodes, channels as edges;
// multi-stream channels annotated with their capacity). Pipe into
// `dot -Tsvg` to visualise what the optimizer built.
std::string PlanToDot(const Plan& plan);

}  // namespace rumor

#endif  // RUMOR_PLAN_EXPLAIN_H_
