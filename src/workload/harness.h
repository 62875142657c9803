// Measurement harness shared by the figure benchmarks: builds both engines
// from one workload, warms them up, and measures steady-state throughput
// (events/second), mirroring the paper's §5 methodology (warm-up iterations
// before measuring; averaged repetitions live in the bench binaries).
#ifndef RUMOR_WORKLOAD_HARNESS_H_
#define RUMOR_WORKLOAD_HARNESS_H_

#include <memory>
#include <string>
#include <vector>

#include "cayuga/engine.h"
#include "plan/compile.h"
#include "plan/executor.h"
#include "plan/metrics.h"
#include "plan/sharded_executor.h"
#include "rules/rule_engine.h"
#include "workload/synthetic.h"

namespace rumor {

// Runs a compiled+optimized RUMOR plan over interleaved S/T events.
// `warmup` events are processed untimed, the rest timed. Every runner
// counts results per query (a result on a stream that CSE-merged queries
// share counts once for each), so RUMOR and Cayuga counts compare.
struct RumorRun {
  OptimizeStats optimize_stats;
  ThroughputResult result;
  int live_mops = 0;
};
RumorRun RunRumor(const std::vector<Query>& queries,
                  const OptimizerOptions& options,
                  const std::vector<Event>& events, int64_t warmup,
                  const std::vector<std::string>& stream_names = {"S", "T"});

// Batched variant: groups the event feed into maximal runs of consecutive
// same-stream events (capped at `batch_size` tuples) and pushes each run via
// Executor::PushSourceBatch. Semantically identical to RunRumor — run
// boundaries preserve the global event order, and the executor falls back
// to per-tuple dispatch where batching is unsafe. Note that a strictly
// alternating S/T feed degenerates to runs of 1; batching pays off on feeds
// with same-source bursts (or single-source workloads).
RumorRun RunRumorBatched(
    const std::vector<Query>& queries, const OptimizerOptions& options,
    const std::vector<Event>& events, int64_t warmup, int64_t batch_size,
    const std::vector<std::string>& stream_names = {"S", "T"});

// Partition-parallel variant: the same batched feed pushed through a
// ShardedExecutor with `num_shards` workers (plan/sharded_executor.h) in
// lanes mode — outputs are counted per shard with no cross-thread traffic,
// mirroring what a scale-out deployment measures. The timed region includes
// the final Flush(), so reported throughput covers full processing, not
// just enqueueing. num_shards == 1 measures the sharded machinery's
// single-worker overhead (ring hops + rematerialization) against RunRumor.
RumorRun RunRumorSharded(
    const std::vector<Query>& queries, const OptimizerOptions& options,
    const std::vector<Event>& events, int64_t warmup, int64_t batch_size,
    int num_shards, const std::vector<std::string>& stream_names = {"S", "T"});

// Runs the Cayuga baseline over the same events.
struct CayugaRun {
  ThroughputResult result;
  int num_nodes = 0;
};
CayugaRun RunCayuga(const std::vector<CayugaAutomaton>& automata,
                    const CayugaEngine::Options& options,
                    const std::vector<Event>& events, int64_t warmup,
                    const std::vector<std::string>& stream_names = {"S",
                                                                    "T"});

}  // namespace rumor

#endif  // RUMOR_WORKLOAD_HARNESS_H_
