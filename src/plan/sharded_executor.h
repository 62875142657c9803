// ShardedExecutor — partition-parallel execution of the shared plan.
//
// N worker threads each own one *identical replica* of the plan (compiled
// deterministically by a PlanFactory, so m-op/channel/stream ids line up
// across replicas) plus their own Executor, EvalScratch and TupleArena. The
// control thread routes source tuples to shards per the ShardPlan derived
// by AnalyzeSharding (plan/shard.h): stateless prefixes are replicated,
// stateful operator state is partitioned by key hash, unkeyable components
// are pinned to one shard. Tuples never cross threads — batches travel as
// flat trivially-copyable Value arrays over bounded SPSC rings
// (plan/spsc_queue.h) and are rematerialized on the receiving thread's
// arena.
//
// Output: workers encode outputs into flat blocks; the control thread
// decodes and merges them into the caller's ordinary single-threaded sink
// in a deterministic order: epoch-major (an epoch is one
// PushSource/PushSourceBatch call), shard-minor, per-shard emission order.
// For tuples on a key-partitioned route this reproduces the exact
// single-threaded per-key output order; the interleaving across shards
// within one epoch is the one documented relaxation. No mutex anywhere on
// the hot path.
//
// Backpressure: every queue is bounded. A full in-ring makes the control
// thread drain pending deliveries until the worker catches up; a worker
// that outruns the merge parks on the out-shell ring until the control
// thread recycles shells. The merge delivers a shard's blocks
// *incrementally* while that shard is still mid-epoch, so a worker can
// never deadlock against the in-order merge cursor.
//
// Query churn on a running sharded engine uses MutateShards: the executor
// quiesces (Flush), sends one command through each in-ring, and the command
// runs ON the worker thread — so every plan mutation that allocates or
// releases tuples (incremental merge backfill, pruning) happens on the
// thread owning the arena those tuples live in. Commands must not emit
// outputs.
#ifndef RUMOR_PLAN_SHARDED_EXECUTOR_H_
#define RUMOR_PLAN_SHARDED_EXECUTOR_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "plan/engine_metrics.h"
#include "plan/executor.h"
#include "plan/shard.h"

namespace rumor {

// Compiles one plan replica. Must be deterministic — every invocation (they
// run concurrently, one per worker) must produce structurally identical
// plans with identical ids — and must not touch shared mutable state.
using PlanFactory = std::function<Status(Plan* plan, OptimizeStats* stats)>;

class ShardedExecutor {
 public:
  struct Options {
    int num_shards = 2;
    // Ring depths (rounded up to powers of two). in_ring bounds how many
    // epochs may be in flight per shard before the pusher blocks; out_ring
    // bounds encoded output blocks awaiting the ordered merge.
    size_t in_ring = 8;
    size_t out_ring = 16;
    MetricsOptions metrics;
  };

  // Runs on a worker thread against that worker's plan replica; see
  // MutateShards.
  using ShardCommand =
      std::function<Status(int shard, Plan& plan, Executor& executor)>;

  // All shard outputs merge into `sink` on the pushing thread.
  ShardedExecutor(Options options, PlanFactory factory, OutputSink* sink);
  ~ShardedExecutor();
  ShardedExecutor(const ShardedExecutor&) = delete;
  ShardedExecutor& operator=(const ShardedExecutor&) = delete;

  // Spawns the workers; each builds its replica (factory) and its Executor
  // in parallel. Returns the first replica's compile error, if any. Call
  // once before pushing.
  Status Prepare();

  // Routes one epoch of tuples to the shards. Same contract as
  // Executor::PushSource/PushSourceBatch (single pushing thread, timestamps
  // non-decreasing). Delivers any merge-ready outputs to the sink before
  // returning. Must not be called re-entrantly from an output handler.
  void PushSource(StreamId stream, const Tuple& tuple);
  void PushSourceBatch(StreamId stream, std::span<const Tuple> tuples);

  // Blocks until every pushed epoch is fully processed and every output
  // delivered to the sink. After Flush the workers are quiescent: plan(s),
  // deliveries(s) and counters(s) are safe to read.
  void Flush();

  // Quiesce-merge-resume: flushes, then runs `fn` once per shard ON that
  // shard's worker thread (concurrently across shards; fn must be safe to
  // run N times against distinct replicas and must not emit outputs).
  // Returns the first non-OK status. Re-derives the routing table from the
  // mutated plan before resuming; a source that feeds state keeps its route,
  // and where the mutated plan needs another one (AnalyzeSharding's
  // `previous`), the old table stays and the call returns Unimplemented, for
  // the caller to undo the mutation.
  Status MutateShards(const ShardCommand& fn);

  // Flushes, closes the rings and joins the workers (idempotent; the dtor
  // calls it). Workers destroy their executor and plan replica on their own
  // thread — replica state holds tuples of the worker's arena.
  void Stop();

  // True while the merge is inside the caller's sink (plan mutations and
  // re-entrant pushes are illegal in this window).
  bool busy() const { return delivering_; }

  int num_shards() const { return options_.num_shards; }
  const ShardPlan& sharding() const { return sharding_; }

  // Quiesced access (after Flush / Prepare / MutateShards) — shard s's plan
  // replica and its last published execution counters.
  const Plan& plan(int shard = 0) const;
  int64_t deliveries(int shard) const;
  DataPlaneCounters counters(int shard) const;
  const OptimizeStats& optimize_stats() const;

  // Per-shard metric rows (flushes first).
  std::vector<EngineMetrics::ShardRow> ShardRows();

  // Sampled end-to-end latency of epochs: PushSource[Batch] call to the
  // merge finishing that epoch's delivery. Empty under -DRUMOR_METRICS=OFF.
  const LatencyHistogram& merge_latency() const { return merge_latency_; }

 private:
  struct InBatch;
  struct OutBlock;
  struct Shard;
  class BlockSink;

  void WorkerMain(int s);
  InBatch* AcquireShell(Shard& sh);
  // Advances the ordered-merge cursor as far as currently possible without
  // blocking; delivers and recycles ready blocks.
  void DrainDeliveries();
  void DeliverBlock(const OutBlock& block);
  // Re-derives the routes after a mutation; a source that feeds state keeps
  // its route. Fails, keeping the old routes, where the plan needs another
  // route for such a source.
  Status RefreshSharding();

  Options options_;
  PlanFactory factory_;
  OutputSink* merge_sink_ = nullptr;
  std::vector<std::unique_ptr<Shard>> shards_;

  ShardPlan sharding_;
  std::vector<uint64_t> rr_;  // per-stream round-robin cursors (kAny routes)

  // Epochs start at 1 so "completed == 0" means "nothing yet".
  uint64_t next_epoch_ = 1;
  // Merge delivery cursor: the first not-yet-fully-delivered epoch and the
  // shard within it whose outputs are next in merge order.
  uint64_t next_deliver_epoch_ = 1;
  int deliver_shard_ = 0;

  bool prepared_ = false;
  bool stopped_ = false;
  bool delivering_ = false;

  // Latency sampling (control-thread-only): epochs stamped at push time,
  // recorded when the merge cursor passes them.
  LatencyHistogram merge_latency_;
  std::deque<std::pair<uint64_t, int64_t>> pending_latency_;  // (epoch, t0)
  int latency_countdown_ = 1;  // sample the first epoch, then every Nth
};

}  // namespace rumor

#endif  // RUMOR_PLAN_SHARDED_EXECUTOR_H_
