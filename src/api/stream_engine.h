// StreamEngine — the one-stop public API of the library: register sources,
// add continuous queries (logical objects or RQL text), Start() to compile
// and rule-optimize the combined plan, then push tuples and receive per-
// query results through a callback.
//
//   StreamEngine engine;
//   engine.RegisterSource("CPU", Schema({{"pid", kInt}, {"load", kInt}}));
//   engine.AddScript(
//       "SMOOTHED: SELECT pid, AVG(load) FROM CPU [RANGE 60] GROUP BY pid;"
//       "HOT: SELECT * FROM SMOOTHED WHERE avg_load > 90;");
//   engine.SetOutputHandler([](const std::string& q, const Tuple& t) { ... });
//   engine.Start();
//   engine.Push("CPU", Tuple::MakeInts({1, 95}, 0));
//
// The query set is *dynamic*: AddQuery/AddQueryText/AddScript stay legal
// after Start() — the new query is compiled standalone and incrementally
// merged into the running shared plan (rules/incremental.h), snapping onto
// warm shared operators (predicate indexes, shared aggregation windows,
// CSE'd subtrees) without disturbing their state. RemoveQuery() tears down
// exactly the operators no surviving query reaches (reference-counted
// unsharing). A dynamically added query starts observing tuples from the
// moment it is added; where it shares a warm operator it additionally
// inherits that operator's in-window history (e.g. a backfilled shared
// aggregate), exactly as if it had been running all along.
#ifndef RUMOR_API_STREAM_ENGINE_H_
#define RUMOR_API_STREAM_ENGINE_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <deque>
#include <functional>
#include <limits>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "plan/compile.h"
#include "plan/engine_metrics.h"
#include "plan/executor.h"
#include "plan/sharded_executor.h"
#include "query/parser.h"
#include "rules/rule_engine.h"
#include "rules/share_index.h"

namespace rumor {

class StreamEngine {
 public:
  explicit StreamEngine(OptimizerOptions options = OptimizerOptions());
  ~StreamEngine();  // defined in the .cc (HandlerSink is incomplete here)

  // Engine lifecycle: configuring (before Start) or running (after).
  enum class State { kConfiguring, kRunning };
  State state() const {
    return started() ? State::kRunning : State::kConfiguring;
  }

  // Partition-parallel execution: run the shared plan on `n` worker threads
  // (plan/sharded_executor.h). n == 1 (the default) keeps the original
  // single-threaded executor — byte-identical behavior, zero new overhead.
  // With n > 1, Start() spawns one plan replica + worker per shard (each
  // replica is the plan the single-threaded engine would build, and live
  // adds and removes keep it so) and Push/PushBatch route tuples by the
  // AnalyzeSharding table; the output handler still runs on the pushing
  // thread, with outputs merged in epoch-major, shard-minor order (per-key
  // order on partitioned routes is exactly the single-threaded order). Must
  // be called before Start().
  Status SetShardCount(int n);
  int shard_count() const { return shard_count_; }

  // --- setup ------------------------------------------------------------------
  // Registers an input stream; `sharable_label` marks base-case-2 sharable
  // sources (same non-negative label). Legal in both states (a query added
  // later may read a newly registered source).
  Status RegisterSource(const std::string& name, Schema schema,
                        int sharable_label = -1);
  // Adds a logical query (from QueryBuilder / the translator / ...). Query
  // names must be unique among live queries. After Start() the query is
  // merged into the running plan (see file comment); it is illegal to call
  // this from inside an output handler.
  Status AddQuery(Query query);
  // Parses and adds one RQL query; `name` overrides the statement name.
  Status AddQueryText(const std::string& rql, const std::string& name = "");
  // Parses a ';'-separated RQL script; later statements may reference
  // earlier ones by name. After Start() the statements are added one by
  // one; on a mid-script error the earlier statements stay added.
  Status AddScript(const std::string& rql);
  // Removes a query by name (either state). Running-plan removal unshares
  // reference-counted operators: m-ops still reached by surviving queries
  // stay warm and untouched, everything else is torn down and its channels
  // garbage-collected. Illegal from inside an output handler.
  Status RemoveQuery(const std::string& name);

  // Called for every query result: (query name, output tuple).
  using OutputHandler = std::function<void(const std::string&, const Tuple&)>;
  void SetOutputHandler(OutputHandler handler) {
    handler_ = std::move(handler);
  }

  // Compiles all queries into one plan, runs the m-rule optimizer, and
  // prepares execution. Queries may still be added/removed afterwards.
  Status Start();

  // --- runtime (after Start) -------------------------------------------------
  // Pushes one tuple into a source stream. Returns InvalidArgument, and
  // pushes nothing, when the tuple's arity differs from the source schema,
  // a value does not fit its column (int and double columns take either
  // number, string and bool columns their own type, no column takes null),
  // or its timestamp is below the last one pushed to that source. The last
  // timestamp is not part of a checkpoint: a restored engine accepts any
  // first timestamp per source.
  Status Push(const std::string& source, const Tuple& tuple);

  // Pushes a run of consecutive tuples of one source in a single call.
  // Every query receives the same results in the same order as per-tuple
  // Push calls — only the interleaving of the output handler *across
  // different queries* may differ within a batch — and the batch traverses
  // each operator of the shared plan once, amortizing dispatch overhead
  // (the executor falls back to per-tuple dispatch on plan shapes where
  // batching could reorder stateful work). Every tuple is checked as Push
  // checks one, and a bad tuple rejects the whole batch before any of it
  // is pushed.
  Status PushBatch(const std::string& source, std::span<const Tuple> tuples);

  // Blocks until every pushed tuple is fully processed and every output
  // delivered to the handler. No-op in single-threaded mode, where Push
  // already returns only after full propagation.
  void Flush();

  // --- durability (checkpoint/restore) ---------------------------------------
  // Serializes the running engine into the versioned snapshot format
  // (common/snapshot_io.h): registered sources, the live query set (as RQL
  // text, in add order), engine counters, and the operator state of every
  // stateful m-op — window logs, aggregation accumulators, join buffers,
  // partial-match stores. Sharded engines first deliver the results still
  // in flight (so the saved counts match the saved state), then quiesce and
  // save one state section per shard. Requires Start(); every live query
  // must have been added from RQL text (AddQueryText/AddScript — restore
  // re-parses it), and the call must not come from inside an output
  // handler.
  Status Checkpoint(std::string* out) const;
  Status CheckpointToFile(const std::string& path) const;
  // Rebuilds this (fresh: not started, no sources or queries) engine from a
  // snapshot: re-registers the saved sources, queues the saved query texts,
  // starts the engine (so the batch Optimize builds the restored plan, which
  // may be shaped differently from the saved one where queries were added
  // live), and loads the saved operator state into the matching members
  // (matched by structural fingerprint, plan/fingerprint.h). A restored
  // shared m-op whose members' state lives in several saved m-ops
  // (live-added ;/µ/⋈ queries that differ only in window, which the batch
  // Optimize now merges) fails with Unimplemented before any state is
  // loaded. The snapshot is fully validated before any engine state is
  // touched, and a restore that fails later puts the engine back the way it
  // found it: fresh, with its settings (options, shard count, handler,
  // metrics) kept. The restored engine may run any shard count (call
  // SetShardCount first): a sharded checkpoint is merged into one logical
  // image and re-partitioned onto the new layout.
  Status Restore(std::string_view snapshot);
  Status RestoreFromFile(const std::string& path);

  // --- observability -----------------------------------------------------------
  bool started() const { return executor_ != nullptr || sharded_ != nullptr; }
  int num_queries() const { return num_live_queries_; }
  // Cumulative: Start()-time merge counts plus the dynamic_* /
  // incremental_* fields maintained by live AddQuery/RemoveQuery.
  const OptimizeStats& optimize_stats() const { return stats_; }
  // Total results delivered per query name (persists across RemoveQuery).
  int64_t OutputCount(const std::string& query_name) const;
  // EXPLAIN-style plan report (includes runtime counters after pushes;
  // reflects the current plan of a running engine, including live merges).
  std::string Explain() const;
  // EXPLAIN ANALYZE: the plan annotated with live per-m-op metrics — query
  // reach, tuples in/out, selectivity, batches, sampled per-tuple cost.
  std::string ExplainAnalyze() const;
  // Full engine snapshot: sharing quality + optimizer history + per-m-op and
  // per-query counters + data-plane fast-path efficacy. Serialize with
  // ToString() / ToJson().
  EngineMetrics CollectMetrics() const;
  // Tunes metric collection (currently: eval-timing sample period). Cheap
  // counters are always on (unless compiled out via RUMOR_METRICS=OFF);
  // only the sampled wall-clocking is governed by this knob. Legal in both
  // states; applied to the executor at Start() if called before it.
  void SetMetricsOptions(const MetricsOptions& options);
  const MetricsOptions& metrics_options() const { return metrics_options_; }

  // --- metrics ticker (time series) ------------------------------------------
  // One sample of the engine's cheap throughput counters. Counters are
  // cumulative since Start(); rates are differences between ticks.
  struct MetricsTick {
    int64_t t_ns = 0;           // steady-clock sample time
    int64_t push_calls = 0;     // Push/PushBatch invocations
    int64_t tuples_pushed = 0;  // source tuples accepted
    int64_t outputs = 0;        // results delivered to the handler, as of
                                // the end of the last Push/PushBatch/Flush
  };
  // Starts a background sampler appending one MetricsTick per `interval`
  // into a bounded ring (oldest ticks drop past `history_capacity`). The
  // sampler reads only the engine's published atomic counters — it never
  // walks the plan, so it cannot race the data plane. Restarting replaces
  // the previous ticker; the destructor stops it. Counters are zero under
  // -DRUMOR_METRICS=OFF (the ticker itself still runs).
  void StartMetricsTicker(std::chrono::milliseconds interval,
                          size_t history_capacity = 512);
  void StopMetricsTicker();
  // Snapshot of the ring, oldest first.
  std::vector<MetricsTick> MetricsHistory() const;
  // The ring as a JSON time series: {"ticks": [{t_ns, push_calls, ...}]}.
  std::string MetricsHistoryJson() const;

  // --- testing hooks -----------------------------------------------------------
  // The live share-point index of replica 0 (nullptr before Start) and the
  // single-threaded engine's plan, which it indexes. The churn stress
  // compares the index against a from-scratch rebuild.
  const ShareIndex* share_index_for_testing() const {
    return share_indexes_.empty() ? nullptr : share_indexes_[0].get();
  }
  Plan* mutable_plan_for_testing() { return &plan_; }

 private:
  class HandlerSink;

  // Slot of the live query named `name` in query_slots_, or -1.
  int FindQuery(const std::string& name) const;
  // Records an added query: catalog entry, a fresh slot, the name index.
  void CommitQuery(Query query, std::string text);
  // Compiles every live query into `plan`, in add order.
  Status CompileLiveQueries(Plan* plan) const;
  // Publishes the sink's running total of routed results to the ticker.
  void PublishOutputs() const;
  // A source the running plan reads, with what ingress checks against.
  struct IngressSource {
    std::string name;
    StreamId id = kInvalidStream;
    Schema schema;
    // Per column, the value types it accepts, one bit per ValueType tag:
    // int and double columns take either number, string and bool columns
    // their own type, and no column takes null.
    std::vector<uint8_t> accepts;
    Timestamp last_ts = std::numeric_limits<Timestamp>::min();
  };
  // Stream id of `source` for a push of `tuples`: NotFound / not-started
  // errors, or InvalidArgument unless every tuple has the source's arity,
  // every value fits its column, and no timestamp falls below the last one
  // pushed to the source.
  Result<StreamId> Admit(const std::string& source,
                         std::span<const Tuple> tuples);
  // Shared implementation of the Add* methods; `text` is the query's RQL
  // source ("" for logical-object adds, which a checkpoint then rejects).
  Status AddQueryWithText(Query query, std::string text);
  // Compiles + incrementally merges a query into the running plan.
  Status AddQueryLive(Query query, std::string text);
  // Re-derives the source name -> stream id table from the plan.
  void RefreshSourceIds();
  // Drops the sources, queries and plan(s): the engine is fresh again
  // (not started), with its settings kept. Undoes a failed Restore.
  void ResetToFresh();
  // The plan queries run against: shard 0's replica when sharded (callers
  // must quiesce first), the engine-owned plan otherwise.
  const Plan& ActivePlan() const;
  // A running engine holds one plan replica per shard, or just plan_ when
  // single-threaded. Every replica is built, merged and pruned by the same
  // deterministic steps, so all replicas hold the same plan.
  int num_replicas() const;
  // Runs `step` once per replica with the executor that runs it: inline on
  // plan_ and *executor_ when single-threaded, and through
  // ShardedExecutor::MutateShards when sharded (quiesced, on each shard's
  // worker thread, which owns the arena the replica's state lives in).
  // Returns the first error. Start's index build, AddQuery, RemoveQuery,
  // Checkpoint and Restore's state load act on the replicas only through
  // this step.
  Status ForEachReplica(const ShardedExecutor::ShardCommand& step);
  // True while the engine is delivering results to the output handler.
  bool busy() const;

  OptimizerOptions options_;
  MetricsOptions metrics_options_;
  Catalog catalog_;
  // Queries in add order, each in a slot that does not move while the query
  // lives. RemoveQuery leaves a tombstone (a null root), and the table is
  // compacted once tombstones outnumber live queries, so a remove costs
  // amortized O(1) and the add order survives for Start's compile order,
  // the checkpoint's query section and CollectMetrics' query rows.
  struct QuerySlot {
    Query query;
    // RQL source ("" when added as a logical object); restore re-parses
    // it, so Checkpoint requires it to be non-empty.
    std::string text;
    bool live() const { return query.root != nullptr; }
  };
  std::vector<QuerySlot> query_slots_;
  int num_live_queries_ = 0;
  // Every RegisterSource call, in order (the catalog keeps no iterable
  // source list, and a source may be registered before any query reads it).
  struct RegisteredSource {
    std::string name;
    Schema schema;
    int sharable_label = -1;
  };
  std::vector<RegisteredSource> sources_;
  // Lowercase live query name -> slot in query_slots_. O(1) FindQuery — a
  // linear rescan per Add/Remove was quadratic over large standing
  // populations.
  std::unordered_map<std::string, int> query_index_;
  OutputHandler handler_;

  Plan plan_;
  // One persistent share-point index per replica, built at Start() from the
  // optimized plan and kept in sync from its mutation log; every live
  // AddQuery resolves its merges through it (rules/share_index.h).
  std::vector<std::unique_ptr<ShareIndex>> share_indexes_;
  OptimizeStats stats_;
  std::unique_ptr<HandlerSink> sink_;
  std::unique_ptr<Executor> executor_;
  // Declared after sink_ so workers are joined (and all pending outputs
  // merged) before the sink they deliver into is destroyed.
  int shard_count_ = 1;
  std::unique_ptr<ShardedExecutor> sharded_;
  // Sources by name (resolved at Start / refreshed on live adds).
  std::vector<IngressSource> source_ids_;

  // Published throughput counters (relaxed atomics: written by the pushing
  // thread, read by the ticker). outputs_total_ copies the sink's plain
  // running total of routed results once per Push/PushBatch/Flush call,
  // and before Checkpoint saves it (hence mutable), instead of paying one
  // atomic add per routed result.
  std::atomic<int64_t> push_calls_{0};
  std::atomic<int64_t> tuples_pushed_{0};
  mutable std::atomic<int64_t> outputs_total_{0};

  // Ticker thread + bounded tick ring.
  std::thread ticker_;
  std::mutex ticker_mu_;  // guards ticker_stop_ (cv wait)
  std::condition_variable ticker_cv_;
  bool ticker_stop_ = false;
  mutable std::mutex history_mu_;
  std::deque<MetricsTick> history_;
  size_t history_cap_ = 512;
};

}  // namespace rumor

#endif  // RUMOR_API_STREAM_ENGINE_H_
