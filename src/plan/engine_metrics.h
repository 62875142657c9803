// EngineMetrics — one self-contained snapshot of everything the runtime
// knows about a (possibly running) shared plan: sharing quality (the
// paper's m-ops-per-query argument), per-m-op tuple counters and sampled
// costs, and the fast-path efficacy counters of the data plane (vectorized
// predicate evaluation, flat index probes, tuple-arena recycling).
//
// Collected by StreamEngine::CollectMetrics() (or CollectEngineMetrics for
// raw Plan/Executor users); serializes to human text (ToString) and JSON
// (ToJson, via common/json_writer — schema documented in the README's
// Observability section).
#ifndef RUMOR_PLAN_ENGINE_METRICS_H_
#define RUMOR_PLAN_ENGINE_METRICS_H_

#include <string>
#include <vector>

#include "common/metrics.h"
#include "plan/plan.h"
#include "rules/rule_engine.h"

namespace rumor {

// Snapshot of one thread's data-plane fast-path counters: the thread_local
// ProgramCounters plus the thread's TupleArena stats. Workers of a sharded
// run capture this before publishing batch completion, so CollectMetrics can
// aggregate across threads instead of silently reporting only the calling
// thread's counters.
struct DataPlaneCounters {
  int64_t program_fused = 0;
  int64_t program_typed = 0;
  int64_t program_generic = 0;
  int64_t program_typed_fallbacks = 0;
  int64_t arena_requests = 0;
  int64_t arena_heap_allocations = 0;
  int64_t arena_pooled = 0;
  int64_t arena_outstanding = 0;
  int64_t arena_bytes_outstanding = 0;
  int64_t arena_bytes_pooled = 0;

  // Counters of the calling thread.
  static DataPlaneCounters Capture();
  DataPlaneCounters& operator+=(const DataPlaneCounters& o);

  double vectorized_share() const {
    const int64_t t = program_fused + program_typed + program_generic;
    return t > 0
               ? static_cast<double>(program_fused + program_typed) / t
               : 0.0;
  }
  double arena_recycle_hit_rate() const {
    return arena_requests > 0
               ? static_cast<double>(arena_requests - arena_heap_allocations) /
                     arena_requests
               : 0.0;
  }
};

struct EngineMetrics {
  // True when the library was compiled with the metrics layer (the
  // RUMOR_METRICS CMake toggle); counters are all zero otherwise.
  bool metrics_compiled = RUMOR_METRICS_ENABLED != 0;

  // --- plan shape / sharing quality ---------------------------------------
  int queries = 0;
  int live_mops = 0;
  int wired_channels = 0;
  int shared_mops = 0;   // reached by > 1 query
  int private_mops = 0;  // reached by <= 1 query
  int total_members = 0;
  double mops_per_query = 0.0;
  int64_t deliveries = 0;  // executor scheduling work so far

  // Merge history (static Start() pass + dynamic churn).
  OptimizeStats optimize;

  // --- per-m-op runtime rows ----------------------------------------------
  struct MopRow {
    MopId id = kInvalidMop;
    std::string name;
    const char* type = "";
    int members = 0;
    int query_refs = 0;  // queries whose output depends on this m-op
    int64_t state_bytes = 0;  // Mop::StateBytes (summed across shards)
    MopMetrics m;
  };
  std::vector<MopRow> mops;

  // --- per-query rows (filled by StreamEngine; empty for raw plans) --------
  struct QueryRow {
    std::string name;
    int64_t outputs = 0;  // results delivered so far
  };
  std::vector<QueryRow> query_rows;

  // --- end-to-end latency ---------------------------------------------------
  // Sampled ingress->sink latency distribution: single-threaded runs record
  // push-call to output-delivery inside the executor; sharded ordered runs
  // record push-call to ordered-merge delivery on the control thread. Empty
  // under -DRUMOR_METRICS=OFF or when nothing was sampled yet.
  LatencyHistogram latency;

  // --- sharded execution (filled when the engine runs >1 shard) ------------
  int shards = 1;
  struct ShardRow {
    int shard = 0;
    int64_t deliveries = 0;  // that shard executor's scheduling work
    DataPlaneCounters counters;
    // Backpressure gauges (zero under -DRUMOR_METRICS=OFF).
    uint64_t in_depth_hwm = 0;    // input-ring occupancy high-watermark
    uint64_t out_depth_hwm = 0;   // output-ring occupancy high-watermark
    int64_t push_stall_ns = 0;    // control thread stalled acquiring shells
    int64_t worker_stall_ns = 0;  // worker parked waiting for the merge
    uint64_t merge_lag_hwm = 0;   // max epochs completed ahead of the merge
  };
  std::vector<ShardRow> shard_rows;

  // --- memory ---------------------------------------------------------------
  // Byte gauges (zero under -DRUMOR_METRICS=OFF except share_index, which is
  // a container-walk estimate and always available). The arena's live and
  // pooled bytes are in data_plane.
  int64_t mop_state_bytes = 0;  // sum of MopRow::state_bytes
  struct ShareIndexStats {
    bool present = false;  // engine keeps a ShareIndex (indexed merge path)
    int64_t exact_entries = 0;
    int64_t member_entries = 0;
    int64_t index_target_entries = 0;
    int64_t sel_single_entries = 0;
    int64_t agg_target_entries = 0;
    int64_t posting_entries = 0;
    int64_t approx_bytes = 0;
  };
  ShareIndexStats share_index;

  // --- fast-path efficacy ---------------------------------------------------
  // Predicate evaluation and the tuple arena: the calling thread's, or the
  // sum over shards.
  DataPlaneCounters data_plane;
  // Predicate-index probes, summed over the plan's sσ m-ops.
  int64_t flat_probes = 0;
  int64_t map_probes = 0;

  double flat_probe_share() const {
    const int64_t t = flat_probes + map_probes;
    return t > 0 ? static_cast<double>(flat_probes) / t : 0.0;
  }

  // Human-readable report (sections mirror the JSON schema).
  std::string ToString() const;
  // The full snapshot as a JSON document (valid per JsonLint).
  std::string ToJson() const;
};

// Builds the snapshot from a plan: shape, sharing quality, per-m-op rows,
// probe counters, plus the calling thread's program/arena counters.
// `deliveries` is Executor::deliveries() (0 if not running). query_rows is
// left empty — only the engine knows query names and delivered counts.
EngineMetrics CollectEngineMetrics(const Plan& plan,
                                   const OptimizeStats& optimize,
                                   int64_t deliveries);

// Folds one shard replica's plan into a snapshot built from shard 0's plan:
// per-m-op rows are summed by m-op id (replicas compile identically, so ids
// line up) and predicate-index probe counters accumulate. The caller must
// only invoke this while the replica's worker is quiesced.
void AccumulateShardPlan(EngineMetrics* em, const Plan& shard_plan);

}  // namespace rumor

#endif  // RUMOR_PLAN_ENGINE_METRICS_H_
