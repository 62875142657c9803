#include "plan/engine_metrics.h"

#include <cstdio>
#include <sstream>

#include "common/json_writer.h"
#include "common/tuple.h"
#include "expr/program.h"
#include "mop/predicate_index_mop.h"

namespace rumor {

DataPlaneCounters DataPlaneCounters::Capture() {
  DataPlaneCounters c;
  const ProgramCounters& pc = Program::counters();
  c.program_fused = pc.fused;
  c.program_typed = pc.typed;
  c.program_generic = pc.generic;
  c.program_typed_fallbacks = pc.typed_fallbacks;
  const TupleArena* arena = TupleArena::Default();
  c.arena_requests = arena->requests();
  c.arena_heap_allocations = arena->allocations();
  c.arena_pooled = arena->pooled();
  c.arena_outstanding = arena->outstanding();
  c.arena_bytes_outstanding = arena->bytes_outstanding();
  c.arena_bytes_pooled = arena->bytes_pooled();
  return c;
}

DataPlaneCounters& DataPlaneCounters::operator+=(const DataPlaneCounters& o) {
  program_fused += o.program_fused;
  program_typed += o.program_typed;
  program_generic += o.program_generic;
  program_typed_fallbacks += o.program_typed_fallbacks;
  arena_requests += o.arena_requests;
  arena_heap_allocations += o.arena_heap_allocations;
  arena_pooled += o.arena_pooled;
  arena_outstanding += o.arena_outstanding;
  arena_bytes_outstanding += o.arena_bytes_outstanding;
  arena_bytes_pooled += o.arena_bytes_pooled;
  return *this;
}

void AccumulateShardPlan(EngineMetrics* em, const Plan& shard_plan) {
  for (EngineMetrics::MopRow& row : em->mops) {
    if (!shard_plan.IsLive(row.id)) continue;
    const Mop& mop = shard_plan.mop(row.id);
    const MopMetrics& m = mop.metrics();
    row.m.tuples_in += m.tuples_in;
    row.m.tuples_out += m.tuples_out;
    row.m.batches += m.batches;
    row.m.sampled_evals += m.sampled_evals;
    row.m.sampled_tuples += m.sampled_tuples;
    row.m.eval_ns += m.eval_ns;
    row.m.eval_hist.Merge(m.eval_hist);
    const int64_t state = mop.StateBytes();
    row.state_bytes += state;
    em->mop_state_bytes += state;
    if (mop.type() == MopType::kPredicateIndex) {
      const auto& index = static_cast<const PredicateIndexMop&>(mop);
      em->flat_probes += index.flat_probes();
      em->map_probes += index.map_probes();
    }
  }
}

EngineMetrics CollectEngineMetrics(const Plan& plan,
                                   const OptimizeStats& optimize,
                                   int64_t deliveries) {
  EngineMetrics em;
  em.optimize = optimize;
  em.deliveries = deliveries;
  em.queries = static_cast<int>(plan.outputs().size());

  for (ChannelId c = 0; c < plan.num_channels(); ++c) {
    if (plan.channel_dead(c)) continue;
    if (plan.ProducerOf(c).has_value() || !plan.ConsumersOf(c).empty()) {
      ++em.wired_channels;
    }
  }

  const std::vector<int> refs = plan.QueryRefCounts();
  for (MopId id : plan.LiveMops()) {
    const Mop& mop = plan.mop(id);
    EngineMetrics::MopRow row;
    row.id = id;
    row.name = mop.name();
    row.type = MopTypeName(mop.type());
    row.members = mop.num_members();
    row.query_refs = refs[id];
    row.state_bytes = mop.StateBytes();
    row.m = mop.metrics();
    em.mop_state_bytes += row.state_bytes;
    em.mops.push_back(std::move(row));

    ++em.live_mops;
    em.total_members += mop.num_members();
    if (refs[id] > 1) {
      ++em.shared_mops;
    } else {
      ++em.private_mops;
    }
    if (mop.type() == MopType::kPredicateIndex) {
      const auto& index = static_cast<const PredicateIndexMop&>(mop);
      em.flat_probes += index.flat_probes();
      em.map_probes += index.map_probes();
    }
  }
  em.mops_per_query =
      em.queries > 0 ? static_cast<double>(em.live_mops) / em.queries : 0.0;
  // Sync the OptimizeStats sharing snapshot from this walk — the engine
  // deliberately does not refresh it on the latency-critical live add/remove
  // path, so the copy carried in stats may be stale.
  em.optimize.queries = em.queries;
  em.optimize.live_mops = em.live_mops;
  em.optimize.total_members = em.total_members;
  em.optimize.shared_mops = em.shared_mops;

  em.data_plane = DataPlaneCounters::Capture();
  return em;
}

std::string EngineMetrics::ToString() const {
  std::ostringstream os;
  char buf[160];
  os << "engine: " << queries << " queries, " << live_mops << " m-ops ("
     << shared_mops << " shared, " << private_mops << " private), "
     << total_members << " members, " << wired_channels << " wired channels";
  std::snprintf(buf, sizeof(buf), ", %.2f m-ops/query", mops_per_query);
  os << buf << ", " << deliveries << " deliveries";
  if (!metrics_compiled) os << " [metrics compiled out]";
  os << "\n" << optimize.ToString() << "\n";
  std::snprintf(buf, sizeof(buf),
                "fast paths: vectorized_share=%.3f (fused=%lld typed=%lld "
                "generic=%lld fallbacks=%lld)",
                data_plane.vectorized_share(),
                static_cast<long long>(data_plane.program_fused),
                static_cast<long long>(data_plane.program_typed),
                static_cast<long long>(data_plane.program_generic),
                static_cast<long long>(data_plane.program_typed_fallbacks));
  os << buf << "\n";
  std::snprintf(buf, sizeof(buf),
                "  index probes: flat=%lld map=%lld (flat_share=%.3f)",
                static_cast<long long>(flat_probes),
                static_cast<long long>(map_probes), flat_probe_share());
  os << buf << "\n";
  std::snprintf(buf, sizeof(buf),
                "  tuple arena: requests=%lld heap=%lld recycle_hit=%.3f "
                "pooled=%lld outstanding=%lld",
                static_cast<long long>(data_plane.arena_requests),
                static_cast<long long>(data_plane.arena_heap_allocations),
                data_plane.arena_recycle_hit_rate(),
                static_cast<long long>(data_plane.arena_pooled),
                static_cast<long long>(data_plane.arena_outstanding));
  os << buf << "\n";
  if (latency.count() > 0) {
    os << "latency (ingress->sink, sampled): " << latency.Summary() << "\n";
  }
  std::snprintf(buf, sizeof(buf),
                "memory: arena_bytes=%lld (pooled=%lld) mop_state_bytes=%lld",
                static_cast<long long>(data_plane.arena_bytes_outstanding),
                static_cast<long long>(data_plane.arena_bytes_pooled),
                static_cast<long long>(mop_state_bytes));
  os << buf << "\n";
  if (share_index.present) {
    std::snprintf(buf, sizeof(buf),
                  "  share index: exact=%lld member=%lld index_targets=%lld "
                  "sel_singles=%lld agg_targets=%lld bytes=%lld",
                  static_cast<long long>(share_index.exact_entries),
                  static_cast<long long>(share_index.member_entries),
                  static_cast<long long>(share_index.index_target_entries),
                  static_cast<long long>(share_index.sel_single_entries),
                  static_cast<long long>(share_index.agg_target_entries),
                  static_cast<long long>(share_index.approx_bytes));
    os << buf << "\n";
  }
  if (shards > 1) {
    os << "sharded over " << shards << " workers:\n";
    for (const ShardRow& s : shard_rows) {
      std::snprintf(buf, sizeof(buf),
                    "  shard %-3d deliveries=%-12lld evals=%lld "
                    "arena_requests=%lld",
                    s.shard, static_cast<long long>(s.deliveries),
                    static_cast<long long>(s.counters.program_fused +
                                           s.counters.program_typed +
                                           s.counters.program_generic),
                    static_cast<long long>(s.counters.arena_requests));
      os << buf << "\n";
      std::snprintf(
          buf, sizeof(buf),
          "            in_hwm=%llu out_hwm=%llu push_stall_ns=%lld "
          "worker_stall_ns=%lld merge_lag_hwm=%llu",
          static_cast<unsigned long long>(s.in_depth_hwm),
          static_cast<unsigned long long>(s.out_depth_hwm),
          static_cast<long long>(s.push_stall_ns),
          static_cast<long long>(s.worker_stall_ns),
          static_cast<unsigned long long>(s.merge_lag_hwm));
      os << buf << "\n";
    }
  }
  for (const MopRow& row : mops) {
    std::snprintf(buf, sizeof(buf),
                  "  %-18s members=%-5d queries=%-5d in=%-10lld out=%-10lld "
                  "sel=%.4f batches=%lld",
                  row.name.c_str(), row.members, row.query_refs,
                  static_cast<long long>(row.m.tuples_in),
                  static_cast<long long>(row.m.tuples_out),
                  row.m.selectivity(),
                  static_cast<long long>(row.m.batches));
    os << buf;
    if (row.m.sampled_tuples > 0) {
      std::snprintf(buf, sizeof(buf), " ns/tuple=%.1f", row.m.ns_per_tuple());
      os << buf;
    }
    if (row.m.eval_hist.count() > 0) {
      std::snprintf(buf, sizeof(buf), " eval_p99=%lld",
                    static_cast<long long>(row.m.eval_hist.p99()));
      os << buf;
    }
    if (row.state_bytes > 0) {
      std::snprintf(buf, sizeof(buf), " state_bytes=%lld",
                    static_cast<long long>(row.state_bytes));
      os << buf;
    }
    os << "\n";
  }
  for (const QueryRow& q : query_rows) {
    os << "  query " << q.name << ": outputs=" << q.outputs << "\n";
  }
  return os.str();
}

std::string EngineMetrics::ToJson() const {
  JsonWriter w;
  w.BeginObject();
  w.Key("engine")
      .BeginObject()
      .KV("metrics_compiled", metrics_compiled)
      .KV("queries", queries)
      .KV("live_mops", live_mops)
      .KV("shared_mops", shared_mops)
      .KV("private_mops", private_mops)
      .KV("total_members", total_members)
      .KV("wired_channels", wired_channels)
      .KV("mops_per_query", mops_per_query)
      .KV("deliveries", deliveries)
      .KV("shards", shards)
      .EndObject();
  w.Key("optimize")
      .BeginObject()
      .KV("cse_merges", optimize.cse_merges)
      .KV("predicate_index_merges", optimize.predicate_index_merges)
      .KV("shared_aggregate_merges", optimize.shared_aggregate_merges)
      .KV("shared_join_merges", optimize.shared_join_merges)
      .KV("channel_merges", optimize.channel_merges)
      .KV("dynamic_adds", optimize.dynamic_adds)
      .KV("dynamic_removes", optimize.dynamic_removes)
      .KV("incremental_cse_merges", optimize.incremental_cse_merges)
      .KV("incremental_attach_merges", optimize.incremental_attach_merges)
      .KV("incremental_rule_merges", optimize.incremental_rule_merges)
      .KV("pruned_mops", optimize.pruned_mops)
      .KV("pruned_members", optimize.pruned_members)
      .EndObject();
  w.Key("fast_paths")
      .BeginObject()
      .Key("program")
      .BeginObject()
      .KV("fused", data_plane.program_fused)
      .KV("typed", data_plane.program_typed)
      .KV("generic", data_plane.program_generic)
      .KV("typed_fallbacks", data_plane.program_typed_fallbacks)
      .KV("vectorized_share", data_plane.vectorized_share())
      .EndObject()
      .Key("predicate_index")
      .BeginObject()
      .KV("flat_probes", flat_probes)
      .KV("map_probes", map_probes)
      .KV("flat_share", flat_probe_share())
      .EndObject()
      .Key("tuple_arena")
      .BeginObject()
      .KV("requests", data_plane.arena_requests)
      .KV("heap_allocations", data_plane.arena_heap_allocations)
      .KV("recycle_hit_rate", data_plane.arena_recycle_hit_rate())
      .KV("pooled", data_plane.arena_pooled)
      .KV("outstanding", data_plane.arena_outstanding)
      .EndObject()
      .EndObject();
  w.Key("latency")
      .BeginObject()
      .KV("count", latency.count())
      .KV("mean_ns", latency.mean())
      .KV("min_ns", latency.min())
      .KV("p50_ns", latency.p50())
      .KV("p90_ns", latency.p90())
      .KV("p99_ns", latency.p99())
      .KV("p999_ns", latency.p999())
      .KV("max_ns", latency.max())
      .EndObject();
  w.Key("memory")
      .BeginObject()
      .KV("arena_bytes_outstanding", data_plane.arena_bytes_outstanding)
      .KV("arena_bytes_pooled", data_plane.arena_bytes_pooled)
      .KV("mop_state_bytes", mop_state_bytes)
      .Key("share_index")
      .BeginObject()
      .KV("present", share_index.present)
      .KV("exact_entries", share_index.exact_entries)
      .KV("member_entries", share_index.member_entries)
      .KV("index_target_entries", share_index.index_target_entries)
      .KV("sel_single_entries", share_index.sel_single_entries)
      .KV("agg_target_entries", share_index.agg_target_entries)
      .KV("posting_entries", share_index.posting_entries)
      .KV("approx_bytes", share_index.approx_bytes)
      .EndObject()
      .EndObject();
  w.Key("shard_rows").BeginArray();
  for (const ShardRow& s : shard_rows) {
    w.BeginObject()
        .KV("shard", s.shard)
        .KV("deliveries", s.deliveries)
        .KV("program_fused", s.counters.program_fused)
        .KV("program_typed", s.counters.program_typed)
        .KV("program_generic", s.counters.program_generic)
        .KV("program_typed_fallbacks", s.counters.program_typed_fallbacks)
        .KV("arena_requests", s.counters.arena_requests)
        .KV("arena_heap_allocations", s.counters.arena_heap_allocations)
        .KV("arena_pooled", s.counters.arena_pooled)
        .KV("arena_outstanding", s.counters.arena_outstanding)
        .KV("arena_bytes_outstanding", s.counters.arena_bytes_outstanding)
        .KV("arena_bytes_pooled", s.counters.arena_bytes_pooled)
        .KV("in_depth_hwm", static_cast<int64_t>(s.in_depth_hwm))
        .KV("out_depth_hwm", static_cast<int64_t>(s.out_depth_hwm))
        .KV("push_stall_ns", s.push_stall_ns)
        .KV("worker_stall_ns", s.worker_stall_ns)
        .KV("merge_lag_hwm", static_cast<int64_t>(s.merge_lag_hwm))
        .EndObject();
  }
  w.EndArray();
  w.Key("mops").BeginArray();
  for (const MopRow& row : mops) {
    w.BeginObject()
        .KV("id", static_cast<int64_t>(row.id))
        .KV("name", row.name)
        .KV("type", row.type)
        .KV("members", row.members)
        .KV("query_refs", row.query_refs)
        .KV("tuples_in", row.m.tuples_in)
        .KV("tuples_out", row.m.tuples_out)
        .KV("selectivity", row.m.selectivity())
        .KV("batches", row.m.batches)
        .KV("sampled_evals", row.m.sampled_evals)
        .KV("sampled_tuples", row.m.sampled_tuples)
        .KV("eval_ns", row.m.eval_ns)
        .KV("ns_per_tuple", row.m.ns_per_tuple())
        .KV("eval_p50_ns", row.m.eval_hist.p50())
        .KV("eval_p99_ns", row.m.eval_hist.p99())
        .KV("state_bytes", row.state_bytes)
        .EndObject();
  }
  w.EndArray();
  w.Key("queries").BeginArray();
  for (const QueryRow& q : query_rows) {
    w.BeginObject().KV("name", q.name).KV("outputs", q.outputs).EndObject();
  }
  w.EndArray();
  w.EndObject();
  return w.str();
}

}  // namespace rumor
