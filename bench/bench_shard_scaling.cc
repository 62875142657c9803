// Shard-scaling benchmark: the fig9-style predicate-index workload (100
// selection queries σ(a0 = c AND a1 <= r) over one source, sσ-merged into a
// single predicate-index m-op) pushed through the partition-parallel
// ShardedExecutor at shard counts 1..max(4, hw_concurrency), against the
// plain single-threaded executor as baseline.
//
// Two workload rows per shard count:
//   * selection — the stateless σ plan; AnalyzeSharding routes the source
//     round-robin (kAny), so every worker sees 1/n of the events. The
//     embarrassingly parallel upper bound.
//   * aggregate — the σ plan plus GROUP BY a0 aggregates; the source is
//     hash-partitioned on a0 (kKey), so scaling additionally depends on key
//     skew and the per-tuple routing hash.
//
// The sharded rows run the executor in lanes mode: each shard delivers
// into its own counting sink on its worker thread. The timed region
// includes the final Flush(): reported events/s and outputs/s cover full
// processing and delivery, not just enqueueing. Writes
// BENCH_shard_scaling.json with hardware_concurrency and the build type
// recorded — scaling numbers are only meaningful relative to the cores
// actually available (a 1-core host shows the machinery's overhead, not
// speedup) and from a Release build.
#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "bench/figure_common.h"
#include "common/json_writer.h"
#include "common/str_util.h"
#include "query/builder.h"

using namespace rumor;
using namespace rumor::bench;

namespace {

struct Cell {
  const char* workload;
  int shards;  // 0 = single-threaded baseline executor
  double events_per_sec = 0;
  double outputs_per_sec = 0;
  int64_t outputs = 0;

  // Keeps the fastest of the repetitions (steady-state throughput).
  void Record(const RumorRun& run) {
    if (run.result.EventsPerSecond() > events_per_sec) {
      events_per_sec = run.result.EventsPerSecond();
      outputs_per_sec = run.result.OutputsPerSecond();
    }
    outputs = run.result.outputs;
  }
};

}  // namespace

int main() {
  Scale scale = GetScale();
  const int num_queries = 100;
  const int64_t domain = 50;
  const int64_t num_events = scale.full ? 600000 : 200000;
  const int64_t tiny = []() {
    const char* env = std::getenv("RUMOR_BENCH_TINY");
    return env != nullptr ? std::atoll(env) : int64_t{0};
  }();
  const int hw = static_cast<int>(std::thread::hardware_concurrency());
  const int max_shards = std::max(4, hw);

  Schema schema = Schema::MakeInts(10);
  Rng rng(7);
  std::vector<Query> selection_queries;
  for (int i = 0; i < num_queries; ++i) {
    std::string pred = "a0 = " + std::to_string(rng.UniformInt(0, domain - 1)) +
                       " AND a1 <= " +
                       std::to_string(rng.UniformInt(0, domain - 1));
    selection_queries.push_back(QueryBuilder::FromSource("S", schema)
                                    .Select(pred)
                                    .Build("Q" + std::to_string(i)));
  }
  // Same shape plus windowed GROUP BY a0 aggregates: keys the source.
  std::vector<Query> aggregate_queries = selection_queries;
  for (int i = 0; i < 20; ++i) {
    aggregate_queries.push_back(
        QueryBuilder::FromSource("S", schema)
            .Aggregate(i % 2 == 0 ? AggFn::kSum : AggFn::kAvg, "a1", {"a0"},
                       16 + 8 * (i % 4))
            .Build("G" + std::to_string(i)));
  }

  const int64_t n = tiny > 0 ? tiny : num_events;
  std::vector<Event> events;
  events.reserve(n);
  std::vector<int64_t> attrs(10);
  for (int64_t i = 0; i < n; ++i) {
    for (int64_t& a : attrs) a = rng.UniformInt(0, domain - 1);
    events.push_back(Event{0, Tuple::MakeInts(attrs, i)});
  }
  const int64_t warm = tiny > 0 ? 0 : n / 10;
  const int64_t batch = 256;

  std::printf("# shard_scaling — %d σ queries (+20 GROUP BY for the keyed "
              "row), %" PRId64 " events, batch %" PRId64
              ", hardware_concurrency %d, %s\n",
              num_queries, n, batch, hw, RUMOR_BUILD_TYPE);
  std::printf("%-10s %8s %16s %16s %10s\n", "workload", "shards", "events/s",
              "outputs/s", "vs_single");

  std::vector<Cell> cells;
  struct Group {
    const char* name;
    const std::vector<Query>* queries;
  };
  const Group groups[] = {{"selection", &selection_queries},
                          {"aggregate", &aggregate_queries}};
  for (const Group& g : groups) {
    double single = 0;
    // Baseline: the plain single-threaded executor, same batched feed.
    const int reps = tiny > 0 ? 1 : 3;
    {
      Cell cell{g.name, 0};
      for (int rep = 0; rep < reps; ++rep) {
        cell.Record(RunRumorBatched(*g.queries, OptimizerOptions{}, events,
                                    warm, batch, {"S"}));
      }
      single = cell.events_per_sec;
      cells.push_back(cell);
      std::printf("%-10s %8s %16.0f %16.0f %9.2fx\n", g.name, "single",
                  cell.events_per_sec, cell.outputs_per_sec, 1.0);
    }
    for (int shards = 1; shards <= max_shards; ++shards) {
      Cell cell{g.name, shards};
      for (int rep = 0; rep < reps; ++rep) {
        cell.Record(RunRumorSharded(*g.queries, OptimizerOptions{}, events,
                                    warm, batch, shards, {"S"}));
      }
      cells.push_back(cell);
      std::printf("%-10s %8d %16.0f %16.0f %9.2fx\n", g.name, shards,
                  cell.events_per_sec, cell.outputs_per_sec,
                  single > 0 ? cell.events_per_sec / single : 0.0);
    }
  }

  // Every configuration of a workload must agree on the output count —
  // sharding may reorder deliveries but never add or drop any.
  for (const Group& g : groups) {
    int64_t expect = -1;
    for (const Cell& c : cells) {
      if (std::string(c.workload) != g.name) continue;
      if (expect < 0) expect = c.outputs;
      RUMOR_CHECK(c.outputs == expect)
          << g.name << " shards=" << c.shards << ": " << c.outputs
          << " outputs vs " << expect;
    }
  }

  JsonWriter w;
  w.BeginObject()
      .KV("bench", "shard_scaling")
      .Key("workload")
      .String(StrCat(num_queries,
                     " sσ-merged selection queries (aggregate rows add 20 "
                     "GROUP BY a0 aggregates), 10-int schema, domain ",
                     domain))
      .KV("events", n)
      .KV("batch", batch)
      .KV("hardware_concurrency", hw)
      .KV("build_type", RUMOR_BUILD_TYPE)
      .KV("sharded_sink", "lanes (one counting sink per worker)")
      .KV("max_shards", max_shards);
  if (tiny > 0) w.KV("tiny", true);
  w.Key("rows").BeginArray();
  for (const Cell& c : cells) {
    w.BeginObject().KV("workload", c.workload);
    if (c.shards == 0) {
      w.KV("executor", "single-threaded");
    } else {
      w.KV("executor", "sharded").KV("shards", c.shards);
    }
    w.Key("events_per_sec")
        .Double(c.events_per_sec, 10)
        .Key("outputs_per_sec")
        .Double(c.outputs_per_sec, 10)
        .KV("outputs", c.outputs)
        .EndObject();
  }
  w.EndArray().EndObject();
  WriteReport("BENCH_shard_scaling.json", w.str());
  return 0;
}
