// Shard-scaling benchmark: the fig9-style predicate-index workload (100
// selection queries σ(a0 = c AND a1 <= r) over one source, sσ-merged into a
// single predicate-index m-op) pushed through StreamEngine at shard counts
// 1..max(4, hw_concurrency). One shard is the single-threaded executor.
//
// Two workload rows per shard count:
//   * selection — the stateless σ plan; AnalyzeSharding routes the source
//     round-robin (kAny), so every worker sees 1/n of the events.
//   * aggregate — the σ plan plus GROUP BY a0 aggregates; the source is
//     hash-partitioned on a0 (kKey), so scaling additionally depends on key
//     skew and the per-tuple routing hash.
//
// Every row is end to end: PushBatch of 256 tuples to an output handler
// that counts each call, and the final Flush is inside the timed region, so
// events/s and outputs/s cover routing, processing, the ordered merge and
// delivery. Every shard count must deliver each query what one shard
// delivers it (OutputCount). Writes BENCH_shard_scaling.json with
// hardware_concurrency and the build type recorded; a row whose workers
// plus the pushing thread exceed the cores is marked oversubscribed.
#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "api/stream_engine.h"
#include "bench/figure_common.h"
#include "common/json_writer.h"
#include "common/str_util.h"
#include "query/builder.h"

using namespace rumor;
using namespace rumor::bench;

namespace {

struct Cell {
  const char* workload;
  int shards;
  double events_per_sec = 0;
  double outputs_per_sec = 0;
  int64_t outputs = 0;
  // OutputCount per query over the whole feed.
  std::vector<int64_t> query_outputs = {};
};

// One end-to-end run: `events[0, warm)` untimed, then the rest and the
// final Flush timed. Keeps the fastest repetition in `cell`.
void Measure(const std::vector<Query>& queries, const Schema& schema,
             const std::vector<Tuple>& events, int64_t warm, int64_t batch,
             Cell* cell) {
  StreamEngine engine;
  RUMOR_CHECK(engine.SetShardCount(cell->shards).ok());
  RUMOR_CHECK(engine.RegisterSource("S", schema).ok());
  for (const Query& q : queries) RUMOR_CHECK(engine.AddQuery(q).ok());
  int64_t calls = 0;
  engine.SetOutputHandler([&calls](const std::string&, const Tuple&) {
    ++calls;
  });
  RUMOR_CHECK(engine.Start().ok());
  const std::span<const Tuple> feed(events);
  auto push = [&](int64_t from, int64_t to) {
    for (int64_t i = from; i < to; i += batch) {
      const Status st =
          engine.PushBatch("S", feed.subspan(i, std::min(batch, to - i)));
      RUMOR_CHECK(st.ok()) << st.ToString();
    }
    engine.Flush();
  };
  const int64_t n = static_cast<int64_t>(events.size());
  push(0, warm);
  const int64_t calls_before = calls;
  Stopwatch timer;
  push(warm, n);
  ThroughputResult result;
  result.seconds = timer.ElapsedSeconds();
  result.events = n - warm;
  result.outputs = calls - calls_before;

  if (result.EventsPerSecond() > cell->events_per_sec) {
    cell->events_per_sec = result.EventsPerSecond();
    cell->outputs_per_sec = result.OutputsPerSecond();
  }
  cell->outputs = result.outputs;
  cell->query_outputs.clear();
  for (const Query& q : queries) {
    cell->query_outputs.push_back(engine.OutputCount(q.name));
  }
}

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
                                    .Build(StrCat("Q", i)));
  }
  // Same shape plus windowed GROUP BY a0 aggregates: keys the source.
  std::vector<Query> aggregate_queries = selection_queries;
  for (int i = 0; i < 20; ++i) {
    aggregate_queries.push_back(
        QueryBuilder::FromSource("S", schema)
            .Aggregate(i % 2 == 0 ? AggFn::kSum : AggFn::kAvg, "a1", {"a0"},
                       16 + 8 * (i % 4))
            .Build(StrCat("G", i)));
  }

  const int64_t n = tiny > 0 ? tiny : num_events;
  std::vector<Tuple> events;
  events.reserve(n);
  std::vector<int64_t> attrs(10);
  for (int64_t i = 0; i < n; ++i) {
    for (int64_t& a : attrs) a = rng.UniformInt(0, domain - 1);
    events.push_back(Tuple::MakeInts(attrs, i));
  }
  const int64_t warm = n / 10;
  const int64_t batch = 256;

  std::printf("# shard_scaling — %d σ queries (+20 GROUP BY for the keyed "
              "row), %" PRId64 " events, StreamEngine PushBatch %" PRId64
              ", hardware_concurrency %d, %s\n",
              num_queries, n, batch, hw, RUMOR_BUILD_TYPE);
  std::printf("%-10s %8s %16s %16s %10s\n", "workload", "shards", "events/s",
              "outputs/s", "vs_1");

  std::vector<Cell> cells;
  struct Group {
    const char* name;
    const std::vector<Query>* queries;
  };
  const Group groups[] = {{"selection", &selection_queries},
                          {"aggregate", &aggregate_queries}};
  for (const Group& g : groups) {
    const size_t first = cells.size();
    for (int shards = 1; shards <= max_shards; ++shards) {
      Cell cell{g.name, shards};
      for (int rep = 0; rep < 3; ++rep) {
        Measure(*g.queries, schema, events, warm, batch, &cell);
      }
      // Sharding may reorder deliveries but never add or drop any.
      const Cell& one = shards == 1 ? cell : cells[first];
      for (size_t q = 0; q < g.queries->size(); ++q) {
        RUMOR_CHECK(cell.query_outputs[q] == one.query_outputs[q])
            << g.name << " shards=" << shards << " query "
            << (*g.queries)[q].name << ": " << cell.query_outputs[q]
            << " outputs vs " << one.query_outputs[q] << " on one shard";
      }
      std::printf("%-10s %8d %16.0f %16.0f %9.2fx\n", g.name, shards,
                  cell.events_per_sec, cell.outputs_per_sec,
                  one.events_per_sec > 0
                      ? cell.events_per_sec / one.events_per_sec
                      : 0.0);
      cells.push_back(std::move(cell));
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
      .KV("path", "StreamEngine PushBatch to a counting output handler, "
                  "Flush timed; per-query OutputCount equal at every shard "
                  "count")
      .KV("hardware_concurrency", hw)
      .KV("build_type", RUMOR_BUILD_TYPE)
      .KV("max_shards", max_shards);
  if (tiny > 0) w.KV("tiny", true);
  w.Key("rows").BeginArray();
  for (const Cell& c : cells) {
    w.BeginObject()
        .KV("workload", c.workload)
        .KV("executor", c.shards == 1 ? "single-threaded" : "sharded")
        .KV("shards", c.shards)
        .KV("oversubscribed", c.shards > 1 && c.shards + 1 > hw)
        .Key("events_per_sec")
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
