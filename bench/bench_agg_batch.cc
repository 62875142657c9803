// Fig-10-style aggregation benchmark for the batched executor and the shared
// window aggregation engine: N MIN-window queries with distinct windows over
// one perfmon-like source, merged by rule sα into a single shared
// aggregation m-op. Sweeps the dispatch mode: event-at-a-time PushSource
// (batch 1) vs PushSourceBatch at several batch sizes.
//
// Prints a table and writes BENCH_agg_batch.json (machine-readable record
// with the core count and build type; speedups are relative to batch 1).
#include <cinttypes>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "bench/figure_common.h"
#include "query/builder.h"
#include "workload/perfmon.h"

using namespace rumor;
using namespace rumor::bench;

namespace {

struct Cell {
  int64_t batch;  // 1 = event-at-a-time
  double events_per_sec = 0;
  double outputs_per_sec = 0;
  int64_t outputs = 0;
};

}  // namespace

int main() {
  Scale scale = GetScale();
  const int num_queries = 20;
  const int64_t base_window = scale.full ? 600 : 200;

  PerfmonParams params;
  params.num_processes = 16;
  params.duration_seconds =
      (scale.full ? 100000 : 30000) / params.num_processes;
  auto trace = GeneratePerfmonTrace(params);
  std::vector<Event> events;
  events.reserve(trace.size());
  for (const Tuple& t : trace) events.push_back(Event{0, t});
  const int64_t warmup = static_cast<int64_t>(events.size()) / 10;

  Schema schema = PerfmonSchema();
  std::vector<Query> queries;
  for (int i = 0; i < num_queries; ++i) {
    queries.push_back(
        QueryBuilder::FromSource("CPU", schema)
            .Aggregate(AggFn::kMin, "load", {"pid"},
                       base_window + 37 * i)
            .Build("Q" + std::to_string(i)));
  }

  const int cores = static_cast<int>(std::thread::hardware_concurrency());
  std::printf("# agg-batch — %d MIN-window queries (sα-merged), %" PRId64
              " events, windows %" PRId64 "..%" PRId64 ", %d cores, %s\n",
              num_queries, static_cast<int64_t>(events.size()), base_window,
              base_window + 37 * (num_queries - 1), cores, RUMOR_BUILD_TYPE);
  std::printf("%8s %16s %16s %10s\n", "batch", "events/s", "outputs/s",
              "speedup");

  std::vector<Cell> cells;
  for (int64_t batch : {int64_t{1}, int64_t{16}, int64_t{64}, int64_t{256},
                        int64_t{1024}}) {
    // Best of 3 repetitions (steady-state throughput; shields the recorded
    // numbers from scheduler noise).
    Cell cell{batch};
    for (int rep = 0; rep < 3; ++rep) {
      RumorRun run = batch == 1
                         ? RunRumor(queries, OptimizerOptions{}, events,
                                    warmup, {"CPU"})
                         : RunRumorBatched(queries, OptimizerOptions{},
                                           events, warmup, batch, {"CPU"});
      if (run.result.EventsPerSecond() > cell.events_per_sec) {
        cell.events_per_sec = run.result.EventsPerSecond();
        cell.outputs_per_sec = run.result.OutputsPerSecond();
      }
      cell.outputs = run.result.outputs;
    }
    cells.push_back(cell);
  }

  const double baseline = cells[0].events_per_sec;  // batch 1
  for (const Cell& c : cells) {
    std::printf("%8" PRId64 " %16.0f %16.0f %9.2fx\n", c.batch,
                c.events_per_sec, c.outputs_per_sec,
                c.events_per_sec / baseline);
  }
  for (size_t i = 1; i < cells.size(); ++i) {
    RUMOR_CHECK(cells[i].outputs == cells[0].outputs)
        << "configurations disagree on output count";
  }

  JsonWriter w;
  w.BeginObject()
      .KV("bench", "agg_batch")
      .KV("num_queries", num_queries)
      .KV("events", static_cast<int64_t>(events.size()))
      .KV("cores", cores)
      .KV("build_type", RUMOR_BUILD_TYPE)
      .KV("baseline", "batch 1 (event-at-a-time dispatch)");
  w.Key("rows").BeginArray();
  for (const Cell& c : cells) {
    w.BeginObject()
        .KV("batch", c.batch)
        .Key("events_per_sec")
        .Double(c.events_per_sec, 10)
        .Key("outputs_per_sec")
        .Double(c.outputs_per_sec, 10)
        .Key("speedup")
        .Double(c.events_per_sec / baseline, 4)
        .EndObject();
  }
  w.EndArray().EndObject();
  WriteReport("BENCH_agg_batch.json", w.str());
  return 0;
}
