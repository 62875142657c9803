// Shared scaffolding for the paper reproduction (bench_figures) and the
// scaling benches. Scale is controlled by RUMOR_BENCH_SCALE:
//   quick (default) — small tuple counts / query caps, finishes in seconds;
//   full            — the paper's scale (100k+ tuples, up to 100k queries).
#ifndef RUMOR_BENCH_FIGURE_COMMON_H_
#define RUMOR_BENCH_FIGURE_COMMON_H_

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "common/json_writer.h"
#include "workload/harness.h"
#include "workload/workloads.h"

namespace rumor {
namespace bench {

// Writes a (JSON) report next to the working directory; all BENCH_*.json
// emitters build their document with JsonWriter and land here.
inline bool WriteReport(const char* path, const std::string& content) {
  RUMOR_CHECK(JsonLint(content)) << "invalid JSON for " << path;
  FILE* f = std::fopen(path, "w");
  if (f == nullptr) return false;
  std::fwrite(content.data(), 1, content.size(), f);
  std::fclose(f);
  std::printf("# wrote %s\n", path);
  return true;
}

struct Scale {
  int64_t tuples = 30000;        // events per measurement
  int64_t warmup = 3000;         // untimed warm-up events
  int max_queries = 10000;       // cap on query-count sweeps
  bool full = false;
};

inline Scale GetScale() {
  Scale s;
  const char* env = std::getenv("RUMOR_BENCH_SCALE");
  if (env != nullptr && std::strcmp(env, "full") == 0) {
    s.tuples = 100000;
    s.warmup = 10000;
    s.max_queries = 100000;
    s.full = true;
  }
  return s;
}

// Batch size for the batched-dispatch column (RUMOR_BENCH_BATCH, default
// 256). The W1/W2 feeds alternate S/T strictly, so same-stream runs are
// length 1 and the column measures the batch API's fallback overhead; the
// single-source feeds of bench_shard_scaling and perfbench's window_agg
// give batching runs to work with.
inline int64_t GetBatchSize() {
  const char* env = std::getenv("RUMOR_BENCH_BATCH");
  if (env != nullptr) {
    int64_t v = std::atoll(env);
    if (v > 0) return v;
  }
  return 256;
}

inline void PrintHeader(const char* figure, const char* x_name,
                        const char* description) {
  std::printf("# %s — %s\n", figure, description);
  std::printf("# normalized values are relative to each system's first row "
              "(paper §5.2 methodology); rumor_batch uses "
              "PushSourceBatch(batch=%lld)\n",
              static_cast<long long>(GetBatchSize()));
  std::printf("%-12s %16s %16s %16s %12s %12s\n", x_name, "rumor_ev/s",
              "rumor_batch", "cayuga_ev/s", "rumor_norm", "cayuga_norm");
}

struct Row {
  int64_t x;
  double rumor = 0;
  double rumor_batch = 0;
  double cayuga = 0;
};

inline void PrintRows(const std::vector<Row>& rows) {
  double rumor_base = rows.empty() || rows[0].rumor == 0 ? 1 : rows[0].rumor;
  double cayuga_base =
      rows.empty() || rows[0].cayuga == 0 ? 1 : rows[0].cayuga;
  for (const Row& r : rows) {
    std::printf("%-12lld %16.0f %16.0f %16.0f %12.3f %12.3f\n",
                static_cast<long long>(r.x), r.rumor, r.rumor_batch, r.cayuga,
                r.rumor / rumor_base, r.cayuga / cayuga_base);
  }
}

// One synthetic workload built for both engines: the same specs as RUMOR
// queries and as Cayuga automata, and one interleaved S/T feed.
struct Matched {
  std::vector<Query> queries;
  std::vector<CayugaAutomaton> automata;
  std::vector<Event> events;
};

// Workload 1 (`workload` 1) or Workload 2 (2; `iterate` selects the µ
// variant of Fig. 10b).
inline Matched BuildMatched(const SyntheticParams& params, int workload,
                            bool iterate = false) {
  Rng rng(params.seed);
  Schema schema = params.MakeSchema();
  Matched m;
  auto add = [&](const auto& specs, auto make_query, auto make_automaton) {
    for (size_t i = 0; i < specs.size(); ++i) {
      std::string name = "Q" + std::to_string(i);
      m.queries.push_back(make_query(name, specs[i], schema));
      m.automata.push_back(make_automaton(name, specs[i], schema));
    }
  };
  if (workload == 1) {
    add(DrawW1Specs(params, rng), MakeW1Query, MakeW1Automaton);
  } else {
    add(DrawW2Specs(params, iterate, rng), MakeW2Query, MakeW2Automaton);
  }
  Rng feed_rng(params.seed ^ 0xfeed);
  m.events = GenerateInterleaved(params, params.num_tuples, 0, feed_rng);
  return m;
}

// Measures RUMOR (per tuple and batched) and Cayuga on one workload. All
// three must deliver the same number of results, counted per query.
inline Row MeasureSynthetic(const SyntheticParams& params, int workload,
                            bool iterate, int64_t warmup) {
  Matched m = BuildMatched(params, workload, iterate);
  RumorRun rumor = RunRumor(m.queries, OptimizerOptions{}, m.events, warmup);
  RumorRun batched = RunRumorBatched(m.queries, OptimizerOptions{}, m.events,
                                     warmup, GetBatchSize());
  CayugaRun cayuga =
      RunCayuga(m.automata, CayugaEngine::Options{}, m.events, warmup);
  RUMOR_CHECK(rumor.result.outputs == cayuga.result.outputs &&
              batched.result.outputs == cayuga.result.outputs)
      << "results disagree: rumor " << rumor.result.outputs << ", batched "
      << batched.result.outputs << ", cayuga " << cayuga.result.outputs;
  return Row{0, rumor.result.EventsPerSecond(),
             batched.result.EventsPerSecond(),
             cayuga.result.EventsPerSecond()};
}

}  // namespace bench
}  // namespace rumor

#endif  // RUMOR_BENCH_FIGURE_COMMON_H_
