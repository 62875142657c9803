#include "workload/harness.h"

namespace rumor {

namespace {

// Output stream of each query. CSE-merged queries share one stream, so a
// result on it counts once per query reading it, as a Cayuga run (and
// perfbench's outputs_per_s) counts it.
std::vector<StreamId> QueryStreams(const Plan& plan,
                                   const std::vector<Query>& queries) {
  std::vector<StreamId> streams;
  for (const Query& q : queries) {
    auto id = plan.OutputStreamOf(q.name);
    RUMOR_CHECK(id.has_value()) << "no output stream for " << q.name;
    streams.push_back(*id);
  }
  return streams;
}

// Results delivered so far, summed over the queries.
int64_t QueryOutputs(const CountingSink& sink,
                     const std::vector<StreamId>& streams) {
  int64_t total = 0;
  for (StreamId s : streams) total += sink.ForStream(s);
  return total;
}

// Shared measurement scaffolding: compile + optimize, then push events
// [0, warmup) untimed and [warmup, n) timed via `push_range(exec, streams,
// from, to)` — the one thing the per-tuple and batched runners differ in.
template <typename PushRange>
RumorRun MeasureRumor(const std::vector<Query>& queries,
                      const OptimizerOptions& options,
                      const std::vector<Event>& events, int64_t warmup,
                      const std::vector<std::string>& stream_names,
                      const PushRange& push_range) {
  RumorRun run;
  Plan plan;
  auto compiled = CompileQueries(queries, &plan);
  RUMOR_CHECK(compiled.ok()) << compiled.status().ToString();
  run.optimize_stats = Optimize(&plan, options);
  run.live_mops = static_cast<int>(plan.LiveMops().size());

  CountingSink sink;
  sink.Reserve(static_cast<StreamId>(plan.streams().size()));
  Executor exec(&plan, &sink);
  exec.Prepare();
  std::vector<StreamId> streams;
  for (const std::string& name : stream_names) {
    auto id = plan.streams().FindSource(name);
    RUMOR_CHECK(id.has_value()) << "unknown source " << name;
    streams.push_back(*id);
  }
  const std::vector<StreamId> query_streams = QueryStreams(plan, queries);

  const int64_t n = static_cast<int64_t>(events.size());
  const int64_t measured_from = std::min(warmup, n);
  push_range(exec, streams, int64_t{0}, measured_from);
  const int64_t outputs_before = QueryOutputs(sink, query_streams);
  Stopwatch timer;
  push_range(exec, streams, measured_from, n);
  run.result.seconds = timer.ElapsedSeconds();
  run.result.events = n - measured_from;
  run.result.outputs = QueryOutputs(sink, query_streams) - outputs_before;
  return run;
}

}  // namespace

RumorRun RunRumor(const std::vector<Query>& queries,
                  const OptimizerOptions& options,
                  const std::vector<Event>& events, int64_t warmup,
                  const std::vector<std::string>& stream_names) {
  return MeasureRumor(
      queries, options, events, warmup, stream_names,
      [&](Executor& exec, const std::vector<StreamId>& streams, int64_t from,
          int64_t to) {
        for (int64_t i = from; i < to; ++i) {
          exec.PushSource(streams[events[i].stream], events[i].tuple);
        }
      });
}

RumorRun RunRumorBatched(const std::vector<Query>& queries,
                         const OptimizerOptions& options,
                         const std::vector<Event>& events, int64_t warmup,
                         int64_t batch_size,
                         const std::vector<std::string>& stream_names) {
  RUMOR_CHECK(batch_size > 0);
  std::vector<Tuple> batch;
  batch.reserve(batch_size);
  // Pushes maximal same-stream runs of <= batch_size tuples.
  return MeasureRumor(
      queries, options, events, warmup, stream_names,
      [&](Executor& exec, const std::vector<StreamId>& streams, int64_t from,
          int64_t to) {
        int64_t i = from;
        while (i < to) {
          const int stream = events[i].stream;
          batch.clear();
          while (i < to && events[i].stream == stream &&
                 static_cast<int64_t>(batch.size()) < batch_size) {
            batch.push_back(events[i].tuple);
            ++i;
          }
          exec.PushSourceBatch(streams[stream], batch);
        }
      });
}

CayugaRun RunCayuga(const std::vector<CayugaAutomaton>& automata,
                    const CayugaEngine::Options& options,
                    const std::vector<Event>& events, int64_t warmup,
                    const std::vector<std::string>& stream_names) {
  CayugaRun run;
  CayugaEngine engine(options);
  for (const CayugaAutomaton& a : automata) engine.AddAutomaton(a);
  run.num_nodes = engine.num_nodes();
  int64_t outputs = 0;
  engine.SetOutputHandler([&](int, const Tuple&) { ++outputs; });

  int64_t i = 0;
  const int64_t n = static_cast<int64_t>(events.size());
  for (; i < warmup && i < n; ++i) {
    engine.OnEvent(stream_names[events[i].stream], events[i].tuple);
  }
  const int64_t outputs_before = outputs;
  Stopwatch timer;
  for (; i < n; ++i) {
    engine.OnEvent(stream_names[events[i].stream], events[i].tuple);
  }
  run.result.seconds = timer.ElapsedSeconds();
  run.result.events = n - warmup;
  run.result.outputs = outputs - outputs_before;
  return run;
}

}  // namespace rumor
