// Batched dispatch cases the MQO oracle (mqo_oracle_test) does not reach:
// shared MIN/MAX aggregation against the naive per-query oracle under both
// dispatch modes, a sink handler that pushes back into the executor from
// inside a batch, and PushChannelBatch into a source-group channel.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <vector>

#include "api/stream_engine.h"
#include "mop_test_util.h"
#include "plan/compile.h"
#include "plan/executor.h"
#include "query/builder.h"
#include "rules/rule_engine.h"
#include "workload/perfmon.h"
#include "workload/workloads.h"

namespace rumor {
namespace {

TEST(BatchEquivalenceTest, SharedMinMaxAggregationMatchesOracle) {
  // N MIN + N MAX queries with distinct windows over one source; rule sα
  // merges each function group into one shared engine. Every dispatch mode
  // must deliver what the naive oracle computes for each query alone.
  PerfmonParams params;
  params.num_processes = 6;
  params.duration_seconds = 200;
  const std::vector<Tuple> trace = GeneratePerfmonTrace(params);

  std::vector<Query> queries;
  std::map<std::string, std::vector<std::string>> expected;
  Schema schema = PerfmonSchema();
  const int pid = *schema.IndexOf("pid");
  const int load = *schema.IndexOf("load");
  for (int i = 0; i < 4; ++i) {
    for (AggFn fn : {AggFn::kMin, AggFn::kMax}) {
      const int64_t window = fn == AggFn::kMin ? 10 + 13 * i : 7 + 11 * i;
      const std::string name =
          (fn == AggFn::kMin ? "MIN" : "MAX") + std::to_string(i);
      queries.push_back(QueryBuilder::FromSource("CPU", schema)
                            .Aggregate(fn, "load", {"pid"}, window)
                            .Build(name));
      Oracle oracle(fn, load, {pid}, window);
      for (const Tuple& t : trace) {
        expected[name].push_back(oracle.Push(t).ToString());
      }
    }
  }

  for (size_t batch : {1, 7, 64}) {
    StreamEngine engine;
    ASSERT_TRUE(engine.RegisterSource("CPU", schema).ok());
    for (const Query& q : queries) ASSERT_TRUE(engine.AddQuery(q).ok());
    std::map<std::string, std::vector<std::string>> outputs;
    engine.SetOutputHandler([&](const std::string& q, const Tuple& t) {
      outputs[q].push_back(t.ToString());
    });
    ASSERT_TRUE(engine.Start().ok());
    for (size_t i = 0; i < trace.size(); i += batch) {
      const size_t n = std::min(batch, trace.size() - i);
      ASSERT_TRUE(engine.PushBatch("CPU", {trace.data() + i, n}).ok());
    }
    EXPECT_EQ(outputs, expected) << "batch " << batch;
  }
}

// A sink handler may push back into the executor from inside a batch; the
// nested tuples must be deferred until the batch's own tuples have reached
// their consumers (running them mid-batch would deliver a later timestamp
// ahead of buffered earlier ones). With independent sources, both dispatch
// modes must agree on every query's output.
TEST(BatchEquivalenceTest, ReentrantSinkPushIsDeferred) {
  Schema schema = Schema::MakeInts(2);
  Query qa = QueryBuilder::FromSource("A", schema)
                 .Aggregate(AggFn::kMin, "a1", {}, 10)
                 .Build("QA");
  Query qb = QueryBuilder::FromSource("B", schema)
                 .Count({}, 5)
                 .Build("QB");

  class FeedbackSink : public CollectingSink {
   public:
    Executor* exec = nullptr;
    StreamId b_stream = -1;
    StreamId a_out = -1;
    void OnOutput(StreamId stream, const Tuple& t) override {
      CollectingSink::OnOutput(stream, t);
      if (stream == a_out && pushed_ < 50) {
        ++pushed_;
        exec->PushSource(b_stream, Tuple::MakeInts({9, pushed_}, t.ts()));
      }
    }

   private:
    int pushed_ = 0;
  };

  auto run = [&](int64_t batch_size) {
    Plan plan;
    auto compiled = CompileQueries({qa, qb}, &plan);
    RUMOR_CHECK(compiled.ok()) << compiled.status().ToString();
    Optimize(&plan);
    FeedbackSink sink;
    Executor exec(&plan, &sink);
    exec.Prepare();
    sink.exec = &exec;
    sink.b_stream = *plan.streams().FindSource("B");
    sink.a_out = *plan.OutputStreamOf("QA");
    StreamId a = *plan.streams().FindSource("A");
    std::vector<Tuple> feed;
    Rng rng(17);
    for (int ts = 0; ts < 100; ++ts) {
      feed.push_back(Tuple::MakeInts({ts, rng.UniformInt(0, 99)}, ts));
    }
    if (batch_size == 0) {
      for (const Tuple& t : feed) exec.PushSource(a, t);
    } else {
      exec.PushSourceBatch(a, feed);
    }
    auto render = [&](const char* q) {
      std::vector<std::string> out;
      for (const Tuple& t : sink.ForStream(*plan.OutputStreamOf(q))) {
        out.push_back(t.ToString());
      }
      return out;
    };
    return std::make_pair(render("QA"), render("QB"));
  };

  auto reference = run(0);
  auto batched = run(64);
  EXPECT_EQ(batched.first, reference.first);
  EXPECT_EQ(batched.second, reference.second);
  EXPECT_EQ(reference.second.size(), 50u);
}

TEST(BatchEquivalenceTest, W3ChannelBatches) {
  // Workload 3 feeds a source-group channel directly; PushChannelBatch must
  // match per-tuple PushChannel. The plan joins the channel against T, so
  // the channel root is batch-unsafe and exercises the fallback.
  const int n = 6;
  Schema schema = SyntheticParams().MakeSchema();
  std::vector<Query> queries;
  for (int i = 0; i < n; ++i) {
    queries.push_back(MakeW3Query("Q" + std::to_string(i), i, 50, schema));
  }
  auto run = [&](bool batched) {
    Plan plan;
    auto compiled = CompileQueries(queries, &plan);
    RUMOR_CHECK(compiled.ok());
    OptimizerOptions opts;
    opts.enable_channels = true;
    Optimize(&plan, opts);
    CollectingSink sink;
    Executor exec(&plan, &sink);
    exec.Prepare();
    auto groups = plan.SourceGroupChannels();
    RUMOR_CHECK(groups.size() == 1);
    StreamId t_stream = *plan.streams().FindSource("T");
    Rng rng(5);
    std::vector<ChannelTuple> pending;
    for (int r = 0; r < 200; ++r) {
      Tuple s = Tuple::MakeInts({rng.UniformInt(0, 3), 0}, 2 * r);
      ChannelTuple ct{s, BitVector::AllOnes(n)};
      if (batched) {
        pending.push_back(ct);
      } else {
        exec.PushChannel(groups[0], ct);
      }
      if (r % 8 == 7) {
        if (batched) {
          exec.PushChannelBatch(groups[0], pending);
          pending.clear();
        }
        Tuple t = Tuple::MakeInts({rng.UniformInt(0, 3), 0}, 2 * r + 1);
        exec.PushSource(t_stream, t);
      }
    }
    exec.PushChannelBatch(groups[0], pending);
    std::map<std::string, std::vector<std::string>> outputs;
    for (const Query& q : queries) {
      for (const Tuple& t : sink.ForStream(*plan.OutputStreamOf(q.name))) {
        outputs[q.name].push_back(t.ToString());
      }
    }
    return std::make_pair(outputs, exec.deliveries());
  };
  auto per_tuple = run(false);
  auto batched = run(true);
  EXPECT_EQ(batched.first, per_tuple.first);
  EXPECT_EQ(batched.second, per_tuple.second);
  int64_t total = 0;
  for (const auto& [name, tuples] : per_tuple.first) total += tuples.size();
  EXPECT_GT(total, 0);
}

}  // namespace
}  // namespace rumor
