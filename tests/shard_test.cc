// Partition-parallel executor tests: the SPSC ring, the shard analysis
// (routing table derivation), the ordered merge, the shard-aware sinks,
// query churn on a running sharded engine, backpressure under tiny rings,
// and cross-shard metrics aggregation.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <regex>
#include <string>
#include <thread>
#include <vector>

#include "api/stream_engine.h"
#include "common/rng.h"
#include "labelled_sources.h"
#include "plan/compile.h"
#include "plan/shard.h"
#include "plan/sharded_executor.h"
#include "plan/spsc_queue.h"
#include "query/builder.h"
#include "rules/rule_engine.h"

namespace rumor {
namespace {

// --- SpscQueue ---------------------------------------------------------------

TEST(SpscQueueTest, PushPopFifo) {
  SpscQueue<int> q(3);  // rounds up to 4
  EXPECT_EQ(q.capacity(), 4u);
  for (int i = 0; i < 4; ++i) EXPECT_TRUE(q.TryPush(i));
  EXPECT_FALSE(q.TryPush(99)) << "full ring must reject";
  int v = -1;
  for (int i = 0; i < 4; ++i) {
    EXPECT_TRUE(q.TryPop(&v));
    EXPECT_EQ(v, i);
  }
  EXPECT_FALSE(q.TryPop(&v)) << "empty ring must reject";
}

TEST(SpscQueueTest, CloseWakesAndDrains) {
  SpscQueue<int> q(4);
  EXPECT_TRUE(q.TryPush(7));
  q.Close();
  EXPECT_TRUE(q.closed());
  int v = 0;
  EXPECT_TRUE(q.TryPop(&v)) << "items pushed before Close stay poppable";
  EXPECT_EQ(v, 7);
  q.WaitNotEmpty();  // must return immediately on a closed queue
}

TEST(SpscQueueTest, TwoThreadStress) {
  constexpr int kItems = 200000;
  SpscQueue<int> q(8);
  std::thread producer([&] {
    for (int i = 0; i < kItems; ++i) {
      while (!q.TryPush(i)) q.WaitNotFull();
    }
    q.Close();
  });
  int expected = 0;
  int v = -1;
  while (expected < kItems) {
    if (q.TryPop(&v)) {
      ASSERT_EQ(v, expected) << "FIFO order violated";
      ++expected;
    } else {
      q.WaitNotEmpty();
    }
  }
  producer.join();
  EXPECT_FALSE(q.TryPop(&v));
}

// --- AnalyzeSharding ---------------------------------------------------------

Schema IntSchema(int n) {
  std::vector<Attribute> attrs;
  for (int i = 0; i < n; ++i) {
    attrs.push_back({"a" + std::to_string(i), ValueType::kInt});
  }
  return Schema(attrs);
}

ShardPlan AnalyzeQueries(const std::vector<Query>& queries, int num_shards,
                         Plan* plan) {
  auto compiled = CompileQueries(queries, plan);
  RUMOR_CHECK(compiled.ok()) << compiled.status().ToString();
  Optimize(plan);
  return AnalyzeSharding(*plan, num_shards).value();
}

StreamId SourceId(const Plan& plan, const std::string& name) {
  auto id = plan.streams().FindSource(name);
  RUMOR_CHECK(id.has_value());
  return *id;
}

// The sharded engine routes labelled sources as the single engine does: the
// group channel's cα is keyed on its group-by across both sources, and the
// per-query outputs equal the channels-off engine's.
TEST(ShardedEngineTest, LabelledSourcesMatchChannelsOff) {
  std::string plan, unused;
  const auto got = RunLabelledSources(/*channels=*/true, 2, &plan);
  EXPECT_NE(plan.find("cα"), std::string::npos) << plan;
  EXPECT_EQ(got, RunLabelledSources(/*channels=*/false, 1, &unused));
  EXPECT_EQ(got.size(), 8u);
}

TEST(AnalyzeShardingTest, StatelessQueriesRouteAnywhere) {
  Plan plan;
  ShardPlan sp = AnalyzeQueries(
      {QueryBuilder::FromSource("S", IntSchema(3)).Select("a0 = 1").Build("Q1"),
       QueryBuilder::FromSource("S", IntSchema(3)).Select("a1 > 2").Build(
           "Q2")},
      4, &plan);
  EXPECT_EQ(sp.routes[SourceId(plan, "S")].mode, RouteMode::kAny);
  EXPECT_EQ(sp.keyed_sources, 0);
  EXPECT_EQ(sp.pinned_sources, 0);
}

TEST(AnalyzeShardingTest, GroupByKeysTheSource) {
  Plan plan;
  ShardPlan sp = AnalyzeQueries(
      {QueryBuilder::FromSource("S", IntSchema(3))
           .Aggregate(AggFn::kAvg, "a1", {"a2"}, 10)
           .Build("Q1")},
      4, &plan);
  const StreamRoute& r = sp.routes[SourceId(plan, "S")];
  EXPECT_EQ(r.mode, RouteMode::kKey);
  EXPECT_EQ(r.key_attr, 2);
}

TEST(AnalyzeShardingTest, GroupByTracesThroughSelectionPrefix) {
  Plan plan;
  ShardPlan sp = AnalyzeQueries(
      {QueryBuilder::FromSource("S", IntSchema(3))
           .Select("a0 < 2")
           .Aggregate(AggFn::kSum, "a1", {"a0"}, 8)
           .Build("Q1")},
      2, &plan);
  const StreamRoute& r = sp.routes[SourceId(plan, "S")];
  EXPECT_EQ(r.mode, RouteMode::kKey);
  EXPECT_EQ(r.key_attr, 0);
}

TEST(AnalyzeShardingTest, UngroupedAggregatePinsTheSource) {
  Plan plan;
  ShardPlan sp = AnalyzeQueries(
      {QueryBuilder::FromSource("S", IntSchema(3)).Count({}, 10).Build("Q1")},
      4, &plan);
  EXPECT_EQ(sp.routes[SourceId(plan, "S")].mode, RouteMode::kPinned);
  EXPECT_EQ(sp.pinned_components, 1);
}

TEST(AnalyzeShardingTest, ConflictingKeysPinTheComponent) {
  Plan plan;
  ShardPlan sp = AnalyzeQueries(
      {QueryBuilder::FromSource("S", IntSchema(3))
           .Aggregate(AggFn::kMin, "a1", {"a0"}, 10)
           .Build("Q1"),
       QueryBuilder::FromSource("S", IntSchema(3))
           .Aggregate(AggFn::kMin, "a0", {"a1"}, 10)
           .Build("Q2")},
      4, &plan);
  EXPECT_EQ(sp.routes[SourceId(plan, "S")].mode, RouteMode::kPinned);
}

TEST(AnalyzeShardingTest, EquiJoinKeysBothSidesIntoOneComponent) {
  Plan plan;
  Schema schema = IntSchema(3);
  ShardPlan sp = AnalyzeQueries(
      {QueryBuilder::FromSource("S", schema)
           .Join(QueryBuilder::FromSource("T", schema), "l.a1 = r.a2", 10, 10)
           .Build("Q1")},
      4, &plan);
  const StreamRoute& s = sp.routes[SourceId(plan, "S")];
  const StreamRoute& t = sp.routes[SourceId(plan, "T")];
  EXPECT_EQ(s.mode, RouteMode::kKey);
  EXPECT_EQ(s.key_attr, 1);
  EXPECT_EQ(t.mode, RouteMode::kKey);
  EXPECT_EQ(t.key_attr, 2);
  EXPECT_EQ(sp.keyed_sources, 2);
}

TEST(AnalyzeShardingTest, CrossJoinPinsBothSides) {
  Plan plan;
  Schema schema = IntSchema(3);
  ShardPlan sp = AnalyzeQueries(
      {QueryBuilder::FromSource("S", schema)
           .Join(QueryBuilder::FromSource("T", schema), "l.a0 < r.a0", 10, 10)
           .Build("Q1")},
      4, &plan);
  const StreamRoute& s = sp.routes[SourceId(plan, "S")];
  const StreamRoute& t = sp.routes[SourceId(plan, "T")];
  EXPECT_EQ(s.mode, RouteMode::kPinned);
  EXPECT_EQ(t.mode, RouteMode::kPinned);
  EXPECT_EQ(s.pinned_shard, t.pinned_shard)
      << "a join's two sides must share one shard";
  EXPECT_EQ(sp.pinned_components, 1);
}

TEST(AnalyzeShardingTest, IndependentPinnedComponentsSpread) {
  Plan plan;
  std::vector<Query> queries;
  for (int i = 0; i < 4; ++i) {
    queries.push_back(
        QueryBuilder::FromSource("S" + std::to_string(i), IntSchema(2))
            .Count({}, 10)
            .Build("Q" + std::to_string(i)));
  }
  ShardPlan sp = AnalyzeQueries(queries, 2, &plan);
  std::vector<int> per_shard(2, 0);
  for (int i = 0; i < 4; ++i) {
    const StreamRoute& r = sp.routes[SourceId(plan, "S" + std::to_string(i))];
    ASSERT_EQ(r.mode, RouteMode::kPinned);
    ++per_shard[r.pinned_shard];
  }
  EXPECT_EQ(per_shard[0], 2) << "pinned components should round-robin";
  EXPECT_EQ(per_shard[1], 2);
  EXPECT_EQ(sp.pinned_components, 4);
}

TEST(AnalyzeShardingTest, ShardOfTupleAgreesAcrossNumericRepresentations) {
  StreamRoute key{RouteMode::kKey, 0, 0};
  uint64_t rr = 0;
  const Value as_int[] = {Value(int64_t{7})};
  const Value as_double[] = {Value(7.0)};
  for (int n : {2, 3, 7}) {
    EXPECT_EQ(ShardOfTuple(key, as_int, &rr, n),
              ShardOfTuple(key, as_double, &rr, n))
        << "join sides carrying int vs double keys must agree, n=" << n;
  }
}

// --- ordered merge determinism ----------------------------------------------

// Per-tuple pushes make every epoch a single tuple, so the ordered merge
// must reproduce the single-threaded output sequence *exactly* — byte for
// byte, across any shard count.
TEST(ShardedExecutorTest, PerTuplePushesReproduceSingleThreadedOrder) {
  Schema schema = IntSchema(3);
  auto make_engine = [&](int shards, std::vector<std::string>* log) {
    auto engine = std::make_unique<StreamEngine>();
    RUMOR_CHECK(engine->RegisterSource("S", schema).ok());
    RUMOR_CHECK(engine->SetShardCount(shards).ok());
    RUMOR_CHECK(
        engine->AddQueryText("SELECT * FROM S WHERE a0 < 3", "SEL").ok());
    RUMOR_CHECK(engine
                    ->AddQueryText(
                        "SELECT a0, SUM(a1) FROM S [RANGE 16] GROUP BY a0",
                        "AGG")
                    .ok());
    engine->SetOutputHandler([log](const std::string& q, const Tuple& t) {
      log->push_back(q + ":" + t.ToString() + "@" + std::to_string(t.ts()));
    });
    RUMOR_CHECK(engine->Start().ok());
    return engine;
  };

  std::vector<std::string> reference_log;
  auto reference = make_engine(1, &reference_log);
  Rng rng(42);
  std::vector<Tuple> feed;
  for (int i = 0; i < 500; ++i) {
    feed.push_back(Tuple::MakeInts(
        {rng.UniformInt(0, 5), rng.UniformInt(0, 99), rng.UniformInt(0, 9)},
        i));
  }
  for (const Tuple& t : feed) ASSERT_TRUE(reference->Push("S", t).ok());

  for (int shards : {2, 4, 7}) {
    std::vector<std::string> log;
    auto engine = make_engine(shards, &log);
    for (const Tuple& t : feed) ASSERT_TRUE(engine->Push("S", t).ok());
    engine->Flush();
    EXPECT_EQ(log, reference_log) << "shards=" << shards;
  }
}

// Tiny rings force every backpressure path: the pusher waiting on in-shells
// while draining the merge, and workers waiting on out-shell recycling.
TEST(ShardedExecutorTest, BackpressureWithTinyRings) {
  Schema schema = IntSchema(2);
  std::vector<Query> queries = {
      QueryBuilder::FromSource("S", schema).Select("a0 >= 0").Build("ALL")};
  CountingSink sink;
  ShardedExecutor::Options options;
  options.num_shards = 3;
  options.in_ring = 2;
  options.out_ring = 2;
  ShardedExecutor exec(
      options,
      [&queries](Plan* plan, OptimizeStats* stats) {
        auto compiled = CompileQueries(queries, plan);
        if (!compiled.ok()) return compiled.status();
        *stats = Optimize(plan);
        return Status::OK();
      },
      &sink);
  ASSERT_TRUE(exec.Prepare().ok());
  const StreamId s = SourceId(exec.plan(0), "S");

  std::vector<Tuple> batch;
  constexpr int kBatches = 64;
  constexpr int kPerBatch = 700;  // >> out-ring capacity in emitted blocks
  for (int b = 0; b < kBatches; ++b) {
    batch.clear();
    for (int i = 0; i < kPerBatch; ++i) {
      batch.push_back(Tuple::MakeInts({i, b}, b * kPerBatch + i));
    }
    exec.PushSourceBatch(s, batch);
  }
  exec.Flush();
  EXPECT_EQ(sink.total(), int64_t{kBatches} * kPerBatch);
  exec.Stop();
}

// A one-shell in-ring makes the pusher wait for shells — running the
// ordered merge — while it routes each epoch. The merge must not pass the
// epoch being routed: every output arrives, in single-threaded order.
TEST(ShardedExecutorTest, MergeWaitsForTheEpochBeingRouted) {
  Schema schema = IntSchema(3);
  std::vector<Query> queries = {
      QueryBuilder::FromSource("S", schema).Select("a0 < 3").Build("SEL"),
      QueryBuilder::FromSource("S", schema)
          .Aggregate(AggFn::kSum, "a1", {"a0"}, 16)
          .Build("AGG")};
  auto factory = [&queries](Plan* plan, OptimizeStats* stats) {
    auto compiled = CompileQueries(queries, plan);
    if (!compiled.ok()) return compiled.status();
    *stats = Optimize(plan);
    return Status::OK();
  };
  struct LogSink : OutputSink {
    std::vector<std::string> log;
    void OnOutput(StreamId stream, const Tuple& t) override {
      log.push_back(std::to_string(stream) + ":" + t.ToString());
    }
  };
  Rng rng(7);
  std::vector<Tuple> feed;
  for (int i = 0; i < 2000; ++i) {
    feed.push_back(Tuple::MakeInts(
        {rng.UniformInt(0, 5), rng.UniformInt(0, 99), rng.UniformInt(0, 9)},
        i));
  }

  Plan plan;
  OptimizeStats stats;
  ASSERT_TRUE(factory(&plan, &stats).ok());
  LogSink reference;
  Executor single(&plan, &reference);
  single.Prepare();
  for (const Tuple& t : feed) single.PushSource(SourceId(plan, "S"), t);

  LogSink sink;
  ShardedExecutor::Options options;
  options.num_shards = 4;
  options.in_ring = 1;
  ShardedExecutor exec(options, factory, &sink);
  ASSERT_TRUE(exec.Prepare().ok());
  const StreamId s = SourceId(exec.plan(0), "S");
  for (const Tuple& t : feed) exec.PushSource(s, t);
  exec.Flush();
  EXPECT_EQ(sink.log, reference.log);
  exec.Stop();
}

// --- query churn on a running sharded engine ---------------------------------

TEST(ShardedEngineTest, AddAndRemoveQueriesWhileRunning) {
  StreamEngine engine;
  ASSERT_TRUE(engine.RegisterSource("CPU", IntSchema(2)).ok());
  ASSERT_TRUE(engine.SetShardCount(3).ok());
  ASSERT_TRUE(
      engine.AddQueryText("SELECT * FROM CPU WHERE a0 = 1", "Q1").ok());
  std::map<std::string, int64_t> counts;
  engine.SetOutputHandler(
      [&](const std::string& q, const Tuple&) { ++counts[q]; });
  ASSERT_TRUE(engine.Start().ok());

  int64_t ts = 0;
  auto push_round = [&](int n) {
    for (int i = 0; i < n; ++i) {
      ASSERT_TRUE(
          engine.Push("CPU", Tuple::MakeInts({i % 4, i}, ++ts)).ok());
    }
    engine.Flush();  // quiesce before reading counts
  };
  push_round(40);
  EXPECT_EQ(counts["Q1"], 10);

  // Live add: merges into the running replicas (CSE with Q1's subtree).
  ASSERT_TRUE(
      engine.AddQueryText("SELECT * FROM CPU WHERE a0 = 1", "Q2").ok());
  ASSERT_TRUE(engine
                  .AddQueryText(
                      "SELECT a0, SUM(a1) FROM CPU [RANGE 8] GROUP BY a0",
                      "Q3")
                  .ok());
  push_round(40);
  EXPECT_EQ(counts["Q1"], 20);
  EXPECT_EQ(counts["Q2"], 10);
  EXPECT_EQ(counts["Q3"], 40);

  // Live remove: Q1's shared operators must keep serving Q2.
  ASSERT_TRUE(engine.RemoveQuery("Q1").ok());
  push_round(40);
  EXPECT_EQ(counts["Q1"], 20) << "removed query must stop producing";
  EXPECT_EQ(counts["Q2"], 20);
  EXPECT_EQ(counts["Q3"], 80);
  EXPECT_EQ(engine.num_queries(), 2);

  // Errors surface, engine stays usable.
  EXPECT_FALSE(engine.AddQueryText("SELECT * FROM NOPE", "BAD").ok());
  EXPECT_FALSE(engine.RemoveQuery("GHOST").ok());
  push_round(4);
  EXPECT_EQ(counts["Q2"], 21);
}

// A live add may not move the state of a source, but a source whose stateful
// queries were all removed is routed afresh.
TEST(ShardedEngineTest, RemovingStatefulQueriesFreesTheRoute) {
  StreamEngine engine;
  ASSERT_TRUE(engine.RegisterSource("CPU", IntSchema(2)).ok());
  ASSERT_TRUE(engine.SetShardCount(2).ok());
  ASSERT_TRUE(engine
                  .AddScript("A: SELECT a0, SUM(a1) FROM CPU [RANGE 10] "
                             "GROUP BY a0; B: SELECT * FROM CPU WHERE a0 = 1;")
                  .ok());
  std::map<std::string, std::vector<int64_t>> out;
  engine.SetOutputHandler([&](const std::string& q, const Tuple& t) {
    out[q].push_back(t.at(t.size() - 1).AsInt());
  });
  ASSERT_TRUE(engine.Start().ok());
  auto push = [&](int64_t from) {
    for (int64_t ts = from; ts < from + 20; ++ts) {
      ASSERT_TRUE(engine.Push("CPU", Tuple::MakeInts({ts % 4, ts}, ts)).ok());
    }
    engine.Flush();
  };
  push(0);
  // A keys CPU on a0, so its sums sit on both shards; C would pin CPU.
  const std::string count = "SELECT COUNT(*) FROM CPU [RANGE 10]";
  EXPECT_EQ(engine.AddQueryText(count, "C").code(), StatusCode::kUnimplemented);
  EXPECT_EQ(engine.num_queries(), 2);
  ASSERT_TRUE(engine.RemoveQuery("A").ok());
  ASSERT_TRUE(engine.AddQueryText(count, "C").ok());
  push(20);
  EXPECT_EQ(out["A"].size(), 20u);
  EXPECT_EQ(out["B"].size(), 10u);
  // C counts every CPU tuple of its window on one shard: 1, 2, ..., 10, 10.
  ASSERT_EQ(out["C"].size(), 20u);
  EXPECT_EQ(out["C"][4], 5);
  EXPECT_EQ(out["C"].back(), 10);
}

// --- metrics aggregation -----------------------------------------------------

TEST(ShardedEngineTest, CollectMetricsAggregatesAcrossWorkers) {
  StreamEngine engine;
  ASSERT_TRUE(engine.RegisterSource("S", IntSchema(2)).ok());
  ASSERT_TRUE(engine.SetShardCount(2).ok());
  ASSERT_TRUE(engine.AddQueryText("SELECT * FROM S WHERE a0 < 2", "Q").ok());
  ASSERT_TRUE(engine.Start().ok());

  constexpr int kTuples = 200;
  std::vector<Tuple> batch;
  for (int i = 0; i < kTuples; ++i) {
    batch.push_back(Tuple::MakeInts({i % 4, i}, i));
  }
  ASSERT_TRUE(engine.PushBatch("S", batch).ok());

  EngineMetrics em = engine.CollectMetrics();
  EXPECT_EQ(em.shards, 2);
  ASSERT_EQ(em.shard_rows.size(), 2u);
  // Round-robined stateless route: both workers must have done real work.
  EXPECT_GT(em.shard_rows[0].deliveries, 0);
  EXPECT_GT(em.shard_rows[1].deliveries, 0);
  EXPECT_EQ(em.deliveries,
            em.shard_rows[0].deliveries + em.shard_rows[1].deliveries);
  // Per-m-op rows are summed across replicas: the selection must have seen
  // every tuple exactly once in aggregate.
  bool found = false;
  for (const EngineMetrics::MopRow& row : em.mops) {
    if (std::string(row.type).find("select") != std::string::npos ||
        row.m.tuples_in == kTuples) {
      found = found || row.m.tuples_in == kTuples;
    }
  }
  EXPECT_TRUE(found) << em.ToString();
  EXPECT_EQ(em.query_rows.size(), 1u);
  EXPECT_EQ(em.query_rows[0].outputs, kTuples / 2);
  EXPECT_NE(em.ToJson().find("\"shard_rows\""), std::string::npos);
  EXPECT_NE(em.ToString().find("sharded over 2 workers"), std::string::npos);
  // Explain carries the routing table.
  EXPECT_NE(engine.Explain().find("sharding over 2 shard(s)"),
            std::string::npos);
}

// --- one plan at every shard count --------------------------------------------

// The engine's plan report without the sharding table and the runtime
// counters (shard 0 sees only its share of the tuples).
std::string PlanShape(const StreamEngine& engine) {
  std::string text = engine.Explain();
  text.erase(std::min(text.find("sharding over"), text.size()));
  return std::regex_replace(text, std::regex(" in=\\d+ out=\\d+"), "");
}

// Every replica is optimized by the same rules and merged and pruned by the
// same live steps as the single-threaded engine's plan, so at any shard
// count replica 0 explains exactly like the single engine: after Start and
// after each live add and remove, with pushes in between.
TEST(ShardedEngineTest, ReplicasBuildTheSingleEnginePlan) {
  struct Step {
    std::string name;
    std::string rql;  // empty: remove the query
  };
  // Two sources, so the σ-indexes on S and T are numbered by whichever
  // path formed them.
  const std::vector<Step> start = {
      {"P0", "SELECT a0 FROM S WHERE a1 = 1"},
      {"P1", "SELECT * FROM T WHERE a0 = 1"},
      {"P2", "SELECT * FROM T WHERE a0 = 2"},
      {"P3", "SELECT * FROM S WHERE a0 = 3"},
      {"P4", "SELECT * FROM S WHERE a0 = 4"},
  };
  const std::vector<Step> churn = {
      {"L0", "SELECT * FROM S WHERE a0 = 5"},
      {"L1", "SELECT a0, SUM(a1) FROM S [RANGE 8] GROUP BY a0"},
      {"L2", "SELECT a0, SUM(a1) FROM S [RANGE 16] GROUP BY a0"},
      {"P3", ""},
      {"L3", "SELECT * FROM T WHERE a0 = 2"},
      {"P0", ""},
      {"L4", "SELECT a0 FROM S WHERE a1 = 1"},
      {"L1", ""},
      {"L5", "SELECT a0, SUM(a1) FROM S [RANGE 4] GROUP BY a0"},
      {"P2", ""},
  };
  std::vector<std::string> single;
  for (int shards : {1, 2, 4}) {
    SCOPED_TRACE(testing::Message() << shards << " shard(s)");
    StreamEngine engine;
    ASSERT_TRUE(engine.RegisterSource("S", IntSchema(2)).ok());
    ASSERT_TRUE(engine.RegisterSource("T", IntSchema(2)).ok());
    ASSERT_TRUE(engine.SetShardCount(shards).ok());
    for (const Step& step : start) {
      ASSERT_TRUE(engine.AddQueryText(step.rql, step.name).ok());
    }
    ASSERT_TRUE(engine.Start().ok());
    EXPECT_NE(engine.share_index_for_testing(), nullptr);
    std::vector<std::string> shapes = {PlanShape(engine)};
    int64_t ts = 0;
    for (const Step& step : churn) {
      for (int i = 0; i < 8; ++i) {
        ++ts;
        ASSERT_TRUE(engine.Push("S", Tuple::MakeInts({i % 6, i % 2}, ts)).ok());
        ASSERT_TRUE(engine.Push("T", Tuple::MakeInts({i % 3, i}, ts)).ok());
      }
      ASSERT_TRUE((step.rql.empty() ? engine.RemoveQuery(step.name)
                                    : engine.AddQueryText(step.rql, step.name))
                      .ok())
          << step.name;
      shapes.push_back(PlanShape(engine));
    }
    if (shards == 1) {
      single = shapes;
      continue;
    }
    ASSERT_EQ(shapes.size(), single.size());
    for (size_t i = 0; i < shapes.size(); ++i) {
      EXPECT_EQ(shapes[i], single[i]) << "after step " << i;
    }
  }
}

TEST(ShardedEngineTest, ShardCountOneKeepsSingleThreadedExecutor) {
  StreamEngine engine;
  ASSERT_TRUE(engine.RegisterSource("S", IntSchema(2)).ok());
  ASSERT_TRUE(engine.SetShardCount(1).ok());
  ASSERT_TRUE(engine.AddQueryText("SELECT * FROM S", "Q").ok());
  ASSERT_TRUE(engine.Start().ok());
  EXPECT_FALSE(engine.SetShardCount(2).ok()) << "post-Start must fail";
  ASSERT_TRUE(engine.Push("S", Tuple::MakeInts({1, 2}, 0)).ok());
  EngineMetrics em = engine.CollectMetrics();
  EXPECT_EQ(em.shards, 1);
  EXPECT_TRUE(em.shard_rows.empty());
}

}  // namespace
}  // namespace rumor
