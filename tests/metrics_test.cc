// Tests for the engine metrics layer: per-m-op tuple accounting (scalar and
// batched dispatch must agree), the EngineMetrics snapshot + JSON round-trip,
// dynamic query rows, sampled timing, and the fast-path efficacy counters.
#include "plan/engine_metrics.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstring>
#include <map>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "api/stream_engine.h"
#include "common/json_writer.h"
#include "common/trace.h"
#include "common/tuple.h"
#include "expr/program.h"
#include "query/builder.h"

namespace rumor {
namespace {

Schema S3() { return Schema::MakeInts(3); }

// The known plan of the exact-count tests: two equality selections over S
// (merged by rule sσ into one predicate index) plus an aggregate riding the
// a0=1 survivors (its σ CSE-merges with Q0's).
void AddSigmaAggQueries(StreamEngine* engine) {
  auto s = QueryBuilder::FromSource("S", S3());
  ASSERT_TRUE(engine->AddQuery(s.Select("a0 = 1").Build("Q0")).ok());
  ASSERT_TRUE(engine->AddQuery(s.Select("a0 = 2").Build("Q1")).ok());
  ASSERT_TRUE(engine->AddQuery(s.Select("a0 = 1")
                                   .Aggregate(AggFn::kMin, "a1", {"a0"}, 100)
                                   .Build("Q2"))
                  .ok());
}

// a0 = 1,2,3,1,2,1 → three a0=1 matches, two a0=2 matches.
std::vector<Tuple> KnownFeed() {
  std::vector<Tuple> feed;
  const int64_t a0s[] = {1, 2, 3, 1, 2, 1};
  for (int64_t i = 0; i < 6; ++i) {
    feed.push_back(Tuple::MakeInts({a0s[i], 10 + i, 0}, i));
  }
  return feed;
}

// name -> (tuples_in, tuples_out) for every live m-op.
std::map<std::string, std::pair<int64_t, int64_t>> MopCounts(
    const EngineMetrics& em) {
  std::map<std::string, std::pair<int64_t, int64_t>> counts;
  for (const auto& row : em.mops) {
    counts[row.name] = {row.m.tuples_in, row.m.tuples_out};
  }
  return counts;
}

TEST(MetricsTest, ExactTupleCountsOnSigmaIndexAggPlan) {
  StreamEngine engine;
  ASSERT_TRUE(engine.RegisterSource("S", S3()).ok());
  AddSigmaAggQueries(&engine);
  ASSERT_TRUE(engine.Start().ok());
  for (const Tuple& t : KnownFeed()) {
    ASSERT_TRUE(engine.Push("S", t).ok());
  }

  EngineMetrics em = engine.CollectMetrics();
  ASSERT_EQ(em.queries, 3);
  // The two σs merged into one sσ: 6 tuples in, 3+2 member matches out.
  const EngineMetrics::MopRow* index = nullptr;
  const EngineMetrics::MopRow* agg = nullptr;
  for (const auto& row : em.mops) {
    if (std::strcmp(row.type, "σ-index") == 0) index = &row;
    if (std::strcmp(row.type, "α") == 0 ||
        std::strcmp(row.type, "sα") == 0) {
      agg = &row;
    }
  }
  ASSERT_NE(index, nullptr);
  EXPECT_EQ(index->members, 2);
  EXPECT_EQ(index->m.tuples_in, 6);
  EXPECT_EQ(index->m.tuples_out, 5);
  EXPECT_DOUBLE_EQ(index->m.selectivity(), 5.0 / 6.0);
  // The aggregate sees exactly the a0=1 survivors.
  ASSERT_NE(agg, nullptr);
  EXPECT_EQ(agg->m.tuples_in, 3);
  EXPECT_EQ(agg->m.tuples_out, engine.OutputCount("Q2"));
  EXPECT_EQ(engine.OutputCount("Q0"), 3);
  EXPECT_EQ(engine.OutputCount("Q1"), 2);
}

TEST(MetricsTest, ScalarAndBatchedDispatchAgreeOnCounts) {
  auto run = [](bool batched) {
    StreamEngine engine;
    EXPECT_TRUE(engine.RegisterSource("S", S3()).ok());
    AddSigmaAggQueries(&engine);
    EXPECT_TRUE(engine.Start().ok());
    std::vector<Tuple> feed = KnownFeed();
    if (batched) {
      EXPECT_TRUE(engine.PushBatch("S", feed).ok());
    } else {
      for (const Tuple& t : feed) EXPECT_TRUE(engine.Push("S", t).ok());
    }
    return MopCounts(engine.CollectMetrics());
  };
  auto scalar = run(false);
  auto batch = run(true);
  EXPECT_FALSE(scalar.empty());
  EXPECT_EQ(scalar, batch);
}

TEST(MetricsTest, SnapshotJsonPassesLintAndCarriesCoreFields) {
  StreamEngine engine;
  ASSERT_TRUE(engine.RegisterSource("S", S3()).ok());
  AddSigmaAggQueries(&engine);
  ASSERT_TRUE(engine.Start().ok());
  for (const Tuple& t : KnownFeed()) {
    ASSERT_TRUE(engine.Push("S", t).ok());
  }
  std::string json = engine.CollectMetrics().ToJson();
  std::string error;
  EXPECT_TRUE(JsonLint(json, &error)) << error << "\n" << json;
  for (const char* key :
       {"\"engine\"", "\"optimize\"", "\"fast_paths\"", "\"mops\"",
        "\"queries\"", "\"tuples_in\"", "\"selectivity\"",
        "\"metrics_compiled\""}) {
    EXPECT_NE(json.find(key), std::string::npos) << key << "\n" << json;
  }
  // The human report renders without tripping any DCHECK and mentions the
  // same sharing numbers.
  std::string text = engine.CollectMetrics().ToString();
  EXPECT_NE(text.find("3 queries"), std::string::npos) << text;
}

TEST(MetricsTest, DynamicQueriesAppearAndDisappearInSnapshot) {
  StreamEngine engine;
  ASSERT_TRUE(engine.RegisterSource("S", S3()).ok());
  auto s = QueryBuilder::FromSource("S", S3());
  ASSERT_TRUE(engine.AddQuery(s.Select("a0 = 1").Build("Q0")).ok());
  ASSERT_TRUE(engine.Start().ok());
  ASSERT_TRUE(engine.Push("S", Tuple::MakeInts({1, 0, 0}, 0)).ok());

  auto has_query = [&](const char* name) {
    for (const auto& q : engine.CollectMetrics().query_rows) {
      if (q.name == name) return true;
    }
    return false;
  };
  EXPECT_TRUE(has_query("Q0"));
  EXPECT_FALSE(has_query("QX"));

  ASSERT_TRUE(engine.AddQuery(s.Select("a0 = 2").Build("QX")).ok());
  EXPECT_TRUE(has_query("QX"));
  EXPECT_EQ(engine.CollectMetrics().optimize.queries, 2);

  ASSERT_TRUE(engine.RemoveQuery("QX").ok());
  EXPECT_FALSE(has_query("QX"));
  EXPECT_TRUE(has_query("Q0"));
  // The sharing-quality snapshot tracked the remove too.
  EXPECT_EQ(engine.CollectMetrics().optimize.queries, 1);
}

TEST(MetricsTest, SampledTimingPopulatesUnderAggressiveSampling) {
  StreamEngine engine;
  ASSERT_TRUE(engine.RegisterSource("S", S3()).ok());
  AddSigmaAggQueries(&engine);
  MetricsOptions opts;
  opts.sample_every_n = 1;  // time every invocation
  engine.SetMetricsOptions(opts);
  ASSERT_TRUE(engine.Start().ok());
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(engine.Push("S", Tuple::MakeInts({i % 3, i, 0}, i)).ok());
  }
  EngineMetrics em = engine.CollectMetrics();
  int64_t sampled = 0, eval_ns = 0;
  for (const auto& row : em.mops) {
    sampled += row.m.sampled_tuples;
    eval_ns += row.m.eval_ns;
  }
  EXPECT_GT(sampled, 0);
  EXPECT_GT(eval_ns, 0);
}

TEST(MetricsTest, FastPathCountersTrackTheDataPlane) {
  Program::ResetCounters();
  const TupleArena* arena = TupleArena::Default();
  const int64_t requests_before = arena->requests();

  StreamEngine engine;
  ASSERT_TRUE(engine.RegisterSource("S", S3()).ok());
  AddSigmaAggQueries(&engine);
  ASSERT_TRUE(engine.Start().ok());
  std::vector<Tuple> feed = KnownFeed();
  ASSERT_TRUE(engine.PushBatch("S", feed).ok());

  EngineMetrics em = engine.CollectMetrics();
  // The equality probes ride the flat int-key index.
  EXPECT_GT(em.flat_probes, 0);
  EXPECT_GE(em.flat_probe_share(), 0.0);
  // The arena served allocations for the derived tuples.
  EXPECT_GT(em.data_plane.arena_requests, requests_before);
  EXPECT_GE(em.data_plane.arena_recycle_hit_rate(), 0.0);
  EXPECT_LE(em.data_plane.arena_recycle_hit_rate(), 1.0);
}

// The fig9 acceptance shape: 100 equality selections merge into one sσ whose
// ExplainAnalyze row shows the full member count and live selectivity.
TEST(MetricsTest, HundredQueryPlanExplainsMergedSelectivity) {
  StreamEngine engine;
  Schema schema = Schema::MakeInts(3);
  ASSERT_TRUE(engine.RegisterSource("S", schema).ok());
  auto s = QueryBuilder::FromSource("S", schema);
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(engine
                    .AddQuery(s.Select("a0 = " + std::to_string(i))
                                  .Build("Q" + std::to_string(i)))
                    .ok());
  }
  ASSERT_TRUE(engine.Start().ok());
  std::vector<Tuple> feed;
  for (int i = 0; i < 500; ++i) {
    feed.push_back(Tuple::MakeInts({i % 200, i, 0}, i));
  }
  ASSERT_TRUE(engine.PushBatch("S", feed).ok());

  EngineMetrics em = engine.CollectMetrics();
  EXPECT_EQ(em.queries, 100);
  const EngineMetrics::MopRow* index = nullptr;
  for (const auto& row : em.mops) {
    if (std::strcmp(row.type, "σ-index") == 0) index = &row;
  }
  ASSERT_NE(index, nullptr);
  EXPECT_EQ(index->members, 100);
  EXPECT_EQ(index->query_refs, 100);
  EXPECT_EQ(index->m.tuples_in, 500);
  EXPECT_GT(index->m.tuples_out, 0);
  EXPECT_LT(index->m.selectivity(), 1.0);

  std::string report = engine.ExplainAnalyze();
  EXPECT_NE(report.find("members=100"), std::string::npos) << report;
  EXPECT_NE(report.find("queries=100"), std::string::npos) << report;
  EXPECT_NE(report.find("in=500"), std::string::npos) << report;
  EXPECT_NE(report.find("sel=0."), std::string::npos) << report;
}

TEST(MetricsTest, EndToEndLatencyRecordedOnScalarAndBatchedPaths) {
  auto run = [](bool batched) {
    StreamEngine engine;
    EXPECT_TRUE(engine.RegisterSource("S", S3()).ok());
    AddSigmaAggQueries(&engine);
    MetricsOptions opts;
    opts.sample_every_n = 1;  // stamp every push
    engine.SetMetricsOptions(opts);
    EXPECT_TRUE(engine.Start().ok());
    std::vector<Tuple> feed = KnownFeed();
    if (batched) {
      EXPECT_TRUE(engine.PushBatch("S", feed).ok());
    } else {
      for (const Tuple& t : feed) EXPECT_TRUE(engine.Push("S", t).ok());
    }
    return engine.CollectMetrics();
  };
  EngineMetrics scalar = run(false);
  if (!scalar.metrics_compiled) GTEST_SKIP() << "built with RUMOR_METRICS=OFF";
  EngineMetrics batch = run(true);
  // Both dispatch paths record ingress->sink latency into the snapshot.
  EXPECT_GT(scalar.latency.count(), 0);
  EXPECT_GT(batch.latency.count(), 0);
  EXPECT_GT(scalar.latency.max(), 0);
  EXPECT_LE(scalar.latency.p50(), scalar.latency.p99());
  // And the m-op eval distribution rode along with the sampled timing.
  int64_t hist_samples = 0;
  for (const auto& row : scalar.mops) hist_samples += row.m.eval_hist.count();
  EXPECT_GT(hist_samples, 0);
}

TEST(MetricsTest, ShardedMergeLatencyAndBackpressureGauges) {
  StreamEngine engine;
  ASSERT_TRUE(engine.SetShardCount(2).ok());
  ASSERT_TRUE(engine.RegisterSource("S", S3()).ok());
  AddSigmaAggQueries(&engine);
  MetricsOptions opts;
  opts.sample_every_n = 1;
  engine.SetMetricsOptions(opts);
  ASSERT_TRUE(engine.Start().ok());
  std::vector<Tuple> feed;
  for (int i = 0; i < 64; ++i) {
    feed.push_back(Tuple::MakeInts({i % 3, i, 0}, i));
  }
  ASSERT_TRUE(engine.PushBatch("S", feed).ok());
  engine.Flush();

  EngineMetrics em = engine.CollectMetrics();
  ASSERT_EQ(static_cast<int>(em.shard_rows.size()), 2);
  std::string json = em.ToJson();
  std::string error;
  EXPECT_TRUE(JsonLint(json, &error)) << error << "\n" << json;
  for (const char* key :
       {"\"latency\"", "\"memory\"", "\"in_depth_hwm\"", "\"out_depth_hwm\"",
        "\"push_stall_ns\"", "\"worker_stall_ns\"", "\"merge_lag_hwm\"",
        "\"share_index\"", "\"mop_state_bytes\""}) {
    EXPECT_NE(json.find(key), std::string::npos) << key << "\n" << json;
  }
  if (!em.metrics_compiled) GTEST_SKIP() << "built with RUMOR_METRICS=OFF";
  // The first epoch is always sampled: push->ordered-delivery latency.
  EXPECT_GT(em.latency.count(), 0);
  // Tuples flowed through both shard rings.
  uint64_t hwm = 0;
  for (const auto& row : em.shard_rows) {
    hwm = std::max(hwm, row.in_depth_hwm);
    EXPECT_GE(row.merge_lag_hwm, 0u);
  }
  EXPECT_GT(hwm, 0u);
}

TEST(MetricsTest, MemorySectionReportsStateAndShareIndexBytes) {
  StreamEngine engine;
  ASSERT_TRUE(engine.RegisterSource("S", S3()).ok());
  AddSigmaAggQueries(&engine);
  ASSERT_TRUE(engine.Start().ok());
  for (const Tuple& t : KnownFeed()) {
    ASSERT_TRUE(engine.Push("S", t).ok());
  }
  EngineMetrics em = engine.CollectMetrics();
  // The predicate index + the in-window aggregate state are both non-empty,
  // and StateBytes accounting is unconditional (not gated on RUMOR_METRICS).
  EXPECT_GT(em.mop_state_bytes, 0);
  bool some_row_has_state = false;
  for (const auto& row : em.mops) {
    if (row.state_bytes > 0) some_row_has_state = true;
  }
  EXPECT_TRUE(some_row_has_state);
  // Share-point index stats (three standing queries registered entries).
  EXPECT_TRUE(em.share_index.present);
  EXPECT_GT(em.share_index.approx_bytes, 0);
  EXPECT_GT(em.share_index.exact_entries + em.share_index.member_entries +
                em.share_index.index_target_entries +
                em.share_index.sel_single_entries +
                em.share_index.agg_target_entries,
            0);
  // Both reports surface the section.
  EXPECT_NE(em.ToString().find("memory:"), std::string::npos);
  EXPECT_NE(engine.ExplainAnalyze().find("share index:"), std::string::npos);
}

TEST(MetricsTest, MetricsTickerProducesTimeSeries) {
  for (int shards : {1, 2}) {
    SCOPED_TRACE(shards);
    StreamEngine engine;
    ASSERT_TRUE(engine.SetShardCount(shards).ok());
    ASSERT_TRUE(engine.RegisterSource("S", S3()).ok());
    AddSigmaAggQueries(&engine);
    ASSERT_TRUE(engine.Start().ok());
    engine.StartMetricsTicker(std::chrono::milliseconds(2),
                              /*history_capacity=*/8);
    for (const Tuple& t : KnownFeed()) {
      ASSERT_TRUE(engine.Push("S", t).ok());
    }
    engine.Flush();  // a sharded engine publishes in-flight results here
    // Wait until a tick lands after the flush (bounded: ~250 * 2ms). The
    // ticker samples the same steady clock.
    const int64_t flushed_ns =
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count();
    std::vector<StreamEngine::MetricsTick> ticks;
    for (int spin = 0; spin < 250; ++spin) {
      ticks = engine.MetricsHistory();
      if (!ticks.empty() && ticks.back().t_ns >= flushed_ns) break;
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    engine.StopMetricsTicker();
    ASSERT_FALSE(ticks.empty());
    EXPECT_LE(ticks.size(), 8u);  // ring is bounded
    EXPECT_GE(ticks.back().t_ns, flushed_ns);
    if (engine.CollectMetrics().metrics_compiled) {
      EXPECT_EQ(ticks.back().push_calls, 6);
      EXPECT_EQ(ticks.back().tuples_pushed, 6);
      EXPECT_GT(ticks.back().outputs, 0);
    }
    std::string json = engine.MetricsHistoryJson();
    std::string error;
    EXPECT_TRUE(JsonLint(json, &error)) << error << "\n" << json;
    EXPECT_NE(json.find("\"ticks\""), std::string::npos) << json;
    // Stopping twice is a no-op; restart replaces the ticker.
    engine.StopMetricsTicker();
    engine.StartMetricsTicker(std::chrono::milliseconds(50));
    engine.StopMetricsTicker();
  }
}

#if RUMOR_METRICS_ENABLED
TEST(MetricsTest, TraceDumpCoversOptimizerAndEpochFlushSpans) {
  Trace::Clear();
  Trace::Enable(true);
  {
    StreamEngine engine;
    ASSERT_TRUE(engine.SetShardCount(2).ok());
    ASSERT_TRUE(engine.RegisterSource("S", S3()).ok());
    AddSigmaAggQueries(&engine);
    ASSERT_TRUE(engine.Start().ok());  // -> Optimize span
    // Live add -> indexed incremental-merge span.
    auto s = QueryBuilder::FromSource("S", S3());
    ASSERT_TRUE(engine.AddQuery(s.Select("a0 = 5").Build("QL")).ok());
    for (const Tuple& t : KnownFeed()) {
      ASSERT_TRUE(engine.Push("S", t).ok());
    }
    engine.Flush();  // -> ShardedExecutor::Flush span
  }
  Trace::Enable(false);
  EXPECT_GT(Trace::span_count(), 0);
  std::string json = Trace::DumpChromeJson();
  std::string error;
  EXPECT_TRUE(JsonLint(json, &error)) << error << "\n" << json;
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"Optimize\""), std::string::npos) << json;
  EXPECT_NE(json.find("MergeNewQuery"), std::string::npos) << json;
  EXPECT_NE(json.find("ShardedExecutor::Flush"), std::string::npos) << json;
  Trace::Clear();
  EXPECT_EQ(Trace::span_count(), 0);
}
#endif  // RUMOR_METRICS_ENABLED

}  // namespace
}  // namespace rumor
