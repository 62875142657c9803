// Result delivery through the public handler: every query's handler tuples
// (in order) and OutputCount must equal what an Executor + CollectingSink
// run of the same query set puts on the query's output stream. The query
// set makes CSE-shared streams fan out to several queries (identical
// selections and aggregates), next to distinct queries and a query over a
// query. The engine runs a live-added twin of a warm query (it sees only
// later tuples), a remove and re-add under the same name (the count
// continues), and a Checkpoint taken with results in flight -> Restore
// (counts carry over), at 1 and 4 shards, driven by Push and by PushBatch. With metrics compiled in, the
// ticker's outputs after Flush equal the sum of OutputCount over every
// name ever bound.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "api/stream_engine.h"
#include "common/rng.h"
#include "plan/compile.h"
#include "plan/executor.h"
#include "query/parser.h"
#include "rules/rule_engine.h"

namespace rumor {
namespace {

Schema SSchema() {
  return Schema({{"k", ValueType::kInt}, {"v", ValueType::kInt}});
}

// Queries bound from Start. SEL1-3 share one stream, SUM1-2 another, and
// BIG reads SUM1's (so that stream also has a consumer).
const char* const kInitial[][2] = {
    {"SEL1", "SELECT * FROM S WHERE v > 40"},
    {"SEL2", "SELECT * FROM S WHERE v > 40"},
    {"SEL3", "SELECT * FROM S WHERE v > 40"},
    {"LOW", "SELECT * FROM S WHERE v < 10"},
    {"K1", "SELECT * FROM S WHERE k = 1"},
    {"K2", "SELECT * FROM S WHERE k = 2"},
    {"SUM1", "SELECT k, SUM(v) FROM S [RANGE 8] GROUP BY k"},
    {"SUM2", "SELECT k, SUM(v) FROM S [RANGE 8] GROUP BY k"},
    {"MAXV", "SELECT k, MAX(v) FROM S [RANGE 5] GROUP BY k"},
    {"BIG", "SELECT * FROM SUM1 WHERE sum_v > 150"},
};
// Twins of warm queries, added live after phase 0.
const char* const kTwins[][2] = {
    {"SUMTWIN", "SELECT k, SUM(v) FROM S [RANGE 8] GROUP BY k"},
    {"SELTWIN", "SELECT * FROM S WHERE v > 40"},
};
// Removed after phase 1 and re-added with the same text after phase 2:
// SEL2 rejoins a shared stream, K2 gets a fresh one.
const char* const kChurned[] = {"SEL2", "K2"};

constexpr int kPhases = 5;  // 0-3 on the engine, 4 on the restored engine
constexpr size_t kPhaseTuples = 60;

std::vector<Tuple> Feed(uint64_t seed) {
  Rng rng(seed);
  std::vector<Tuple> feed;
  for (size_t i = 0; i < kPhases * kPhaseTuples; ++i) {
    feed.push_back(Tuple::MakeInts(
        {rng.UniformInt(0, 3), rng.UniformInt(0, 99)},
        static_cast<Timestamp>(i / 2)));
  }
  return feed;
}

bool Churned(const std::string& name) {
  for (const char* c : kChurned) {
    if (name == c) return true;
  }
  return false;
}

// Whether query `name` is bound during `phase`.
bool BoundIn(const std::string& name, int phase) {
  for (const auto& twin : kTwins) {
    if (name == twin[0]) return phase >= 1;
  }
  if (Churned(name)) return phase != 2;
  return true;
}

std::vector<std::string> AllNames() {
  std::vector<std::string> names;
  for (const auto& q : kInitial) names.push_back(q[0]);
  for (const auto& q : kTwins) names.push_back(q[0]);
  return names;
}

std::string TextOf(const std::string& name) {
  for (const auto& q : kInitial) {
    if (name == q[0]) return q[1];
  }
  for (const auto& q : kTwins) {
    if (name == q[0]) return q[1];
  }
  return "";
}

// Reference: every query compiled and optimized at once, run through an
// Executor into a CollectingSink; out[name][phase] are the tuples the
// query's output stream carried during that phase.
using PhaseTuples = std::map<std::string, std::vector<std::vector<std::string>>>;

PhaseTuples Reference(const std::vector<Tuple>& feed) {
  Catalog catalog;
  catalog.AddSource("S", SSchema());
  std::string script;
  for (const std::string& name : AllNames()) {
    script += name + ": " + TextOf(name) + ";";
  }
  auto queries = ParseScript(script, catalog);
  RUMOR_CHECK(queries.ok()) << queries.status().ToString();
  Plan plan;
  RUMOR_CHECK(CompileQueries(queries.value(), &plan).ok());
  Optimize(&plan);
  CollectingSink sink;
  Executor exec(&plan, &sink);
  exec.Prepare();
  const StreamId source = *plan.streams().FindSource("S");
  PhaseTuples out;
  std::map<std::string, size_t> seen;
  for (int phase = 0; phase < kPhases; ++phase) {
    for (size_t i = 0; i < kPhaseTuples; ++i) {
      exec.PushSource(source, feed[phase * kPhaseTuples + i]);
    }
    for (const std::string& name : AllNames()) {
      const std::vector<Tuple>& all =
          sink.ForStream(*plan.OutputStreamOf(name));
      std::vector<std::string>& rows = out[name].emplace_back();
      for (size_t j = seen[name]; j < all.size(); ++j) {
        rows.push_back(all[j].ToString());
      }
      seen[name] = all.size();
    }
  }
  return out;
}

using Delivered = std::map<std::string, std::vector<std::string>>;

void Attach(StreamEngine& engine, Delivered* out) {
  engine.SetOutputHandler([out](const std::string& q, const Tuple& t) {
    (*out)[q].push_back(t.ToString());
  });
}

void PushPhase(StreamEngine& engine, const std::vector<Tuple>& feed, int phase,
               size_t batch) {
  const Tuple* first = feed.data() + phase * kPhaseTuples;
  for (size_t i = 0; i < kPhaseTuples; i += batch) {
    const size_t n = std::min(batch, kPhaseTuples - i);
    if (n == 1) {
      ASSERT_TRUE(engine.Push("S", first[i]).ok());
    } else {
      ASSERT_TRUE(
          engine.PushBatch("S", std::span<const Tuple>(first + i, n)).ok());
    }
  }
}

// The ticker's outputs as sampled after this call (waits for a tick).
int64_t TickerOutputs(const StreamEngine& engine) {
  const int64_t after = std::chrono::duration_cast<std::chrono::nanoseconds>(
                            std::chrono::steady_clock::now().time_since_epoch())
                            .count();
  for (int spin = 0; spin < 5000; ++spin) {
    std::vector<StreamEngine::MetricsTick> ticks = engine.MetricsHistory();
    if (!ticks.empty() && ticks.back().t_ns > after) {
      return ticks.back().outputs;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ADD_FAILURE() << "the metrics ticker produced no tick";
  return -1;
}

// Handler tuples of `got` against the reference tuples of the phases in
// [from, to) where each query is bound, and each OutputCount against the
// bound phases before `to`. Multi-shard batches may interleave one batch's
// tuples across shards, so those compare as sorted.
void ExpectDelivered(const Delivered& got, const StreamEngine& engine,
                     const PhaseTuples& ref, int from, int to, bool ordered) {
  for (const std::string& name : AllNames()) {
    SCOPED_TRACE(name);
    std::vector<std::string> want;
    int64_t count = 0;
    for (int phase = 0; phase < to; ++phase) {
      if (!BoundIn(name, phase)) continue;
      const std::vector<std::string>& rows = ref.at(name)[phase];
      count += static_cast<int64_t>(rows.size());
      if (phase >= from) want.insert(want.end(), rows.begin(), rows.end());
    }
    auto it = got.find(name);
    std::vector<std::string> have =
        it == got.end() ? std::vector<std::string>{} : it->second;
    if (!ordered) {
      std::sort(want.begin(), want.end());
      std::sort(have.begin(), have.end());
    }
    EXPECT_EQ(have, want);
    EXPECT_EQ(engine.OutputCount(name), count);
  }
}

int64_t SumOfCounts(const StreamEngine& engine) {
  int64_t sum = 0;
  for (const std::string& name : AllNames()) sum += engine.OutputCount(name);
  return sum;
}

TEST(DeliveryTest, HandlerMatchesExecutorReference) {
  for (uint64_t seed : {7, 8}) {
    const std::vector<Tuple> feed = Feed(seed);
    const PhaseTuples ref = Reference(feed);
    // The workload exercises every case it claims: fan-out, a stream with
    // earlier tuples under each late binding, and results in every phase.
    for (const char* name : {"SEL1", "SUM1", "BIG", "K2", "MAXV"}) {
      for (int phase = 0; phase < kPhases; ++phase) {
        ASSERT_FALSE(ref.at(name)[phase].empty()) << name << " " << phase;
      }
    }
    for (int shards : {1, 4}) {
      for (size_t batch : {size_t{1}, size_t{16}}) {
        SCOPED_TRACE(testing::Message() << "seed=" << seed << " shards="
                                        << shards << " batch=" << batch);
        const bool ordered = shards == 1 || batch == 1;
        StreamEngine engine;
        ASSERT_TRUE(engine.SetShardCount(shards).ok());
        ASSERT_TRUE(engine.RegisterSource("S", SSchema()).ok());
        for (const auto& q : kInitial) {
          ASSERT_TRUE(engine.AddQueryText(q[1], q[0]).ok());
        }
        Delivered got;
        Attach(engine, &got);
        ASSERT_TRUE(engine.Start().ok());
        engine.StartMetricsTicker(std::chrono::milliseconds(1));
        // No Flush between phases: a sharded engine delivers what is still
        // in flight before a live add or remove changes the bindings.
        PushPhase(engine, feed, 0, batch);
        for (const auto& q : kTwins) {
          ASSERT_TRUE(engine.AddQueryText(q[1], q[0]).ok());
        }
        PushPhase(engine, feed, 1, batch);
        for (const char* name : kChurned) {
          ASSERT_TRUE(engine.RemoveQuery(name).ok());
        }
        PushPhase(engine, feed, 2, batch);
        for (const char* name : kChurned) {
          ASSERT_TRUE(engine.AddQueryText(TextOf(name), name).ok());
        }
        PushPhase(engine, feed, 3, batch);
        // Checkpoint with results still in flight: the saved counts must
        // include them, since the saved operator state does.
        std::string snapshot;
        ASSERT_TRUE(engine.Checkpoint(&snapshot).ok());
        engine.Flush();
        ExpectDelivered(got, engine, ref, 0, 4, ordered);
        if (RUMOR_METRICS_ENABLED) {
          EXPECT_EQ(TickerOutputs(engine), SumOfCounts(engine));
        }
        engine.StopMetricsTicker();

        StreamEngine restored;
        ASSERT_TRUE(restored.SetShardCount(shards).ok());
        Delivered after;
        Attach(restored, &after);
        ASSERT_TRUE(restored.Restore(snapshot).ok());
        restored.StartMetricsTicker(std::chrono::milliseconds(1));
        PushPhase(restored, feed, 4, batch);
        restored.Flush();
        ExpectDelivered(after, restored, ref, 4, 5, ordered);
        if (RUMOR_METRICS_ENABLED) {
          EXPECT_EQ(TickerOutputs(restored), SumOfCounts(restored));
        }
        restored.StopMetricsTicker();
      }
    }
  }
}

}  // namespace
}  // namespace rumor
