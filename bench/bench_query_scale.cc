// Query-scale benchmark (the acceptance bar of the indexed share-point
// work): drive StreamEngine::AddQueryText against a *running* engine up to
// N = 100k standing queries (1M with RUMOR_BENCH_QUERY_SCALE_N=1000000) and
// show that per-add latency stays flat as the standing population grows —
// the ShareIndex resolves each new query's merges with O(1) probes instead
// of rescanning the plan, so bringing query 100000 online costs the same as
// query 1000.
//
// The workload mixes the sharing families at scale: unique equality
// selections (the σ-index grows one member per query — the paper's
// "millions of subscriptions" shape), duplicate equality/range selections
// (member CSE), and same-window aggregates (exact CSE / sα attach).
//
// Reports per-add mean/p50/p99 µs over each checkpoint segment plus the
// plan's m-ops/query, writes BENCH_query_scale.json, and exits nonzero if
// the final segment's mean per-add latency exceeds 3x the first segment's
// (the flatness acceptance; CI runs a tiny N=5k variant gated against the
// committed JSON). RUMOR_BENCH_TINY=<n> caps N for smoke runs.
//
// At each checkpoint it also times kRemoves RemoveQuery calls on random
// standing queries, re-adding each after its remove so N stays fixed, and
// reports their mean/p50/p99 µs beside the add columns. Remove still walks
// the whole plan, so these are not gated; they record the baseline.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "api/stream_engine.h"
#include "bench/figure_common.h"
#include "common/json_writer.h"
#include "common/rng.h"

using namespace rumor;

namespace {

Schema CpuSchema() {
  return Schema({{"pid", ValueType::kInt}, {"load", ValueType::kInt}});
}

// Query i of the workload. The mix is chosen so the shared plan grows O(1)
// per add (members and channels, never fresh scan targets): that isolates
// the *discovery* cost the ShareIndex is supposed to make O(1).
std::string QueryRql(int i) {
  switch (i % 4) {
    case 0:  // unique equality — new σ-index member per query
      return "SELECT * FROM CPU WHERE pid = " + std::to_string(i);
    case 1:  // duplicate equality — member CSE onto a warm index member
      return "SELECT * FROM CPU WHERE pid = " + std::to_string(i % 100);
    case 2:  // small window pool — exact CSE after the first of each shape
      return "SELECT pid, AVG(load) FROM CPU [RANGE " +
             std::to_string(8 << (i / 4 % 4)) + "] GROUP BY pid";
    default:  // duplicate range selection — member CSE
      return "SELECT * FROM CPU WHERE load > " + std::to_string(i % 50);
  }
}

// Query i of the join-heavy variant: equi-joins over two windowed sources.
// Window sizes come from a small pool, so every add resolves through the
// ShareIndex's join probes — the first query of each window shape merges as
// a new member of the shared join (rule mjoin), every repeat is an exact
// CSE hit on a warm join member. Distinct from the σ workload above, each
// probe matches against *two* input channels and a two-sided member
// signature.
std::string JoinRql(int i) {
  const int w = 8 << (i / 3 % 8);  // 8 window shapes: 8..1024
  switch (i % 3) {
    case 0:  // the one hot shape — exact CSE on a warm join member
      return "SELECT * FROM A [RANGE 64] JOIN B [RANGE 64] ON A.x = B.x";
    case 1:  // symmetric window pool
      return "SELECT * FROM A [RANGE " + std::to_string(w) +
             "] JOIN B [RANGE " + std::to_string(w) + "] ON A.x = B.x";
    default:  // asymmetric windows — exercises the two-sided signature
      return "SELECT * FROM A [RANGE 32] JOIN B [RANGE " + std::to_string(w) +
             "] ON A.x = B.x";
  }
}

constexpr int kRemoves = 200;  // timed removes per σ-workload checkpoint

struct Latency {
  double mean_us = 0;
  double p50_us = 0;
  double p99_us = 0;
};

Latency Percentiles(std::vector<double>& us) {
  Latency l;
  std::sort(us.begin(), us.end());
  double sum = 0;
  for (double v : us) sum += v;
  l.mean_us = sum / static_cast<double>(us.size());
  l.p50_us = us[us.size() / 2];
  l.p99_us = us[us.size() * 99 / 100];
  return l;
}

double MicrosSince(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

struct Segment {
  int n_end = 0;  // standing queries at the checkpoint
  Latency add;
  Latency remove;  // σ workload only
  int live_mops = 0;
  double mops_per_query = 0;
};

Segment Summarize(int n_end, std::vector<double>& us,
                  const StreamEngine& engine) {
  Segment s;
  s.n_end = n_end;
  s.add = Percentiles(us);
  const OptimizeStats sharing = engine.CollectMetrics().optimize;
  s.live_mops = sharing.live_mops;
  s.mops_per_query = sharing.mops_per_query();
  return s;
}

// The join-heavy variant: same measurement (per-add latency over a running
// engine) against a population of standing equi-join queries. Returns the
// two-segment summary (first half vs second half of the adds).
std::vector<Segment> RunJoinVariant(int total) {
  Schema ab = Schema({{"x", ValueType::kInt}, {"v", ValueType::kInt}});
  StreamEngine engine;
  RUMOR_CHECK(engine.RegisterSource("A", ab).ok());
  RUMOR_CHECK(engine.RegisterSource("B", ab).ok());
  RUMOR_CHECK(engine.AddQueryText(JoinRql(0), "J0").ok());
  RUMOR_CHECK(engine.Start().ok());
  // Warm both windows so merges land on joins with buffered state.
  for (int i = 0; i < 1000; ++i) {
    RUMOR_CHECK(engine.Push("A", Tuple::MakeInts({i % 37, i}, i)).ok());
    RUMOR_CHECK(engine.Push("B", Tuple::MakeInts({i % 37, -i}, i)).ok());
  }

  std::vector<Segment> segments;
  std::vector<double> us;
  for (int i = 1; i < total; ++i) {
    const std::string rql = JoinRql(i);
    const std::string name = "J" + std::to_string(i);
    auto t0 = std::chrono::steady_clock::now();
    Status s = engine.AddQueryText(rql, name);
    us.push_back(MicrosSince(t0));
    RUMOR_CHECK(s.ok()) << s.ToString();
    if (i + 1 == total / 2 || i + 1 == total) {
      segments.push_back(Summarize(i + 1, us, engine));
      us.clear();
    }
  }
  return segments;
}

}  // namespace

int main() {
  int total = 100000;
  if (const char* env = std::getenv("RUMOR_BENCH_QUERY_SCALE_N")) {
    total = std::atoi(env);
  }
  if (const char* env = std::getenv("RUMOR_BENCH_TINY")) {
    total = std::atoi(env);
  }
  RUMOR_CHECK(total >= 2000) << "need at least two checkpoint segments";

  // Checkpoints at each decade (plus the final N): the flatness claim is a
  // comparison of per-add latency across decades of standing queries.
  std::vector<int> checkpoints;
  for (int n = 1000; n < total; n *= 10) checkpoints.push_back(n);
  checkpoints.push_back(total);

  StreamEngine engine;
  RUMOR_CHECK(engine.RegisterSource("CPU", CpuSchema()).ok());
  RUMOR_CHECK(engine.AddQueryText(QueryRql(0), "Q0").ok());
  RUMOR_CHECK(engine.Start().ok());
  // Warm the plan with some traffic so merges land on operators with state.
  for (int i = 0; i < 2000; ++i) {
    RUMOR_CHECK(
        engine.Push("CPU", Tuple::MakeInts({i % 97, i % 101}, i)).ok());
  }

  std::vector<Segment> segments;
  std::vector<double> us;  // per-add latencies of the current segment
  std::vector<double> removes;
  Rng pick(1);
  size_t next = 0;
  for (int i = 1; i < total; ++i) {
    const std::string rql = QueryRql(i);
    const std::string name = "Q" + std::to_string(i);
    auto t0 = std::chrono::steady_clock::now();
    Status s = engine.AddQueryText(rql, name);
    us.push_back(MicrosSince(t0));
    RUMOR_CHECK(s.ok()) << s.ToString();
    if (i + 1 == checkpoints[next]) {
      segments.push_back(Summarize(i + 1, us, engine));
      us.clear();
      removes.clear();
      for (int r = 0; r < kRemoves; ++r) {
        const int victim = static_cast<int>(pick.UniformInt(0, i));
        const std::string victim_name = "Q" + std::to_string(victim);
        t0 = std::chrono::steady_clock::now();
        s = engine.RemoveQuery(victim_name);
        removes.push_back(MicrosSince(t0));
        RUMOR_CHECK(s.ok()) << s.ToString();
        s = engine.AddQueryText(QueryRql(victim), victim_name);
        RUMOR_CHECK(s.ok()) << s.ToString();
      }
      segments.back().remove = Percentiles(removes);
      ++next;
    }
  }
  RUMOR_CHECK(next == checkpoints.size());

  const double flatness =
      segments.back().add.mean_us / segments.front().add.mean_us;
  const OptimizeStats& stats = engine.optimize_stats();

  // Join-heavy variant at a tenth of the σ population (joins carry windowed
  // state on both inputs; a tenth keeps the bench's runtime proportionate).
  const int join_total = std::max(500, total / 10);
  std::vector<Segment> join_segments = RunJoinVariant(join_total);
  const double join_flatness =
      join_segments.back().add.mean_us / join_segments.front().add.mean_us;

  const bool pass = flatness <= 3.0 && join_flatness <= 3.0;

  std::printf("# query-scale — per-add and per-remove latency vs standing "
              "query count\n");
  std::printf("%10s %12s %12s %12s %12s %12s %12s %10s %14s\n", "N",
              "mean_us", "p50_us", "p99_us", "rm_mean_us", "rm_p50_us",
              "rm_p99_us", "m-ops", "m-ops/query");
  for (const Segment& s : segments) {
    std::printf("%10d %12.1f %12.1f %12.1f %12.1f %12.1f %12.1f %10d %14.4f\n",
                s.n_end, s.add.mean_us, s.add.p50_us, s.add.p99_us,
                s.remove.mean_us, s.remove.p50_us, s.remove.p99_us,
                s.live_mops, s.mops_per_query);
  }
  std::printf("# incremental merges: cse=%d attach=%d rules=%d\n",
              stats.incremental_cse_merges, stats.incremental_attach_merges,
              stats.incremental_rule_merges);
  std::printf("# flatness (last/first segment mean): %.2fx\n", flatness);
  std::printf("# join-heavy variant — equi-join standing queries\n");
  for (const Segment& s : join_segments) {
    std::printf("%10d %12.1f %12.1f %12.1f %10d %14.4f\n", s.n_end,
                s.add.mean_us, s.add.p50_us, s.add.p99_us, s.live_mops,
                s.mops_per_query);
  }
  std::printf("# join flatness (last/first segment mean): %.2fx\n",
              join_flatness);
  std::printf("# acceptance: flatness <= 3x (both workloads): %s\n",
              pass ? "PASS" : "FAIL");

  JsonWriter w;
  w.BeginObject()
      .KV("bench", "query_scale")
      .KV("queries", total)
      .Key("flatness_ratio")
      .Double(flatness, 4)
      .KV("incremental_cse_merges", stats.incremental_cse_merges)
      .KV("incremental_attach_merges", stats.incremental_attach_merges)
      .KV("incremental_rule_merges", stats.incremental_rule_merges);
  w.Key("checkpoints").BeginArray();
  for (const Segment& s : segments) {
    w.BeginObject()
        .KV("n", s.n_end)
        .Key("mean_us")
        .Double(s.add.mean_us, 3)
        .Key("p50_us")
        .Double(s.add.p50_us, 3)
        .Key("p99_us")
        .Double(s.add.p99_us, 3)
        .Key("remove_mean_us")
        .Double(s.remove.mean_us, 3)
        .Key("remove_p50_us")
        .Double(s.remove.p50_us, 3)
        .Key("remove_p99_us")
        .Double(s.remove.p99_us, 3)
        .KV("live_mops", s.live_mops)
        .Key("mops_per_query")
        .Double(s.mops_per_query, 4)
        .EndObject();
  }
  w.EndArray();
  w.KV("join_queries", join_total)
      .Key("join_flatness_ratio")
      .Double(join_flatness, 4);
  w.Key("join_checkpoints").BeginArray();
  for (const Segment& s : join_segments) {
    w.BeginObject()
        .KV("n", s.n_end)
        .Key("mean_us")
        .Double(s.add.mean_us, 3)
        .Key("p50_us")
        .Double(s.add.p50_us, 3)
        .Key("p99_us")
        .Double(s.add.p99_us, 3)
        .KV("live_mops", s.live_mops)
        .Key("mops_per_query")
        .Double(s.mops_per_query, 4)
        .EndObject();
  }
  w.EndArray().EndObject();
  bench::WriteReport("BENCH_query_scale.json", w.str());
  return pass ? 0 : 1;
}
