// The untraced run: end-to-end metrics through the public StreamEngine API,
// then the correctness gate against unshared reference engines.
//
// Order: set-up, warm-up prefix (digested), timed region, peak RSS,
// checkpoint/restore repetitions of the warm engine (window_agg,
// query_churn), the churn gap check (query_churn) and the all-rules-off
// reference, so no verification work lands in a timed region or in
// peak_rss_mb. Further set-ups run in groups between those phases and
// between the parts of the reference run. The host meter is sampled every
// 100 ms of the timed region, outside the timed calls.
#include <cstdio>

#include "common/str_util.h"
#include "host_meter.h"
#include "runs.h"

namespace perfbench {

using rumor::StrCat;

namespace {

constexpr int64_t kNsPerS = 1000000000;
// Events pushed after each restore (and after the churn gap) to compare
// engines per query.
constexpr int64_t kSuffixEvents = 1024;
// Each group of extra set-ups runs at least kSetupGroupMinReps set-ups and
// goes on while under kSetupGroupNs. The groups are spread over the seconds
// after the timed region, so setup_s is not the host's speed at one moment.
constexpr int kSetupGroupMinReps = 2;
constexpr int64_t kSetupGroupNs = kNsPerS;
// The reference run's prefix is pushed in this many parts, each followed by
// a set-up group.
constexpr size_t kReferenceParts = 3;

double Seconds(int64_t ns) { return static_cast<double>(ns) / 1e9; }

uint64_t HashInputs(const Workload& w, const Chunk& prefix) {
  uint64_t h = 0;
  for (const std::string& text : w.texts) {
    h = rumor::HashCombine(h, rumor::HashBytes(text));
  }
  for (size_t i = 0; i < prefix.size(); ++i) {
    h = rumor::HashCombine(h, static_cast<uint64_t>(prefix.source[i]));
    h = rumor::HashCombine(h, prefix.tuples[i].ContentHash());
  }
  return h;
}

// Repeats `fn` at least `min_reps` times, and while under `budget_ns` up to
// `max_reps` times.
template <typename Fn>
void Repeat(int min_reps, int max_reps, int64_t budget_ns, Fn fn) {
  const int64_t t0 = NowNs();
  for (int i = 0; i < max_reps; ++i) {
    if (i >= min_reps && NowNs() - t0 >= budget_ns) break;
    fn();
  }
}

// Live queries: names and texts, in no particular order.
struct LiveSet {
  std::vector<std::string> names;
  std::vector<std::string> texts;

  void Add(std::string name, std::string text) {
    names.push_back(std::move(name));
    texts.push_back(std::move(text));
  }
  // Removes entry `i` (swap with the last) and returns its name.
  std::string Take(size_t i) {
    std::string name = std::move(names[i]);
    names[i] = std::move(names.back());
    texts[i] = std::move(texts.back());
    names.pop_back();
    texts.pop_back();
    return name;
  }
};

}  // namespace

PlainResult RunPlain(const Workload& w, const Options& o) {
  PlainResult r;
  Tally& tally = r.tally;
  const int64_t budget_ns = static_cast<int64_t>(o.seconds * kNsPerS);

  std::unique_ptr<EventGen> gen = w.make_events();
  rumor::Rng add_rng(SubSeed(o.seed, 3));   // live-added queries
  rumor::Rng pick_rng(SubSeed(o.seed, 4));  // removal victims
  int64_t next_query = static_cast<int64_t>(w.names.size());
  LiveSet live{w.names, w.texts};
  std::vector<double> setup_s;
  HostMeter meter;
  std::vector<double> meter_ns;

  Harness engine;
  {
    const int64_t t0 = NowNs();
    tally.Check(engine.Setup(w, w.names, w.texts), "setup");
    setup_s.push_back(Seconds(NowNs() - t0));
  }
  auto setup_group = [&] {
    Repeat(kSetupGroupMinReps, 1 << 20, kSetupGroupNs, [&] {
      Harness h;
      const int64_t t0 = NowNs();
      tally.Check(h.Setup(w, w.names, w.texts), "setup");
      setup_s.push_back(Seconds(NowNs() - t0));
    });
  };

  // Warm-up prefix: fills the largest window; its per-query digests are
  // checked against the reference at the end.
  DigestMap prefix_digests;
  Chunk chunk;
  gen->Next(w.warmup_events, &chunk);
  r.input_hash = HashInputs(w, chunk);
  engine.set_digests(&prefix_digests);
  r.shared_prefix_ns = engine.Push(w, chunk, &tally);
  engine.set_digests(nullptr);
  if (o.fault == "digest") prefix_digests[w.names.front()].hash ^= 1;
  r.digest_hash = HashDigests(w.names, prefix_digests);

  // query_churn's live add of a fresh query of the workload's family, then
  // removal of a random live query; both timed.
  rumor::LatencyHistogram add_lat, remove_lat;
  auto add_one = [&] {
    std::string text = w.make_query(add_rng, next_query);
    std::string name = StrCat("n", next_query++);
    const int64_t t0 = NowNs();
    const rumor::Status st = engine.engine().AddQueryText(text, name);
    add_lat.Record(NowNs() - t0);
    if (tally.Check(st, "add")) live.Add(std::move(name), std::move(text));
  };
  auto remove_one = [&] {
    const size_t i = static_cast<size_t>(
        pick_rng.UniformInt(0, static_cast<int64_t>(live.names.size()) - 1));
    const std::string name = live.Take(i);
    const int64_t t0 = NowNs();
    const rumor::Status st = engine.engine().RemoveQuery(name);
    remove_lat.Record(NowNs() - t0);
    tally.Check(st, "remove");
  };

  // Timed region.
  rumor::LatencyHistogram push_lat;
  int64_t push_ns = 0, events = 0;
  const int64_t outputs_before = engine.outputs();
  const int64_t t_data = NowNs();
  while (NowNs() - t_data < budget_ns) {
    meter.Tick(&meter_ns);
    gen->Next(w.churn ? w.batch : kChunkEvents, &chunk);
    if (w.churn) add_one();
    push_ns += engine.Push(w, chunk, &tally, &push_lat);
    events += static_cast<int64_t>(chunk.size());
    if (w.churn) remove_one();
  }
  const int64_t outputs = engine.outputs() - outputs_before;
  const double peak_rss = PeakRssMiB();
  setup_group();

  // Checkpoint of the warm engine and restore into fresh engines, repeated;
  // every restored engine must then agree with the original per query.
  Chunk suffix;
  gen->Next(kSuffixEvents, &suffix);
  std::vector<double> checkpoint_ms, restore_ms;
  if (w.snapshots) {
    std::vector<DigestMap> restored_digests;
    std::string snapshot;
    Repeat(5, 21, 2 * kNsPerS, [&] {
      int64_t t0 = NowNs();
      tally.Check(engine.engine().Checkpoint(&snapshot), "checkpoint");
      checkpoint_ms.push_back((NowNs() - t0) / 1e6);
      Harness copy;
      t0 = NowNs();
      const rumor::Status st = copy.engine().Restore(snapshot);
      restore_ms.push_back((NowNs() - t0) / 1e6);
      if (!tally.Check(st, "restore")) return;
      restored_digests.emplace_back();
      copy.set_digests(&restored_digests.back());
      copy.Push(w, suffix, &tally);
    });
    DigestMap original;
    engine.set_digests(&original);
    engine.Push(w, suffix, &tally);
    engine.set_digests(nullptr);
    for (const DigestMap& d : restored_digests) {
      tally.Compare(live.names, d, original, "restore");
    }
  }

  // Churn: after an event-time gap longer than any window, the churned
  // engine must agree with a fresh unshared engine on the surviving set.
  if (w.churn) {
    gen->SkipTo(suffix.tuples.back().ts() + w.max_window + 2);
    gen->Next(kSuffixEvents, &suffix);
    Harness fresh(AllRulesOff());
    tally.Check(fresh.Setup(w, live.names, live.texts), "reference setup");
    DigestMap got, want;
    engine.set_digests(&got);
    engine.Push(w, suffix, &tally);
    fresh.set_digests(&want);
    fresh.Push(w, suffix, &tally);
    tally.Compare(live.names, got, want, "churn");
  }

  // The MQO reference: the standing queries run unshared over the same
  // warm-up prefix.
  {
    Harness ref(AllRulesOff());
    tally.Check(ref.Setup(w, w.names, w.texts), "reference setup");
    std::unique_ptr<EventGen> regen = w.make_events();
    Chunk prefix;
    regen->Next(w.warmup_events, &prefix);
    if (o.fault == "drop_event") {
      const size_t mid = prefix.size() / 2;
      prefix.source.erase(prefix.source.begin() + mid);
      prefix.tuples.erase(prefix.tuples.begin() + mid);
    }
    DigestMap want;
    ref.set_digests(&want);
    const size_t part = (prefix.size() + kReferenceParts - 1) / kReferenceParts;
    for (size_t begin = 0; begin < prefix.size(); begin += part) {
      const size_t end = std::min(prefix.size(), begin + part);
      Chunk piece;
      piece.source.assign(prefix.source.begin() + begin,
                          prefix.source.begin() + end);
      piece.tuples.assign(prefix.tuples.begin() + begin,
                          prefix.tuples.begin() + end);
      r.reference_prefix_ns += ref.Push(w, piece, &tally);
      setup_group();
    }
    tally.Compare(w.names, prefix_digests, want, "reference");
  }

  const double push_s = Seconds(push_ns);
  const int64_t calls = push_lat.count();
  const auto n_of = [](const std::vector<double>& v) {
    return static_cast<int64_t>(v.size());
  };
  r.events_per_s = events / push_s;
  // The gated rates and set-up time are scaled to the meter's reference
  // speed by the meter's median over the timed region; raw_* are as
  // measured. The set-ups are not metered on their own: next to set-ups of
  // 0.1 s and more the meter reads the allocator's state as much as the
  // host's (STEADINESS.md).
  const double slowdown = HostSlowdown(meter_ns);
  r.metrics = {
      {"events_per_s", r.events_per_s * slowdown, "events/s", calls},
      {"outputs_per_s", outputs / push_s * slowdown, "results/s", calls},
      {"push_p50_us", push_lat.Percentile(0.50) / 1e3, "us", calls},
      {"push_p99_us", push_lat.Percentile(0.99) / 1e3, "us", calls},
      {"setup_s", Median(setup_s) / slowdown, "s", n_of(setup_s)},
      {"add_p50_us", add_lat.Percentile(0.50) / 1e3, "us", add_lat.count()},
      {"remove_p50_us", remove_lat.Percentile(0.50) / 1e3, "us",
       remove_lat.count()},
      {"checkpoint_ms", Median(checkpoint_ms), "ms", n_of(checkpoint_ms)},
      {"restore_ms", Median(restore_ms), "ms", n_of(restore_ms)},
      {"peak_rss_mb", peak_rss, "MiB", 1},
      {"raw_events_per_s", r.events_per_s, "events/s", calls},
      {"raw_outputs_per_s", outputs / push_s, "results/s", calls},
      {"raw_setup_s", Median(setup_s), "s", n_of(setup_s)},
      {"host_meter_ns", Median(meter_ns), "ns/op", n_of(meter_ns)},
  };
  // A p99 only from at least 1,000 calls.
  if (add_lat.count() >= 1000) {
    r.metrics.push_back({"add_p99_us", add_lat.Percentile(0.99) / 1e3, "us",
                         add_lat.count()});
  }
  if (remove_lat.count() >= 1000) {
    r.metrics.push_back({"remove_p99_us", remove_lat.Percentile(0.99) / 1e3,
                         "us", remove_lat.count()});
  }
  r.metrics.push_back(
      {"error_rate",
       static_cast<double>(tally.failed()) /
           static_cast<double>(std::max<int64_t>(tally.attempted(), 1)),
       "ratio", tally.attempted()});
  return r;
}

}  // namespace perfbench
