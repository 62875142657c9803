#include "workloads.h"

#include <algorithm>

#include "common/hash.h"
#include "common/str_util.h"
#include "workload/perfmon.h"
#include "workload/synthetic.h"

namespace perfbench {

using rumor::Rng;
using rumor::StrCat;

uint64_t SubSeed(uint64_t seed, uint64_t tag) {
  return rumor::HashCombine(rumor::Mix64(seed), tag);
}

namespace {

enum Stream : uint64_t { kQueries = 1, kEvents = 2 };

// Paper §5.1 synthetic events: attributes uniform in [0, 1000), consecutive
// timestamps. With one source every event goes to it; with two, even
// timestamps go to source 0 (S) and odd ones to source 1 (T).
class SyntheticGen : public EventGen {
 public:
  SyntheticGen(int attributes, bool two_sources, uint64_t seed)
      : two_sources_(two_sources), rng_(seed) {
    params_.num_attributes = attributes;
    params_.constant_domain = 1000;
  }
  void Next(int64_t n, Chunk* out) override {
    std::vector<rumor::Event> events =
        rumor::GenerateInterleaved(params_, n, next_ts_, rng_);
    next_ts_ += n;
    out->source.clear();
    out->tuples.clear();
    for (rumor::Event& e : events) {
      out->source.push_back(two_sources_ ? e.stream : 0);
      out->tuples.push_back(std::move(e.tuple));
    }
  }
  void SkipTo(rumor::Timestamp ts) override {
    // Keep S/T alternation aligned with timestamp parity.
    next_ts_ = std::max(next_ts_, ts + (ts % 2));
  }

 private:
  rumor::SyntheticParams params_;
  bool two_sources_;
  Rng rng_;
  rumor::Timestamp next_ts_ = 0;
};

// The workload/perfmon CPU trace of 64 processes (one (pid, load) tuple per
// process per second), generated in segments of kSegmentSeconds, each from
// its own sub-seed and shifted to follow the previous one.
class PerfmonGen : public EventGen {
 public:
  static constexpr int kProcesses = 64;
  static constexpr int64_t kSegmentSeconds = 256;

  explicit PerfmonGen(uint64_t seed) : seed_(seed) {}

  void Next(int64_t n, Chunk* out) override {
    out->source.assign(n, 0);
    out->tuples.clear();
    while (static_cast<int64_t>(out->tuples.size()) < n) {
      if (pos_ == buffer_.size()) Refill();
      out->tuples.push_back(buffer_[pos_++]);
    }
  }
  void SkipTo(rumor::Timestamp ts) override {
    buffer_.clear();
    pos_ = 0;
    base_ = std::max(base_, ts);
  }

 private:
  void Refill() {
    rumor::PerfmonParams p;
    p.num_processes = kProcesses;
    p.duration_seconds = kSegmentSeconds;
    p.seed = SubSeed(seed_, segment_++);
    buffer_.clear();
    for (const rumor::Tuple& t : rumor::GeneratePerfmonTrace(p)) {
      buffer_.push_back(t.WithTimestamp(t.ts() + base_));
    }
    pos_ = 0;
    base_ += kSegmentSeconds;
  }

  uint64_t seed_;
  uint64_t segment_ = 0;
  rumor::Timestamp base_ = 0;
  std::vector<rumor::Tuple> buffer_;
  size_t pos_ = 0;
};

int64_t Uniform(Rng& rng, int64_t lo, int64_t hi) {
  return rng.UniformInt(lo, hi);
}

// A window for query `i` of `n` standing queries, uniform in [lo, hi] and
// stratified: query i draws from the i-th of n equal slices of the range.
// Across seeds this keeps the spread of windows, and with it the state size
// and result rate, the same; live adds (i >= n) draw from the whole range.
int64_t StratifiedWindow(Rng& rng, int64_t i, int64_t n, int64_t lo,
                         int64_t hi) {
  if (i >= n) return Uniform(rng, lo, hi);
  const double u = (static_cast<double>(i) + rng.UniformDouble()) /
                   static_cast<double>(n);
  return lo + static_cast<int64_t>(u * static_cast<double>(hi - lo + 1));
}

// Fills names/texts with the first `n` queries and max_window with their
// largest RANGE/WITHIN (`last_window` returns the window of the query just
// made, or 0).
void MakeStanding(Workload* w, uint64_t seed, int n,
                  const std::function<int64_t()>& last_window) {
  Rng rng(SubSeed(seed, kQueries));
  for (int i = 0; i < n; ++i) {
    w->names.push_back(StrCat("q", i));
    w->texts.push_back(w->make_query(rng, i));
    w->max_window = std::max(w->max_window, last_window());
  }
}

}  // namespace

std::unique_ptr<Workload> MakeWorkload(const std::string& name,
                                       uint64_t seed) {
  auto w = std::make_unique<Workload>();
  w->name = name;
  const uint64_t event_seed = SubSeed(seed, kEvents);
  // The window of the most recently generated query (MakeStanding reads it
  // after each make_query call).
  auto window = std::make_shared<int64_t>(0);
  auto last_window = [window] { return *window; };

  if (name == "select_index") {
    // Fig. 9 publish/subscribe: sσ folds the queries into one predicate
    // index keyed on a0; a1 <= r stays a residual predicate.
    w->params =
        "10000 x SELECT * FROM S WHERE a0 = c AND a1 <= r; S has 10 ints; "
        "c, r, values uniform in [0,1000); PushBatch of 64";
    w->sources = {{"S", rumor::Schema::MakeInts(10)}};
    w->batch = 64;
    w->make_query = [](Rng& rng, int64_t) {
      return StrCat("SELECT * FROM S WHERE a0 = ", Uniform(rng, 0, 999),
                    " AND a1 <= ", Uniform(rng, 0, 999));
    };
    MakeStanding(w.get(), seed, 10000, last_window);
    w->warmup_events = 8192;
    w->make_events = [event_seed] {
      return std::make_unique<SyntheticGen>(10, false, event_seed);
    };
  } else if (name == "window_agg") {
    // Fig. 11 smoothing stage: sα folds the queries into one shared window
    // engine per aggregate function; every member emits on every event.
    w->params =
        "100 x SELECT pid, F(load) FROM CPU [RANGE w] GROUP BY pid; F cycles "
        "SUM/AVG/MIN/MAX/COUNT; w uniform in [60,600] (stratified); perfmon trace of 64 "
        "processes; PushBatch of 64";
    w->sources = {{"CPU", rumor::PerfmonSchema()}};
    w->batch = 64;
    w->make_query = [window](Rng& rng, int64_t i) {
      static const char* kFns[] = {"SUM", "AVG", "MIN", "MAX", "COUNT"};
      *window = StratifiedWindow(rng, i, 100, 60, 600);
      return StrCat("SELECT pid, ", kFns[i % 5], "(load) FROM CPU [RANGE ",
                    *window, "] GROUP BY pid");
    };
    MakeStanding(w.get(), seed, 100, last_window);
    w->snapshots = true;
    w->warmup_events = (w->max_window + 1) * PerfmonGen::kProcesses;
    w->make_events = [event_seed] {
      return std::make_unique<PerfmonGen>(event_seed);
    };
  } else if (name == "pattern_join") {
    // Fig. 10a/b (paper Workload 2) plus a window join: every m-op has two
    // inputs, so the executor dispatches one tuple at a time.
    w->params =
        "120 queries, a third each of S SEQ T / S ITERATE T (T.a1 > last.a1) "
        "/ S [RANGE w] JOIN T [RANGE w], all ON S.a0 = T.a0; w uniform in "
        "[10,1000] (stratified); S, T 4 ints uniform in [0,1000), alternating; one tuple "
        "per Push";
    w->sources = {{"S", rumor::Schema::MakeInts(4)},
                  {"T", rumor::Schema::MakeInts(4)}};
    w->batch = 1;
    w->make_query = [window](Rng& rng, int64_t i) {
      *window = StratifiedWindow(rng, i, 120, 10, 1000);
      switch (i % 3) {
        case 0:
          return StrCat("SELECT * FROM S SEQ T ON S.a0 = T.a0 WITHIN ",
                        *window);
        case 1:
          return StrCat(
              "SELECT * FROM S ITERATE T ON S.a0 = T.a0 AND T.a1 > last.a1 "
              "WITHIN ",
              *window);
        default:
          return StrCat("SELECT * FROM S [RANGE ", *window, "] JOIN T [RANGE ",
                        *window, "] ON S.a0 = T.a0");
      }
    };
    MakeStanding(w.get(), seed, 120, last_window);
    // Not checkpointed: Restore cannot load state into the shared join (s⋈)
    // this plan builds (JoinMop::LoadState returns Unimplemented).
    w->warmup_events = std::max<int64_t>(w->max_window + 1, 8192);
    w->make_events = [event_seed] {
      return std::make_unique<SyntheticGen>(4, true, event_seed);
    };
  } else if (name == "query_churn") {
    // Live add/remove beside the data path: 90% selections (half keyed on
    // pid, half not), 10% windowed AVG/MAX per pid.
    w->params =
        "5000 standing queries on CPU(pid, load): 45% pid = c AND load > t, "
        "45% load > t, 10% AVG/MAX(load) [RANGE w] GROUP BY pid; c in "
        "[0,64), t in [0,100), w in [8,120]; each step adds one, pushes 16 "
        "trace events, removes a random live one";
    w->sources = {{"CPU", rumor::PerfmonSchema()}};
    w->batch = 16;
    w->churn = true;
    w->snapshots = true;
    w->make_query = [window](Rng& rng, int64_t) -> std::string {
      const int64_t kind = Uniform(rng, 0, 19);
      *window = 0;
      if (kind < 9) {
        return StrCat("SELECT * FROM CPU WHERE pid = ", Uniform(rng, 0, 63),
                      " AND load > ", Uniform(rng, 0, 99));
      }
      if (kind < 18) {
        return StrCat("SELECT * FROM CPU WHERE load > ", Uniform(rng, 0, 99));
      }
      *window = Uniform(rng, 8, 120);
      return StrCat("SELECT pid, ", kind == 18 ? "AVG" : "MAX",
                    "(load) FROM CPU [RANGE ", *window, "] GROUP BY pid");
    };
    MakeStanding(w.get(), seed, 5000, last_window);
    w->max_window = 120;  // live adds draw from the same window range
    w->warmup_events = std::max<int64_t>(
        (w->max_window + 1) * PerfmonGen::kProcesses, 8192);
    w->make_events = [event_seed] {
      return std::make_unique<PerfmonGen>(event_seed);
    };
  } else {
    return nullptr;
  }
  return w;
}

}  // namespace perfbench
