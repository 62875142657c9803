// Small helpers shared by the benchmark's untraced and traced runs: clocks,
// order statistics, per-query result digests, peak RSS, and the in-memory
// span recorder of the traced run.
#ifndef PERFBENCH_BENCH_UTIL_H_
#define PERFBENCH_BENCH_UTIL_H_

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/hash.h"
#include "common/tuple.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

// Nearest-rank percentile (p in [0,1]) of an unsorted sample; 0 if empty.
inline double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  size_t rank = static_cast<size_t>(p * static_cast<double>(v.size()));
  if (rank >= v.size()) rank = v.size() - 1;
  return v[rank];
}

inline double Median(const std::vector<double>& v) { return Percentile(v, 0.5); }

// Result count and order-sensitive hash of one query's results.
struct Digest {
  int64_t count = 0;
  uint64_t hash = 0;

  void Add(const rumor::Tuple& t) {
    ++count;
    hash = rumor::HashCombine(hash, t.ContentHash());
  }
  bool operator==(const Digest& o) const {
    return count == o.count && hash == o.hash;
  }
};

using DigestMap = std::unordered_map<std::string, Digest>;

// Digest of `name` in `m`, or the empty digest.
inline Digest DigestOf(const DigestMap& m, const std::string& name) {
  auto it = m.find(name);
  return it == m.end() ? Digest{} : it->second;
}

// Process peak resident set (VmHWM) in MiB, or 0 if unreadable.
double PeakRssMiB();

// Spans of the traced run: (name, start, end, parent), kept in memory and
// written out as Chrome trace events at exit.
class SpanRecorder {
 public:
  // Opens a span under the innermost open span; returns its id.
  int Begin(const char* name);
  // Closes span `id`; returns its duration in ns.
  int64_t End(int id);
  // Sum of the durations of every span named `name`.
  int64_t TotalNs(const std::string& name) const;
  // Writes {"traceEvents": [...]} with each span's parent id in "args".
  bool WriteChromeJson(const std::string& path) const;
  size_t size() const { return spans_.size(); }

 private:
  struct Span {
    const char* name;
    int64_t start_ns;
    int64_t end_ns;
    int parent;
  };
  std::vector<Span> spans_;
  std::vector<int> open_;
};

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_UTIL_H_
