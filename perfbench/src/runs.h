// The untraced run (end-to-end metrics and the correctness gate) and the
// traced run (per-layer metrics) of one workload, plus the engine harness
// both drive through the public StreamEngine API.
#ifndef PERFBENCH_RUNS_H_
#define PERFBENCH_RUNS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "api/stream_engine.h"
#include "common/histogram.h"
#include "bench_util.h"
#include "workloads.h"

namespace perfbench {

// Events per generated chunk in the timed region of the static workloads.
inline constexpr int64_t kChunkEvents = 1024;

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  // Planted fault for the gate's self-test: "digest" flips one bit of one
  // query's digest; "drop_event" drops one event from the reference run.
  std::string fault;
  std::string trace_out;  // where the traced run writes its spans
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  int64_t samples = 0;  // timed calls or repetitions behind the value
};

// Operations attempted and failed. A failure is a non-OK Status or a query
// whose results differ from its reference.
class Tally {
 public:
  bool Check(const rumor::Status& status, const char* what);
  // One comparison per name; a missing digest counts as no results.
  void Compare(const std::vector<std::string>& names, const DigestMap& got,
               const DigestMap& want, const char* what);
  void Merge(const Tally& other) {
    attempted_ += other.attempted_;
    failed_ += other.failed_;
  }
  int64_t attempted() const { return attempted_; }
  int64_t failed() const { return failed_; }

 private:
  void Report(const std::string& message);
  int64_t attempted_ = 0;
  int64_t failed_ = 0;
};

// A StreamEngine whose output handler counts results and, while a digest
// map is set, digests them per query.
class Harness {
 public:
  explicit Harness(rumor::OptimizerOptions options = {});
  Harness(const Harness&) = delete;
  Harness& operator=(const Harness&) = delete;

  rumor::StreamEngine& engine() { return engine_; }
  int64_t outputs() const { return outputs_; }
  void set_digests(DigestMap* digests) { digests_ = digests; }

  // RegisterSource for every source, AddQueryText for every query, Start.
  rumor::Status Setup(const Workload& w, const std::vector<std::string>& names,
                      const std::vector<std::string>& texts);
  // Pushes `chunk` in the workload's call pattern (Push per event, or
  // PushBatch of w.batch events) and returns the wall time spent inside the
  // calls. Each call's time also goes to `latency` when given.
  int64_t Push(const Workload& w, const Chunk& chunk, Tally* tally,
               rumor::LatencyHistogram* latency = nullptr);

 private:
  rumor::StreamEngine engine_;
  int64_t outputs_ = 0;
  DigestMap* digests_ = nullptr;
};

// Every enable_* rule off: each query runs unshared (the MQO reference).
rumor::OptimizerOptions AllRulesOff();

struct PlainResult {
  std::vector<Metric> metrics;
  Tally tally;
  uint64_t input_hash = 0;   // warm-up prefix events + query texts
  uint64_t digest_hash = 0;  // per-query digests over the warm-up prefix
  double events_per_s = 0;
  // Push time of the warm-up prefix, shared plan vs the reference.
  int64_t shared_prefix_ns = 0;
  int64_t reference_prefix_ns = 0;
};

struct TracedResult {
  std::vector<Metric> metrics;
  Tally tally;
  uint64_t digest_hash = 0;  // pass A's warm-up prefix digests
};

PlainResult RunPlain(const Workload& w, const Options& options);
TracedResult RunTraced(const Workload& w, const Options& options,
                       const PlainResult& plain);

uint64_t HashDigests(const std::vector<std::string>& names,
                     const DigestMap& digests);

}  // namespace perfbench

#endif  // PERFBENCH_RUNS_H_
