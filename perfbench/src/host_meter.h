// The host meter: a fixed reference kernel that measures how fast the host
// runs this kind of work at the moment.
//
// On a shared host, neighbours on the same physical cores slow the engine's
// cache-heavy work by up to 2x, for seconds to minutes at a time, and a plain
// CPU loop hardly notices (STEADINESS.md). The meter is the benchmark's own
// code and never calls the engine: a keyed sliding window in a
// std::unordered_map of std::deque, the structure the engine's join, sequence
// and window m-ops keep per key, over a table somewhat larger than one core's
// L2. The gated time metrics are scaled by its speed, sampled between the
// timed calls of the same run, to what they would read at the reference speed
// kReferenceMeterNs.
#ifndef PERFBENCH_HOST_METER_H_
#define PERFBENCH_HOST_METER_H_

#include <cstdint>
#include <deque>
#include <unordered_map>
#include <vector>

namespace perfbench {

// A fixed reference speed: the meter read 80-100 ns per operation on a quiet
// core of the host the benchmark was built on. Scaled metrics read what they
// would at this speed.
inline constexpr double kReferenceMeterNs = 100.0;

class HostMeter {
 public:
  HostMeter();

  // Appends Sample() to `ns_per_op` if the last sample is at least 100 ms old.
  void Tick(std::vector<double>* ns_per_op);

 private:
  // Times one sample and returns its ns per operation. An untimed pass first
  // brings the whole table back into the caches, so the sample depends less
  // on what ran before it (perfbench/steadiness/meter_experiment.txt).
  double Sample();

  struct Row {
    int64_t ts;
    uint32_t key;
    uint32_t value;
  };
  void Step();

  std::unordered_map<uint32_t, std::deque<Row>> table_;
  uint64_t rng_ = 0x9e3779b97f4a7c15ull;
  int64_t ts_ = 0;
  int64_t last_sample_ns_ = 0;
  uint64_t sink_ = 0;
};

// Median sample / kReferenceMeterNs: above 1 while the host runs slower than
// the reference. 1 without samples.
double HostSlowdown(const std::vector<double>& ns_per_op);

}  // namespace perfbench

#endif  // PERFBENCH_HOST_METER_H_
