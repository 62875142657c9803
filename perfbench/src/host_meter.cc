#include "host_meter.h"

#include "bench_util.h"

namespace perfbench {

namespace {

// 4,096 keys holding the last 16,384 rows: about 3 MiB of deques and map
// nodes, a little more than one core's L2.
constexpr uint32_t kKeys = 4096;
constexpr int64_t kWindow = 16384;
constexpr int kTimedOps = 8192;
constexpr int64_t kIntervalNs = 100000000;

}  // namespace

HostMeter::HostMeter() {
  for (int64_t i = 0; i < 4 * kWindow; ++i) Step();
}

// One row arrives on a random key: expire that key's rows older than the
// window, compare the new row with every row left (a keyed window join), then
// append it.
void HostMeter::Step() {
  rng_ ^= rng_ << 13;
  rng_ ^= rng_ >> 7;
  rng_ ^= rng_ << 17;
  const uint32_t key = static_cast<uint32_t>(rng_ % kKeys);
  const uint32_t value = static_cast<uint32_t>((rng_ >> 32) % 1000);
  std::deque<Row>& rows = table_[key];
  while (!rows.empty() && rows.front().ts < ts_ - kWindow) rows.pop_front();
  for (const Row& r : rows) sink_ += r.value > value ? 1 : 0;
  rows.push_back({ts_, key, value});
  ++ts_;
}

double HostMeter::Sample() {
  for (const auto& [key, rows] : table_) {
    for (const Row& r : rows) sink_ += r.value;
  }
  const int64_t t0 = NowNs();
  for (int i = 0; i < kTimedOps; ++i) Step();
  const int64_t t1 = NowNs();
  last_sample_ns_ = t1;
  return static_cast<double>(t1 - t0) / kTimedOps;
}

void HostMeter::Tick(std::vector<double>* ns_per_op) {
  if (NowNs() - last_sample_ns_ >= kIntervalNs) ns_per_op->push_back(Sample());
}

double HostSlowdown(const std::vector<double>& ns_per_op) {
  if (ns_per_op.empty()) return 1.0;
  return Median(ns_per_op) / kReferenceMeterNs;
}

}  // namespace perfbench
