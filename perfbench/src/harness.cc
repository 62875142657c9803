#include <cstdio>
#include <span>

#include "runs.h"

namespace perfbench {

void Tally::Report(const std::string& message) {
  // The first few failures name themselves; the count tells the rest.
  if (failed_ <= 5) std::fprintf(stderr, "FAILED: %s\n", message.c_str());
}

bool Tally::Check(const rumor::Status& status, const char* what) {
  ++attempted_;
  if (status.ok()) return true;
  ++failed_;
  Report(std::string(what) + ": " + status.ToString());
  return false;
}

void Tally::Compare(const std::vector<std::string>& names,
                    const DigestMap& got, const DigestMap& want,
                    const char* what) {
  for (const std::string& name : names) {
    ++attempted_;
    const Digest g = DigestOf(got, name);
    const Digest r = DigestOf(want, name);
    if (g == r) continue;
    ++failed_;
    Report(std::string(what) + ": query " + name + " has " +
           std::to_string(g.count) + " results, reference " +
           std::to_string(r.count) + (g.count == r.count ? " (digest differs)"
                                                         : ""));
  }
}

Harness::Harness(rumor::OptimizerOptions options) : engine_(options) {
  engine_.SetOutputHandler([this](const std::string& q, const rumor::Tuple& t) {
    ++outputs_;
    if (digests_ != nullptr) (*digests_)[q].Add(t);
  });
}

rumor::Status Harness::Setup(const Workload& w,
                             const std::vector<std::string>& names,
                             const std::vector<std::string>& texts) {
  for (const SourceDef& s : w.sources) {
    RUMOR_RETURN_IF_ERROR(engine_.RegisterSource(s.name, s.schema));
  }
  for (size_t i = 0; i < names.size(); ++i) {
    RUMOR_RETURN_IF_ERROR(engine_.AddQueryText(texts[i], names[i]));
  }
  return engine_.Start();
}

int64_t Harness::Push(const Workload& w, const Chunk& chunk, Tally* tally,
                      rumor::LatencyHistogram* latency) {
  int64_t total = 0;
  const size_t n = chunk.size();
  for (size_t i = 0; i < n;) {
    const std::string& source = w.sources[chunk.source[i]].name;
    const size_t len = std::min<size_t>(w.batch, n - i);
    const int64_t t0 = NowNs();
    const rumor::Status st =
        len == 1 ? engine_.Push(source, chunk.tuples[i])
                 : engine_.PushBatch(source, std::span<const rumor::Tuple>(
                                                 chunk.tuples.data() + i, len));
    const int64_t dt = NowNs() - t0;
    total += dt;
    if (latency != nullptr) latency->Record(dt);
    tally->Check(st, "push");
    i += len;
  }
  return total;
}

rumor::OptimizerOptions AllRulesOff() {
  rumor::OptimizerOptions o;
  o.enable_cse = false;
  o.enable_predicate_index = false;
  o.enable_shared_aggregate = false;
  o.enable_shared_join = false;
  o.enable_channels = false;
  return o;
}

uint64_t HashDigests(const std::vector<std::string>& names,
                     const DigestMap& digests) {
  uint64_t h = 0;
  for (const std::string& name : names) {
    const Digest d = DigestOf(digests, name);
    h = rumor::HashCombine(h, rumor::HashBytes(name));
    h = rumor::HashCombine(h, static_cast<uint64_t>(d.count));
    h = rumor::HashCombine(h, d.hash);
  }
  return h;
}

}  // namespace perfbench
