// mqo_bench: one workload of the shared-plan benchmark through the public
// StreamEngine API, on one thread.
//
//   mqo_bench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--fault digest|drop_event] [--trace-out <file>]
//
// Prints the build record, the workload parameters, each metric by name with
// its unit and sample count, the input and digest hashes, and as the last
// line one JSON object: {"correct", "attempted", "failed", "metrics"}. The
// metrics are the end-to-end ones, or with --trace 1 the per-layer ones of a
// second, traced run over the same seed.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "common/failpoint.h"
#include "common/metrics.h"
#include "runs.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#define PERFBENCH_CXX_FLAGS "unknown"
#define PERFBENCH_COMPILER "unknown"
#endif

namespace perfbench {
namespace {

// The end-to-end metrics gated per workload (BENCHMARK.json "end_to_end");
// the rates and setup_s are scaled by the host meter (host_meter.h). The
// untraced run also prints them as measured (raw_*), the meter's median,
// push_p50_us, push_p99_us, add_p50_us, remove_p50_us, checkpoint_ms,
// restore_ms, error_rate and, from >= 1,000 calls, add_p99_us and
// remove_p99_us. Those are not gated: add, remove, checkpoint and restore run
// on only some workloads, the push latencies spread more than the rates from
// run to run, and error_rate is 0 on correct code (perfbench/STEADINESS.md).
const char* const kEndToEnd[] = {"events_per_s", "outputs_per_s", "setup_s",
                                 "peak_rss_mb"};

int Usage() {
  std::fprintf(stderr,
               "usage: mqo_bench --workload <name> --seed <n> --seconds <s> "
               "--trace <0|1> [--fault digest|drop_event] "
               "[--trace-out <file>]\n");
  return 2;
}

double Finite(double v) { return std::isfinite(v) ? v : 0.0; }

void PrintMetrics(const char* tag, const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::printf("%s %-40s %16.6g %-12s n=%lld\n", tag, m.name.c_str(),
                Finite(m.value), m.unit.c_str(),
                static_cast<long long>(m.samples));
  }
}

const Metric* Find(const std::vector<Metric>& metrics, const char* name) {
  for (const Metric& m : metrics) {
    if (m.name == name) return &m;
  }
  return nullptr;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Options o;
  bool have_trace = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      o.workload = value;
    } else if (flag == "--seed") {
      o.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      o.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      o.trace = value == "1";
      have_trace = true;
    } else if (flag == "--fault") {
      o.fault = value;
    } else if (flag == "--trace-out") {
      o.trace_out = value;
    } else {
      return Usage();
    }
  }
  if (argc % 2 != 1 || o.workload.empty() || !have_trace || !(o.seconds > 0) ||
      (!o.fault.empty() && o.fault != "digest" && o.fault != "drop_event")) {
    return Usage();
  }
  std::unique_ptr<Workload> w = MakeWorkload(o.workload, o.seed);
  if (w == nullptr) {
    std::fprintf(stderr, "unknown workload '%s'\n", o.workload.c_str());
    return Usage();
  }

  std::printf(
      "build {\"build_type\": \"%s\", \"cxx_flags\": \"%s\", \"compiler\": "
      "\"%s\", \"rumor_metrics\": %s, \"rumor_failpoints\": %s}\n",
      PERFBENCH_BUILD_TYPE, PERFBENCH_CXX_FLAGS, PERFBENCH_COMPILER,
      RUMOR_METRICS_ENABLED ? "true" : "false",
      RUMOR_FAILPOINTS_ENABLED ? "true" : "false");
  std::printf("workload %s seed=%llu seconds=%g: %s\n", w->name.c_str(),
              static_cast<unsigned long long>(o.seed), o.seconds,
              w->params.c_str());
  std::fflush(stdout);

  PlainResult plain = RunPlain(*w, o);
  PrintMetrics("metric", plain.metrics);
  std::printf("input_hash %016llx\ndigest_hash %016llx\n",
              static_cast<unsigned long long>(plain.input_hash),
              static_cast<unsigned long long>(plain.digest_hash));

  Tally tally = plain.tally;
  std::vector<Metric> reported;
  if (o.trace) {
    TracedResult traced = RunTraced(*w, o, plain);
    PrintMetrics("layer", traced.metrics);
    std::printf("traced_digest_hash %016llx\n",
                static_cast<unsigned long long>(traced.digest_hash));
    tally.Merge(traced.tally);
    reported = traced.metrics;
  } else {
    for (const char* name : kEndToEnd) {
      const Metric* m = Find(plain.metrics, name);
      if (m == nullptr) {
        std::fprintf(stderr, "metric %s was not measured\n", name);
        return 1;
      }
      reported.push_back(*m);
    }
  }

  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
              "\"metrics\": {",
              tally.failed() == 0 ? "true" : "false",
              static_cast<long long>(tally.attempted()),
              static_cast<long long>(tally.failed()));
  for (size_t i = 0; i < reported.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", reported[i].name.c_str(),
                Finite(reported[i].value), reported[i].unit.c_str());
  }
  std::printf("}}\n");
  return 0;
}
