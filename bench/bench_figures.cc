// The paper reproduction: Table 3 and Figures 9-11 of §5, plus the rule
// and Cayuga-index ablations, one id each:
//
//   ./bench_figures fig9a          one figure
//   ./bench_figures fig9a fig10c   several, in the order given
//   ./bench_figures                every figure, in paper order
//
// An unknown id exits nonzero and lists the valid ones. RUMOR_BENCH_SCALE
// and RUMOR_BENCH_BATCH set the scale and the batched column's batch size
// (figure_common.h). Every Workload 1/2 point checks that RUMOR (per tuple
// and batched) and Cayuga deliver the same number of results.
#include <cstdio>
#include <cstring>
#include <vector>

#include "bench/hybrid_common.h"
#include "bench/w3_common.h"

using namespace rumor;
using namespace rumor::bench;

namespace {

// Table 3: the synthetic-benchmark parameter defaults, plus the harness
// scale in effect.
void Table3(const Scale& scale) {
  SyntheticParams p;
  std::printf("# Table 3 — synthetic benchmark parameters (defaults)\n");
  std::printf("%-44s %12d\n", "Number of queries", p.num_queries);
  std::printf("%-44s %12d\n", "Number of attributes in stream schemas",
              p.num_attributes);
  std::printf("%-44s %12lld\n", "Constant domain size",
              static_cast<long long>(p.constant_domain));
  std::printf("%-44s %12lld\n", "Window length domain size",
              static_cast<long long>(p.window_domain));
  std::printf("%-44s %12.2f\n", "Zipfian parameter", p.zipf_parameter);
  std::printf("\n# harness scale (RUMOR_BENCH_SCALE=%s)\n",
              scale.full ? "full" : "quick");
  std::printf("%-44s %12lld\n", "Events per measurement",
              static_cast<long long>(scale.tuples));
  std::printf("%-44s %12lld\n", "Warm-up events",
              static_cast<long long>(scale.warmup));
  std::printf("%-44s %12d\n", "Query-sweep cap", scale.max_queries);
}

// One Fig. 9 or Fig. 10(a)/(b) curve: a row per x, on Workload 1 or 2.
// `apply` sets x on the default parameters and returns false to end the
// sweep (query counts stop at the scale's cap).
template <typename Apply>
void Sweep(const Scale& scale, const char* figure, const char* x_name,
           const char* description, std::initializer_list<int64_t> xs,
           int workload, bool iterate, Apply apply) {
  PrintHeader(figure, x_name, description);
  std::vector<Row> rows;
  for (int64_t x : xs) {
    SyntheticParams params;
    // Workload 2 is much heavier (every S tuple becomes an instance); keep
    // its runs bounded at quick scale.
    const bool heavy = workload == 2 && !scale.full;
    params.num_tuples = heavy ? scale.tuples / 3 : scale.tuples;
    if (!apply(params, x)) break;
    Row row = MeasureSynthetic(params, workload, iterate,
                               workload == 2 ? scale.warmup / 3
                                             : scale.warmup);
    row.x = x;
    rows.push_back(row);
  }
  PrintRows(rows);
}

// Sets the query count, up to the scale's cap.
auto QueryCount(const Scale& scale) {
  return [&scale](SyntheticParams& p, int64_t n) {
    p.num_queries = static_cast<int>(n);
    return n <= scale.max_queries;
  };
}

// Figure 9: Workload 1 (σθ1(S) ; σθ3(T), FR + AN indexes).
void Fig9a(const Scale& scale) {
  Sweep(scale, "Figure 9(a)", "num_queries",
        "Workload 1, throughput vs number of queries",
        {1, 10, 100, 1000, 10000, 100000}, 1, false, QueryCount(scale));
}

// Larger domain => more selective predicates => lighter load.
void Fig9b(const Scale& scale) {
  Sweep(scale, "Figure 9(b)", "const_domain",
        "Workload 1, throughput vs constant domain size",
        {10, 100, 1000, 10000, 100000}, 1, false,
        [](SyntheticParams& p, int64_t d) {
          p.constant_domain = d;
          return true;
        });
}

// The Cayuga ; consumes matched instances, so larger windows barely
// increase load: both systems stay nearly flat.
void Fig9c(const Scale& scale) {
  Sweep(scale, "Figure 9(c)", "window_domain",
        "Workload 1, throughput vs window length domain size",
        {10, 100, 1000, 10000, 100000}, 1, false,
        [](SyntheticParams& p, int64_t d) {
          p.window_domain = d;
          return true;
        });
}

// Higher skew => more identical queries => more CSE / state-merging wins
// (a factor of ~2 from 1.2 to 2.0 in the paper: modest, because the FR/AN
// indexes already absorb most of the sharing).
void Fig9d(const Scale& scale) {
  Sweep(scale, "Figure 9(d)", "zipf_x10",
        "Workload 1, throughput vs Zipf parameter (x-axis x10)",
        {12, 14, 16, 18, 20}, 1, false, [](SyntheticParams& p, int64_t z) {
          p.zipf_parameter = static_cast<double>(z) / 10;
          return true;
        });
}

// Figure 10(a): Workload 2 (S ;[S.a0=T.a0] T, the AI-index workload).
void Fig10a(const Scale& scale) {
  Sweep(scale, "Figure 10(a)", "num_queries",
        "Workload 2 (;), throughput vs number of queries",
        {1, 10, 100, 1000, 10000}, 2, false, QueryCount(scale));
}

// Figure 10(b): the µ variant (S µ[S.a0=T.a0, T.a1>last.a1] T). Same trends
// as 10(a) with lower absolute values (µ is the more expensive operator).
void Fig10b(const Scale& scale) {
  Sweep(scale, "Figure 10(b)", "num_queries",
        "Workload 2 (µ), throughput vs number of queries",
        {1, 10, 100, 1000, 10000}, 2, true, QueryCount(scale));
}

void PrintRatioHeader(const char* x_name, const char* unit) {
  const std::string with = std::string("with_channel_") + unit;
  const std::string without = std::string("without_channel_") + unit;
  std::printf("%-12s %20s %20s %10s\n", x_name, with.c_str(),
              without.c_str(), "ratio");
}

void PrintRatioRow(int64_t x, double with_ch, double without_ch) {
  std::printf("%-12lld %20.0f %20.0f %10.2f\n", static_cast<long long>(x),
              with_ch, without_ch,
              without_ch > 0 ? with_ch / without_ch : 0.0);
}

// Workload 3 with x queries over x sharable sources, each C tuple belonging
// to all of them (the paper's optimistic setting), in logical tuples/s.
void W3Sweep(const Scale& scale, const char* x_name,
             std::initializer_list<int> xs, bool capped) {
  PrintRatioHeader(x_name, "t/s");
  for (int x : xs) {
    if (capped && x > scale.max_queries) break;
    int64_t rounds = std::max<int64_t>(20, scale.tuples / (x + 1));
    int64_t warmup = rounds / 10;
    W3Result with_ch = RunW3(x, x, /*with_channel=*/true, rounds, warmup, 42);
    W3Result without_ch =
        RunW3(x, x, /*with_channel=*/false, rounds, warmup, 42);
    PrintRatioRow(x, with_ch.logical_tuples_per_second,
                  without_ch.logical_tuples_per_second);
  }
}

// Figure 10(c): channel vs no-channel plan as the number of queries grows
// (channel capacity = number of queries).
void Fig10c(const Scale& scale) {
  std::printf("# Figure 10(c) — Workload 3: Seq with vs without channel, "
              "absolute throughput vs number of queries\n");
  W3Sweep(scale, "num_queries", {1, 10, 100, 1000, 10000}, true);
}

// Figure 10(d): more encoded streams => more logical tuples carried per
// channel tuple => larger savings over the no-channel plan.
void Fig10d(const Scale& scale) {
  std::printf("# Figure 10(d) — Workload 3: throughput vs channel "
              "capacity\n");
  W3Sweep(scale, "capacity", {5, 10, 15, 20, 25}, false);
}

// Figure 11: hybrid queries over the D1-like trace (104 processes), with
// and without channels; `point(x)` gives a row's query count and
// selectivity.
template <typename Point>
void HybridSweep(const Scale& scale, const char* x_name,
                 std::initializer_list<int64_t> xs, Point point) {
  PerfmonParams params;
  params.duration_seconds = scale.full ? 1000 : 250;
  std::vector<Tuple> trace = GeneratePerfmonTrace(params);
  const int64_t warmup = static_cast<int64_t>(trace.size()) / 10;
  PrintRatioHeader(x_name, "ev/s");
  for (int64_t x : xs) {
    const auto [n, sel] = point(x);
    HybridResult with_ch = RunHybrid(n, sel, true, trace, warmup);
    HybridResult without_ch = RunHybrid(n, sel, false, trace, warmup);
    PrintRatioRow(x, with_ch.events_per_second,
                  without_ch.events_per_second);
  }
}

// Figure 11(a): throughput vs the number of hybrid queries, sel = 0.5.
void Fig11a(const Scale& scale) {
  std::printf("# Figure 11(a) — hybrid queries on D1-like trace "
              "(%d processes), sel=0.5\n",
              PerfmonParams{}.num_processes);
  HybridSweep(scale, "num_queries", {5, 10, 15, 20, 25}, [](int64_t n) {
    return std::pair<int, double>(static_cast<int>(n), 0.5);
  });
}

// Figure 11(b): 10 queries, throughput vs the selectivity of the starting
// conditions. The channel plan drops once (sel 0 -> 0.2) then stays flat,
// because the work per channel tuple in µ{1..n} does not depend on how many
// starting conditions it satisfies; the no-channel plan keeps degrading.
void Fig11b(const Scale& scale) {
  std::printf("# Figure 11(b) — hybrid queries (n=10) vs starting-condition "
              "selectivity\n");
  HybridSweep(scale, "sel_x100", {0, 20, 40, 60, 80, 100}, [](int64_t s) {
    return std::pair<int, double>(10, static_cast<double>(s) / 100);
  });
}

// Ablation: each row disables one m-rule family on Workload 1; "no rules"
// disables all (the naive one-m-op-per-operator plan).
void AblationRules(const Scale& scale) {
  SyntheticParams params;
  params.num_queries = scale.full ? 10000 : 1000;
  params.num_tuples = scale.tuples;
  std::printf("# Ablation — rule families on Workload 1 (%d queries)\n",
              params.num_queries);
  std::printf("%-24s %16s\n", "configuration", "events/s");

  OptimizerOptions all;
  OptimizerOptions none;
  none.enable_cse = none.enable_predicate_index = none.enable_shared_aggregate =
      none.enable_shared_join = none.enable_channels = false;
  OptimizerOptions no_cse = all;
  no_cse.enable_cse = false;
  OptimizerOptions no_index = all;
  no_index.enable_predicate_index = false;
  OptimizerOptions cse_only = none;
  cse_only.enable_cse = true;

  Matched w1 = BuildMatched(params, 1);
  const std::pair<const char*, OptimizerOptions> configs[] = {
      {"all rules", all},
      {"no CSE (s;/sµ)", no_cse},
      {"no predicate index", no_index},
      {"CSE only", cse_only},
      {"no rules (naive)", none}};
  for (const auto& [name, opts] : configs) {
    std::printf("%-24s %16.0f\n", name,
                RunRumor(w1.queries, opts, w1.events, scale.warmup)
                    .result.EventsPerSecond());
  }
}

// Ablation: what each Cayuga index (FR / AN on Workload 1, AI on Workload 2)
// contributes to the baseline the paper compares against (§4.3, §5.2).
void AblationCayugaIndexes(const Scale& scale) {
  SyntheticParams w1;
  w1.num_queries = scale.full ? 10000 : 1000;
  w1.num_tuples = scale.tuples;
  SyntheticParams w2;
  w2.num_queries = scale.full ? 1000 : 100;
  w2.num_tuples = scale.full ? scale.tuples : scale.tuples / 3;

  CayugaEngine::Options all;
  CayugaEngine::Options no_fr = all;
  no_fr.fr_index = false;
  CayugaEngine::Options no_an = all;
  no_an.an_index = false;
  CayugaEngine::Options no_ai = all;
  no_ai.ai_index = false;
  CayugaEngine::Options no_merge = all;
  no_merge.merge_prefixes = false;

  auto print = [](const char* name, const Matched& m,
                  const CayugaEngine::Options& opts, int64_t warmup) {
    std::printf("%-24s %16.0f\n", name,
                RunCayuga(m.automata, opts, m.events, warmup)
                    .result.EventsPerSecond());
  };
  Matched m1 = BuildMatched(w1, 1);
  std::printf("# Ablation — Cayuga indexes, Workload 1 (%d queries)\n",
              w1.num_queries);
  std::printf("%-24s %16s\n", "configuration", "events/s");
  print("all indexes", m1, all, scale.warmup);
  print("no FR index", m1, no_fr, scale.warmup);
  print("no AN index", m1, no_an, scale.warmup);
  print("no state merging", m1, no_merge, scale.warmup);

  Matched m2 = BuildMatched(w2, 2);
  std::printf("\n# Ablation — Cayuga AI index, Workload 2 (%d queries)\n",
              w2.num_queries);
  std::printf("%-24s %16s\n", "configuration", "events/s");
  print("all indexes", m2, all, scale.warmup / 3);
  print("no AI index", m2, no_ai, scale.warmup / 3);
}

struct Figure {
  const char* id;
  void (*run)(const Scale&);
};

// Paper order.
constexpr Figure kFigures[] = {
    {"table3_params", Table3},
    {"fig9a", Fig9a},
    {"fig9b", Fig9b},
    {"fig9c", Fig9c},
    {"fig9d", Fig9d},
    {"fig10a", Fig10a},
    {"fig10b", Fig10b},
    {"fig10c", Fig10c},
    {"fig10d", Fig10d},
    {"fig11a", Fig11a},
    {"fig11b", Fig11b},
    {"ablation_rules", AblationRules},
    {"ablation_cayuga_indexes", AblationCayugaIndexes},
};

}  // namespace

int main(int argc, char** argv) {
  std::vector<const Figure*> chosen;
  for (int i = 1; i < argc; ++i) {
    const Figure* found = nullptr;
    for (const Figure& f : kFigures) {
      if (std::strcmp(argv[i], f.id) == 0) found = &f;
    }
    if (found == nullptr) {
      std::fprintf(stderr, "unknown figure id '%s'; valid ids:", argv[i]);
      for (const Figure& f : kFigures) std::fprintf(stderr, " %s", f.id);
      std::fprintf(stderr, "\n");
      return 2;
    }
    chosen.push_back(found);
  }
  if (chosen.empty()) {
    for (const Figure& f : kFigures) chosen.push_back(&f);
  }
  const Scale scale = GetScale();
  for (size_t i = 0; i < chosen.size(); ++i) {
    if (i > 0) std::printf("\n");
    chosen[i]->run(scale);
  }
  return 0;
}
