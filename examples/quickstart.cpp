// Quickstart: express a few continuous queries (fluent builder and RQL
// text), compile them into one multi-query plan, let the rule-based
// optimizer share work, and push a stream through.
//
//   $ ./build/examples/quickstart
#include <cstdio>

#include "plan/compile.h"
#include "plan/executor.h"
#include "common/rng.h"
#include "query/builder.h"
#include "query/parser.h"
#include "rules/rule_engine.h"

using namespace rumor;

int main() {
  Schema sensor({{"device", ValueType::kInt},
                 {"temperature", ValueType::kInt},
                 {"humidity", ValueType::kInt}});

  // --- express queries -------------------------------------------------------
  // 1) via the fluent builder:
  Query q1 = QueryBuilder::FromSource("SENSORS", sensor)
                 .Select("device = 7")
                 .Build("device7");
  Query q2 = QueryBuilder::FromSource("SENSORS", sensor)
                 .Select("device = 42")
                 .Build("device42");
  // 2) via RQL text:
  Catalog catalog;
  catalog.AddSource("SENSORS", sensor);
  auto q3 = ParseQuery(
      "SELECT device, AVG(temperature) FROM SENSORS [RANGE 10] "
      "GROUP BY device",
      catalog);
  RUMOR_CHECK(q3.ok()) << q3.status().ToString();
  Query avg_query = q3.value();
  avg_query.name = "avg_temp";

  // --- compile + optimize ----------------------------------------------------
  Plan plan;
  auto compiled = CompileQueries({q1, q2, avg_query}, &plan);
  RUMOR_CHECK(compiled.ok()) << compiled.status().ToString();
  std::printf("compiled plan: %d m-ops\n",
              static_cast<int>(plan.LiveMops().size()));

  OptimizeStats stats = Optimize(&plan);
  std::printf("after optimization: %d m-ops  (%s)\n",
              static_cast<int>(plan.LiveMops().size()),
              stats.ToString().c_str());
  std::printf("%s\n", plan.ToString().c_str());

  // --- execute ---------------------------------------------------------------
  CollectingSink sink;
  Executor exec(&plan, &sink);
  exec.Prepare();
  StreamId sensors = *plan.streams().FindSource("SENSORS");
  Rng rng(1);
  for (int ts = 0; ts < 50; ++ts) {
    exec.PushSource(sensors,
                    Tuple::MakeInts({rng.UniformInt(0, 49),
                                     rng.UniformInt(15, 35),
                                     rng.UniformInt(20, 90)},
                                    ts));
  }

  // Batched execution: a run of consecutive tuples of one source can be
  // pushed in a single call. Results are identical to per-tuple pushes, but
  // the batch traverses each m-op of the shared plan once, which pays off
  // under heavy traffic (perfbench's window_agg pushes batches of 64).
  std::vector<Tuple> batch;
  for (int ts = 50; ts < 100; ++ts) {
    batch.push_back(Tuple::MakeInts({rng.UniformInt(0, 49),
                                     rng.UniformInt(15, 35),
                                     rng.UniformInt(20, 90)},
                                    ts));
  }
  exec.PushSourceBatch(sensors, batch);

  for (const char* name : {"device7", "device42", "avg_temp"}) {
    StreamId out = *plan.OutputStreamOf(name);
    std::printf("\n%s: %d results\n", name,
                static_cast<int>(sink.ForStream(out).size()));
    int shown = 0;
    for (const Tuple& t : sink.ForStream(out)) {
      if (++shown > 3) break;
      std::printf("  %s\n", t.ToString().c_str());
    }
  }
  return 0;
}
