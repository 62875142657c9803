// The labelled-source workload stream_engine_test and shard_test share.
#ifndef RUMOR_TESTS_LABELLED_SOURCES_H_
#define RUMOR_TESTS_LABELLED_SOURCES_H_

#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "api/stream_engine.h"

namespace rumor {

// Sources with a sharable label (two σ sources, two α sources): the channel
// rule moves their consumers onto one producer-less group channel per
// label, which every pushed tuple must enter too. After 20 events per
// source a σ is added live on S1; it reads S1's own channel, so a tuple of
// S1 then enters both of S1's roots. Bare `SELECT *` queries, one before
// Start and two live, output a source stream itself, which must reach them
// once however many roots the tuple enters. Returns the per-query outputs
// and, through `explain`, the plan after Start.
inline std::map<std::string, std::vector<std::string>> RunLabelledSources(
    bool channels, int shards, std::string* explain) {
  OptimizerOptions options;
  options.enable_channels = channels;
  StreamEngine engine(options);
  EXPECT_TRUE(engine.SetShardCount(shards).ok());
  std::map<std::string, std::vector<std::string>> out;
  engine.SetOutputHandler([&](const std::string& q, const Tuple& t) {
    out[q].push_back(t.ToString());
  });
  for (const char* s : {"S1", "S2"}) {
    EXPECT_TRUE(engine.RegisterSource(s, Schema::MakeInts(2), 0).ok());
  }
  for (const char* s : {"T1", "T2"}) {
    EXPECT_TRUE(engine.RegisterSource(s, Schema::MakeInts(2), 1).ok());
  }
  EXPECT_TRUE(engine
                  .AddScript("Q1: SELECT * FROM S1 WHERE a0 > 5;"
                             "Q2: SELECT * FROM S2 WHERE a0 > 5;"
                             "P1: SELECT * FROM S1;"
                             "A1: SELECT a1, SUM(a0) FROM T1 [RANGE 10] "
                             "GROUP BY a1;"
                             "A2: SELECT a1, SUM(a0) FROM T2 [RANGE 10] "
                             "GROUP BY a1;")
                  .ok());
  EXPECT_TRUE(engine.Start().ok());
  *explain = engine.Explain();
  auto push = [&](int from, int to) {
    for (int i = from; i < to; ++i) {
      for (const char* s : {"S1", "S2", "T1", "T2"}) {
        EXPECT_TRUE(engine.Push(s, Tuple::MakeInts({i, i % 3}, i)).ok());
      }
    }
  };
  push(0, 20);
  EXPECT_TRUE(engine.AddQueryText("SELECT * FROM S1 WHERE a1 = 1", "L1").ok());
  EXPECT_TRUE(engine.AddQueryText("SELECT * FROM S2", "P2").ok());
  EXPECT_TRUE(engine.AddQueryText("SELECT * FROM S1", "P3").ok());
  push(20, 40);
  engine.Flush();
  return out;
}

}  // namespace rumor

#endif  // RUMOR_TESTS_LABELLED_SOURCES_H_
