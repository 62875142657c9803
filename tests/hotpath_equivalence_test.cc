// Hot-path equivalence fuzz: the batch data plane (ProcessBatch, with
// typed/fused predicate evaluation and fused residuals inlined in the
// predicate index's buckets) must produce the same per-query output
// sequences and delivery counts as one-tuple-at-a-time Process on
// randomized σ / predicate-index / join / aggregate plans, including
// string-attribute schemas (exercising the interned string handle and the
// non-int probe fallback). The typed and fused evaluators themselves are
// checked against the expression tree in program_test.
//
// Also covers the supporting structures: TupleArena block recycling and the
// FlatInt64Map used by the predicate index.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <vector>

#include "common/flat_map.h"
#include "common/rng.h"
#include "plan/compile.h"
#include "plan/executor.h"
#include "plan/sharded_executor.h"
#include "query/builder.h"
#include "rules/rule_engine.h"

namespace rumor {
namespace {

struct Feed {
  std::vector<int> stream;  // index into stream names
  std::vector<Tuple> tuple;
};

struct RunResult {
  std::map<std::string, std::vector<std::string>> outputs;
  int64_t deliveries = 0;

  bool operator==(const RunResult& other) const {
    return outputs == other.outputs && deliveries == other.deliveries;
  }
};

// Compiles + optimizes fresh and runs the feed; batch_size 0 =
// event-at-a-time.
RunResult RunOnce(const std::vector<Query>& queries, const Feed& feed,
                  const std::vector<std::string>& stream_names,
                  int64_t batch_size) {
  Plan plan;
  auto compiled = CompileQueries(queries, &plan);
  RUMOR_CHECK(compiled.ok()) << compiled.status().ToString();
  Optimize(&plan);
  CollectingSink sink;
  Executor exec(&plan, &sink);
  exec.Prepare();
  std::vector<StreamId> streams;
  for (const std::string& name : stream_names) {
    streams.push_back(*plan.streams().FindSource(name));
  }

  const size_t n = feed.tuple.size();
  if (batch_size == 0) {
    for (size_t i = 0; i < n; ++i) {
      exec.PushSource(streams[feed.stream[i]], feed.tuple[i]);
    }
  } else {
    std::vector<Tuple> batch;
    size_t i = 0;
    while (i < n) {
      const int stream = feed.stream[i];
      batch.clear();
      while (i < n && feed.stream[i] == stream &&
             static_cast<int64_t>(batch.size()) < batch_size) {
        batch.push_back(feed.tuple[i]);
        ++i;
      }
      exec.PushSourceBatch(streams[stream], batch);
    }
  }

  RunResult result;
  result.deliveries = exec.deliveries();
  for (const Query& q : queries) {
    auto stream = plan.OutputStreamOf(q.name);
    RUMOR_CHECK(stream.has_value());
    std::vector<std::string>& rendered = result.outputs[q.name];
    for (const Tuple& t : sink.ForStream(*stream)) {
      rendered.push_back(t.ToString());
    }
  }
  return result;
}

// Runs the feed one tuple at a time as the reference, then batched at
// several batch sizes, and asserts byte-identical results.
void ExpectHotpathEquivalence(const std::vector<Query>& queries,
                              const Feed& feed,
                              const std::vector<std::string>& stream_names) {
  RunResult reference = RunOnce(queries, feed, stream_names, 0);
  int64_t total = 0;
  for (const auto& [name, tuples] : reference.outputs) total += tuples.size();
  EXPECT_GT(total, 0) << "workload produced no output; vacuous comparison";

  for (int64_t batch_size : {1, 7, 64, 100000}) {
    RunResult batched = RunOnce(queries, feed, stream_names, batch_size);
    EXPECT_TRUE(batched == reference) << "batch=" << batch_size;
  }
}

// --- random predicate generation ---------------------------------------------

constexpr int kNumInts = 4;        // int attributes a0..a3
constexpr int64_t kDomain = 6;     // attribute/constant domain
const char* kStrings[] = {"red", "green", "blue", "cyan"};

// Random predicate over the given schema shape; `depth` bounds recursion.
// With `with_strings`, attribute kNumInts is a string drawn from kStrings.
ExprPtr RandomPredicate(Rng& rng, bool with_strings, int depth) {
  const int choice = static_cast<int>(rng.UniformInt(0, depth > 0 ? 8 : 5));
  auto int_attr = [&] {
    return Expr::Attr(Side::kLeft,
                      static_cast<int>(rng.UniformInt(0, kNumInts - 1)));
  };
  auto int_const = [&] {
    return Expr::ConstInt(rng.UniformInt(0, kDomain - 1));
  };
  switch (choice) {
    case 0:  // indexable equality (predicate-index fodder)
      return Expr::Cmp(CmpOp::kEq, int_attr(), int_const());
    case 1:
      return Expr::Cmp(static_cast<CmpOp>(rng.UniformInt(0, 5)), int_attr(),
                       int_const());
    case 2:  // arithmetic comparison
      return Expr::Cmp(CmpOp::kLe,
                       Expr::Arith(ArithOp::kAdd, int_attr(), int_attr()),
                       int_const());
    case 3:  // attr-to-attr
      return Expr::Cmp(CmpOp::kLt, int_attr(), int_attr());
    case 4: {
      if (with_strings) {
        // String equality: non-int constants (flat-probe fallback).
        return Expr::Cmp(
            CmpOp::kEq, Expr::Attr(Side::kLeft, kNumInts),
            Expr::Const(Value(kStrings[rng.UniformInt(0, 3)])));
      }
      return Expr::Cmp(CmpOp::kGe, int_attr(), int_const());
    }
    case 5:  // mixed-type numeric constant (double vs int attr)
      return Expr::Cmp(CmpOp::kLt, int_attr(),
                       Expr::Const(Value(0.5 + static_cast<double>(
                                             rng.UniformInt(0, kDomain)))));
    case 6:
      return Expr::And(RandomPredicate(rng, with_strings, depth - 1),
                       RandomPredicate(rng, with_strings, depth - 1));
    case 7:
      return Expr::Or(RandomPredicate(rng, with_strings, depth - 1),
                      RandomPredicate(rng, with_strings, depth - 1));
    default:
      return Expr::Not(RandomPredicate(rng, with_strings, depth - 1));
  }
}

Schema FuzzSchema(bool with_strings) {
  std::vector<Attribute> attrs;
  for (int i = 0; i < kNumInts; ++i) {
    attrs.push_back({"a" + std::to_string(i), ValueType::kInt});
  }
  if (with_strings) attrs.push_back({"tag", ValueType::kString});
  return Schema(attrs);
}

Feed FuzzFeed(Rng& rng, bool with_strings, int num_streams, int count,
              int burst) {
  Feed feed;
  std::vector<Value> values;
  for (int i = 0; i < count; ++i) {
    values.clear();
    for (int a = 0; a < kNumInts; ++a) {
      values.push_back(Value(rng.UniformInt(0, kDomain - 1)));
    }
    if (with_strings) {
      values.push_back(Value(kStrings[rng.UniformInt(0, 3)]));
    }
    feed.stream.push_back(static_cast<int>((i / burst) % num_streams));
    feed.tuple.push_back(Tuple::Make(values, i));
  }
  return feed;
}

TEST(HotpathEquivalenceTest, SelectionAndPredicateIndexFuzz) {
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    for (bool with_strings : {false, true}) {
      Rng rng(seed * 977 + (with_strings ? 1 : 0));
      Schema schema = FuzzSchema(with_strings);
      std::vector<Query> queries;
      const int nq = 8 + static_cast<int>(rng.UniformInt(0, 8));
      for (int i = 0; i < nq; ++i) {
        queries.push_back(
            QueryBuilder::FromSource("S", schema)
                .Select(RandomPredicate(rng, with_strings, 2))
                .Build("Q" + std::to_string(i)));
      }
      Feed feed = FuzzFeed(rng, with_strings, 1, 400, 400);
      ExpectHotpathEquivalence(queries, feed, {"S"});
    }
  }
}

TEST(HotpathEquivalenceTest, JoinFuzz) {
  for (uint64_t seed = 1; seed <= 4; ++seed) {
    Rng rng(seed * 31);
    Schema schema = FuzzSchema(false);
    std::vector<Query> queries;
    const int nq = 3 + static_cast<int>(rng.UniformInt(0, 3));
    for (int i = 0; i < nq; ++i) {
      // Equi-join on a0 with a random residual over the left side; random
      // windows so rule s⋈ merges members with distinct windows.
      ExprPtr equi = Expr::Cmp(CmpOp::kEq, Expr::Attr(Side::kLeft, 0),
                               Expr::Attr(Side::kRight, 0));
      ExprPtr residual =
          Expr::Cmp(CmpOp::kLe, Expr::Attr(Side::kRight, 1),
                    Expr::ConstInt(rng.UniformInt(0, kDomain - 1)));
      queries.push_back(
          QueryBuilder::FromSource("S", schema)
              .Join(QueryBuilder::FromSource("T", schema),
                    Expr::And(equi, residual), 5 + 3 * i, 4 + 2 * i)
              .Build("J" + std::to_string(i)));
    }
    Feed feed = FuzzFeed(rng, false, 2, 300, 5);
    ExpectHotpathEquivalence(queries, feed, {"S", "T"});
  }
}

TEST(HotpathEquivalenceTest, AggregateFuzz) {
  for (uint64_t seed = 1; seed <= 4; ++seed) {
    Rng rng(seed * 101);
    Schema schema = FuzzSchema(false);
    std::vector<Query> queries;
    const AggFn fns[] = {AggFn::kMin, AggFn::kMax, AggFn::kSum, AggFn::kCount,
                         AggFn::kAvg};
    for (int i = 0; i < 6; ++i) {
      AggFn fn = fns[rng.UniformInt(0, 4)];
      if (fn == AggFn::kCount) {
        queries.push_back(QueryBuilder::FromSource("S", schema)
                              .Count({"a0"}, 4 + 3 * i)
                              .Build("A" + std::to_string(i)));
      } else {
        queries.push_back(QueryBuilder::FromSource("S", schema)
                              .Aggregate(fn, "a1", {"a0"}, 4 + 3 * i)
                              .Build("A" + std::to_string(i)));
      }
    }
    Feed feed = FuzzFeed(rng, false, 1, 300, 300);
    ExpectHotpathEquivalence(queries, feed, {"S"});
  }
}

TEST(HotpathEquivalenceTest, MixedPlanWithSequencesFuzz) {
  // Selections feeding sequences over two streams — the fig9 W1 shape —
  // with bursty feeds so batch runs exceed length 1.
  for (uint64_t seed = 1; seed <= 3; ++seed) {
    Rng rng(seed * 53);
    Schema schema = FuzzSchema(false);
    std::vector<Query> queries;
    for (int i = 0; i < 5; ++i) {
      QueryBuilder left =
          QueryBuilder::FromSource("S", schema)
              .Select(Expr::Cmp(CmpOp::kEq, Expr::Attr(Side::kLeft, 0),
                                Expr::ConstInt(rng.UniformInt(0, 2))));
      QueryBuilder right =
          QueryBuilder::FromSource("T", schema)
              .Select(Expr::Cmp(CmpOp::kEq, Expr::Attr(Side::kLeft, 1),
                                Expr::ConstInt(rng.UniformInt(0, 2))));
      queries.push_back(
          left.Sequence(right, ExprPtr(), 6 + 2 * i)
              .Build("W" + std::to_string(i)));
    }
    Feed feed = FuzzFeed(rng, false, 2, 300, 4);
    ExpectHotpathEquivalence(queries, feed, {"S", "T"});
  }
}

// --- sharded vs single-threaded equivalence ----------------------------------

// Runs the feed through a ShardedExecutor (ordered merge mode) and renders
// per-query outputs like RunOnce. Batch pushes relax the cross-shard
// interleaving *within one epoch*, so callers compare sorted multisets.
RunResult RunSharded(const std::vector<Query>& queries, const Feed& feed,
                     const std::vector<std::string>& stream_names,
                     int num_shards, int64_t batch_size) {
  CollectingSink sink;
  ShardedExecutor::Options options;
  options.num_shards = num_shards;
  ShardedExecutor exec(
      options,
      [&queries](Plan* plan, OptimizeStats* stats) {
        auto compiled = CompileQueries(queries, plan);
        if (!compiled.ok()) return compiled.status();
        *stats = Optimize(plan);
        return Status::OK();
      },
      static_cast<OutputSink*>(&sink));
  RUMOR_CHECK(exec.Prepare().ok());
  std::vector<StreamId> streams;
  for (const std::string& name : stream_names) {
    streams.push_back(*exec.plan(0).streams().FindSource(name));
  }

  const size_t n = feed.tuple.size();
  std::vector<Tuple> batch;
  size_t i = 0;
  while (i < n) {
    const int stream = feed.stream[i];
    batch.clear();
    while (i < n && feed.stream[i] == stream &&
           static_cast<int64_t>(batch.size()) < batch_size) {
      batch.push_back(feed.tuple[i]);
      ++i;
    }
    exec.PushSourceBatch(streams[stream], batch);
  }
  exec.Flush();

  RunResult result;
  for (int s = 0; s < num_shards; ++s) result.deliveries += exec.deliveries(s);
  for (const Query& q : queries) {
    auto stream = exec.plan(0).OutputStreamOf(q.name);
    RUMOR_CHECK(stream.has_value());
    std::vector<std::string>& rendered = result.outputs[q.name];
    for (const Tuple& t : sink.ForStream(*stream)) {
      rendered.push_back(t.ToString());
    }
  }
  return result;
}

// Compares a sharded run against the single-threaded executor at shard
// counts 1/2/4/7. Shard count 1 must match byte-for-byte (single worker =
// single emission order); higher counts are compared as sorted multisets.
// Total deliveries must match exactly at every count: each tuple is routed
// to exactly one replica, so the summed scheduling work is invariant.
void ExpectShardedEquivalence(const std::vector<Query>& queries,
                              const Feed& feed,
                              const std::vector<std::string>& stream_names) {
  RunResult reference = RunOnce(queries, feed, stream_names, 64);
  int64_t total = 0;
  for (const auto& [name, tuples] : reference.outputs) total += tuples.size();
  EXPECT_GT(total, 0) << "workload produced no output; vacuous comparison";

  RunResult sorted_reference = reference;
  for (auto& [name, tuples] : sorted_reference.outputs) {
    std::sort(tuples.begin(), tuples.end());
  }
  for (int num_shards : {1, 2, 4, 7}) {
    RunResult sharded = RunSharded(queries, feed, stream_names, num_shards, 64);
    if (num_shards == 1) {
      EXPECT_TRUE(sharded == reference) << "1 shard must be byte-identical";
      continue;
    }
    EXPECT_EQ(sharded.deliveries, reference.deliveries)
        << "shards=" << num_shards;
    for (auto& [name, tuples] : sharded.outputs) {
      std::sort(tuples.begin(), tuples.end());
    }
    EXPECT_TRUE(sharded.outputs == sorted_reference.outputs)
        << "shards=" << num_shards;
  }
}

TEST(ShardedEquivalenceTest, SelectionAndPredicateIndexFuzz) {
  for (uint64_t seed = 1; seed <= 3; ++seed) {
    for (bool with_strings : {false, true}) {
      Rng rng(seed * 601 + (with_strings ? 1 : 0));
      Schema schema = FuzzSchema(with_strings);
      std::vector<Query> queries;
      const int nq = 6 + static_cast<int>(rng.UniformInt(0, 6));
      for (int i = 0; i < nq; ++i) {
        queries.push_back(
            QueryBuilder::FromSource("S", schema)
                .Select(RandomPredicate(rng, with_strings, 2))
                .Build("Q" + std::to_string(i)));
      }
      Feed feed = FuzzFeed(rng, with_strings, 1, 300, 300);
      ExpectShardedEquivalence(queries, feed, {"S"});
    }
  }
}

TEST(ShardedEquivalenceTest, JoinFuzz) {
  // Equi-joins on a0: AnalyzeSharding keys both sources on the join
  // attribute, so matching pairs always meet on one shard.
  for (uint64_t seed = 1; seed <= 3; ++seed) {
    Rng rng(seed * 47);
    Schema schema = FuzzSchema(false);
    std::vector<Query> queries;
    const int nq = 3 + static_cast<int>(rng.UniformInt(0, 2));
    for (int i = 0; i < nq; ++i) {
      ExprPtr equi = Expr::Cmp(CmpOp::kEq, Expr::Attr(Side::kLeft, 0),
                               Expr::Attr(Side::kRight, 0));
      ExprPtr residual =
          Expr::Cmp(CmpOp::kLe, Expr::Attr(Side::kRight, 1),
                    Expr::ConstInt(rng.UniformInt(0, kDomain - 1)));
      queries.push_back(
          QueryBuilder::FromSource("S", schema)
              .Join(QueryBuilder::FromSource("T", schema),
                    Expr::And(equi, residual), 5 + 3 * i, 4 + 2 * i)
              .Build("J" + std::to_string(i)));
    }
    Feed feed = FuzzFeed(rng, false, 2, 300, 5);
    ExpectShardedEquivalence(queries, feed, {"S", "T"});
  }
}

TEST(ShardedEquivalenceTest, AggregateFuzz) {
  // GROUP BY a0 partitions aggregation state by key hash; per-key output
  // order is exactly the single-threaded order.
  for (uint64_t seed = 1; seed <= 3; ++seed) {
    Rng rng(seed * 211);
    Schema schema = FuzzSchema(false);
    std::vector<Query> queries;
    const AggFn fns[] = {AggFn::kMin, AggFn::kMax, AggFn::kSum, AggFn::kCount,
                         AggFn::kAvg};
    for (int i = 0; i < 6; ++i) {
      AggFn fn = fns[rng.UniformInt(0, 4)];
      if (fn == AggFn::kCount) {
        queries.push_back(QueryBuilder::FromSource("S", schema)
                              .Count({"a0"}, 4 + 3 * i)
                              .Build("A" + std::to_string(i)));
      } else {
        queries.push_back(QueryBuilder::FromSource("S", schema)
                              .Aggregate(fn, "a1", {"a0"}, 4 + 3 * i)
                              .Build("A" + std::to_string(i)));
      }
    }
    Feed feed = FuzzFeed(rng, false, 1, 300, 300);
    ExpectShardedEquivalence(queries, feed, {"S"});
  }
}

TEST(ShardedEquivalenceTest, MixedPlanWithSequencesFuzz) {
  // Null-predicate sequences have no equi-pair -> the whole S/T component
  // pins to one shard; a keyed variant (equi on attr 0) partitions it.
  for (uint64_t seed = 1; seed <= 2; ++seed) {
    for (bool keyed : {false, true}) {
      Rng rng(seed * 89 + (keyed ? 7 : 0));
      Schema schema = FuzzSchema(false);
      std::vector<Query> queries;
      for (int i = 0; i < 4; ++i) {
        QueryBuilder left =
            QueryBuilder::FromSource("S", schema)
                .Select(Expr::Cmp(CmpOp::kEq, Expr::Attr(Side::kLeft, 0),
                                  Expr::ConstInt(rng.UniformInt(0, 2))));
        QueryBuilder right =
            QueryBuilder::FromSource("T", schema)
                .Select(Expr::Cmp(CmpOp::kEq, Expr::Attr(Side::kLeft, 1),
                                  Expr::ConstInt(rng.UniformInt(0, 2))));
        ExprPtr pred =
            keyed ? Expr::Cmp(CmpOp::kEq, Expr::Attr(Side::kLeft, 2),
                              Expr::Attr(Side::kRight, 2))
                  : ExprPtr();
        queries.push_back(left.Sequence(right, pred, 6 + 2 * i)
                              .Build("W" + std::to_string(i)));
      }
      Feed feed = FuzzFeed(rng, false, 2, 300, 4);
      ExpectShardedEquivalence(queries, feed, {"S", "T"});
    }
  }
}

// --- supporting structures ---------------------------------------------------

TEST(HotpathStructuresTest, TupleArenaRecyclesBlocks) {
  TupleArena* arena = TupleArena::Default();
  // Warm one block of width 3, note the allocation count, then churn: the
  // freelist must serve every subsequent same-width payload.
  { Tuple warm = Tuple::MakeInts({1, 2, 3}, 0); }
  const int64_t allocs = arena->allocations();
  for (int i = 0; i < 1000; ++i) {
    Tuple t = Tuple::MakeInts({i, i + 1, i + 2}, i);
    EXPECT_EQ(t.at(0).AsInt(), i);
  }
  EXPECT_EQ(arena->allocations(), allocs);
}

TEST(HotpathStructuresTest, TupleSharingAndRefcounts) {
  TupleArena* arena = TupleArena::Default();
  const int64_t outstanding = arena->outstanding();
  {
    Tuple a = Tuple::MakeInts({7, 8}, 1);
    Tuple b = a;                         // shared payload
    Tuple c = b.WithTimestamp(5);        // shared payload, new ts
    EXPECT_EQ(a.payload(), b.payload());
    EXPECT_EQ(a.payload(), c.payload());
    EXPECT_EQ(arena->outstanding(), outstanding + 1);
    EXPECT_EQ(c.ts(), 5);
    EXPECT_TRUE(a.ContentEquals(b));
    EXPECT_FALSE(a.ContentEquals(c));  // ts differs
  }
  EXPECT_EQ(arena->outstanding(), outstanding);
}

TEST(HotpathStructuresTest, FlatInt64Map) {
  FlatInt64Map map;
  EXPECT_EQ(map.Find(0), -1);
  Rng rng(11);
  std::map<int64_t, int32_t> oracle;
  for (int i = 0; i < 500; ++i) {
    int64_t key = rng.UniformInt(-1000, 1000);
    int32_t value = static_cast<int32_t>(rng.UniformInt(0, 1 << 20));
    map.Insert(key, value);
    oracle[key] = value;
  }
  EXPECT_EQ(map.size(), oracle.size());
  for (const auto& [key, value] : oracle) {
    EXPECT_EQ(map.Find(key), value) << key;
  }
  for (int64_t missing : {-5000, 5000, 123456789}) {
    EXPECT_EQ(map.Find(missing), -1);
  }
}

}  // namespace
}  // namespace rumor
