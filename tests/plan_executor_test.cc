#include <gtest/gtest.h>

#include <map>
#include <optional>
#include <string>
#include <vector>

#include "common/rng.h"
#include "mop/selection_mop.h"
#include "plan/compile.h"
#include "plan/executor.h"
#include "query/builder.h"
#include "query/parser.h"

namespace rumor {
namespace {

Schema TenInts() { return Schema::MakeInts(10); }

Tuple T10(std::vector<int64_t> firsts, Timestamp ts) {
  firsts.resize(10, 0);
  return Tuple::MakeInts(firsts, ts);
}

TEST(CompileTest, SelectQueryShape) {
  Plan plan;
  Query q = QueryBuilder::FromSource("S", TenInts()).Select("a0 = 5").Build(
      "Q1");
  auto compiled = CompileQuery(q, &plan);
  ASSERT_TRUE(compiled.ok());
  EXPECT_EQ(plan.LiveMops().size(), 1u);
  EXPECT_EQ(plan.outputs().size(), 1u);
  plan.Validate();
}

TEST(CompileTest, SharedSourceAcrossQueries) {
  Plan plan;
  auto s = QueryBuilder::FromSource("S", TenInts());
  auto r1 = CompileQuery(s.Select("a0 = 1").Build("Q1"), &plan);
  auto r2 = CompileQuery(s.Select("a0 = 2").Build("Q2"), &plan);
  ASSERT_TRUE(r1.ok() && r2.ok());
  // One source stream, two selection m-ops.
  EXPECT_EQ(plan.streams().Sources().size(), 1u);
  EXPECT_EQ(plan.LiveMops().size(), 2u);
}

TEST(CompileTest, ConflictingSourceSchemaFails) {
  Plan plan;
  auto r1 = CompileQuery(
      QueryBuilder::FromSource("S", Schema::MakeInts(3)).Build("Q1"), &plan);
  ASSERT_TRUE(r1.ok());
  auto r2 = CompileQuery(
      QueryBuilder::FromSource("S", Schema::MakeInts(4)).Build("Q2"), &plan);
  EXPECT_FALSE(r2.ok());
}

TEST(ExecutorTest, SelectionEndToEnd) {
  Plan plan;
  Query q =
      QueryBuilder::FromSource("S", TenInts()).Select("a0 = 5").Build("Q1");
  auto compiled = CompileQuery(q, &plan);
  ASSERT_TRUE(compiled.ok());
  CollectingSink sink;
  Executor exec(&plan, &sink);
  exec.Prepare();
  StreamId s = *plan.streams().FindSource("S");
  exec.PushSource(s, T10({5}, 0));
  exec.PushSource(s, T10({6}, 1));
  exec.PushSource(s, T10({5}, 2));
  EXPECT_EQ(sink.ForStream(compiled.value().output_stream).size(), 2u);
}

TEST(ExecutorTest, PipelinedOperators) {
  // σ then π: executor must propagate through intermediate channels.
  Plan plan;
  Query q = QueryBuilder::FromSource("S", TenInts())
                .Select("a0 > 2")
                .Project({"a1"})
                .Build("Q1");
  auto compiled = CompileQuery(q, &plan);
  ASSERT_TRUE(compiled.ok());
  CollectingSink sink;
  Executor exec(&plan, &sink);
  exec.Prepare();
  StreamId s = *plan.streams().FindSource("S");
  exec.PushSource(s, T10({3, 42}, 0));
  exec.PushSource(s, T10({1, 99}, 1));
  const auto& out = sink.ForStream(compiled.value().output_stream);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].size(), 1);
  EXPECT_EQ(out[0].at(0).AsInt(), 42);
}

TEST(ExecutorTest, JoinTwoSources) {
  Plan plan;
  auto s = QueryBuilder::FromSource("S", TenInts());
  auto t = QueryBuilder::FromSource("T", TenInts());
  Query q = s.Join(t, "S.a0 = T.a0", 100, 100).Build("J");
  auto compiled = CompileQuery(q, &plan);
  ASSERT_TRUE(compiled.ok());
  CollectingSink sink;
  Executor exec(&plan, &sink);
  exec.Prepare();
  StreamId sid = *plan.streams().FindSource("S");
  StreamId tid = *plan.streams().FindSource("T");
  exec.PushSource(sid, T10({7}, 0));
  exec.PushSource(tid, T10({7}, 1));
  exec.PushSource(tid, T10({8}, 3));
  EXPECT_EQ(sink.ForStream(compiled.value().output_stream).size(), 1u);
}

TEST(ExecutorTest, AggregateThenSelectHybridFragment) {
  // The SMOOTHED fragment of the paper's Query 1.
  Plan plan;
  Catalog catalog;
  catalog.AddSource("CPU",
                    Schema({{"pid", ValueType::kInt},
                            {"load", ValueType::kInt}}));
  auto q = ParseQuery(
      "SELECT pid, AVG(load) FROM CPU [RANGE 5] GROUP BY pid", catalog);
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  auto compiled = CompileQuery(q.value(), &plan);
  ASSERT_TRUE(compiled.ok());
  CollectingSink sink;
  Executor exec(&plan, &sink);
  exec.Prepare();
  StreamId cpu = *plan.streams().FindSource("CPU");
  exec.PushSource(cpu, Tuple::MakeInts({1, 10}, 0));
  exec.PushSource(cpu, Tuple::MakeInts({1, 20}, 1));
  exec.PushSource(cpu, Tuple::MakeInts({2, 50}, 2));
  const auto& out = sink.ForStream(compiled.value().output_stream);
  ASSERT_EQ(out.size(), 3u);
  EXPECT_DOUBLE_EQ(out[1].at(1).AsDouble(), 15.0);   // pid 1: (10+20)/2
  EXPECT_DOUBLE_EQ(out[2].at(1).AsDouble(), 50.0);   // pid 2
}

TEST(ExecutorTest, SequencePatternEndToEnd) {
  Plan plan;
  Catalog catalog;
  catalog.AddSource("S", TenInts());
  catalog.AddSource("T", TenInts());
  auto q = ParseQuery(
      "SELECT * FROM S SEQ T ON S.a0 = 1 AND T.a0 = 2 WITHIN 10", catalog);
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  auto compiled = CompileQuery(q.value(), &plan);
  ASSERT_TRUE(compiled.ok());
  CollectingSink sink;
  Executor exec(&plan, &sink);
  exec.Prepare();
  StreamId s = *plan.streams().FindSource("S");
  StreamId t = *plan.streams().FindSource("T");
  exec.PushSource(s, T10({1}, 0));
  exec.PushSource(t, T10({2}, 1));
  exec.PushSource(t, T10({2}, 3));  // instance consumed: no second match
  EXPECT_EQ(sink.ForStream(compiled.value().output_stream).size(), 1u);
}

TEST(ExecutorTest, CountingSinkTotals) {
  Plan plan;
  Query q = QueryBuilder::FromSource("S", TenInts()).Build("Q");
  auto compiled = CompileQuery(q, &plan);
  ASSERT_TRUE(compiled.ok());
  CountingSink sink;
  Executor exec(&plan, &sink);
  exec.Prepare();
  StreamId s = *plan.streams().FindSource("S");
  for (int i = 0; i < 5; ++i) exec.PushSource(s, T10({i}, i));
  EXPECT_EQ(sink.total(), 5);
  EXPECT_EQ(sink.ForStream(compiled.value().output_stream), 5);
}

TEST(PlanTest, ValidateDetectsUnboundPort) {
  Plan plan;
  StreamId s = plan.streams().AddSource("S", TenInts());
  plan.SourceChannelOf(s);
  plan.AddMop(std::make_unique<SelectionMop>(
      SelectionMop::Member{0, {nullptr}}));
  EXPECT_DEATH(plan.Validate(), "unbound");
}

TEST(PlanTest, MoveConsumersRewires) {
  Plan plan;
  StreamId s = plan.streams().AddSource("S", TenInts());
  ChannelId src = plan.SourceChannelOf(s);
  ChannelId alt = plan.AddDerivedChannel("alt", TenInts());
  MopId m = plan.AddMop(std::make_unique<SelectionMop>(
      SelectionMop::Member{0, {nullptr}}));
  plan.BindInput(m, 0, src);
  ChannelId out = plan.AddDerivedChannel("out", TenInts());
  plan.BindOutput(m, 0, out);
  EXPECT_EQ(plan.ConsumersOf(src).size(), 1u);
  plan.MoveConsumers(src, alt);
  EXPECT_EQ(plan.ConsumersOf(src).size(), 0u);
  EXPECT_EQ(plan.ConsumersOf(alt).size(), 1u);
}

// A removed m-op's slot stays as a tombstone, but its port vectors are
// released: a predicate index rebuilt on every live remove would otherwise
// leave thousands of ports behind each time.
TEST(PlanTest, RemovedMopReleasesItsPorts) {
  Plan plan;
  StreamId s = plan.streams().AddSource("S", TenInts());
  ChannelId src = plan.SourceChannelOf(s);
  MopId m = plan.AddMop(std::make_unique<SelectionMop>(
      SelectionMop::Member{0, {nullptr}}));
  plan.BindInput(m, 0, src);
  plan.BindOutput(m, 0, plan.AddDerivedChannel("out", TenInts()));
  plan.RemoveMop(m);
  EXPECT_FALSE(plan.IsLive(m));
  EXPECT_EQ(plan.input_channels(m).capacity(), 0u);
  EXPECT_EQ(plan.output_channels(m).capacity(), 0u);
}

// The output-mark lookups stay exact under a seeded mix of marks, unmarks,
// remaps and rolled-back marks, checked against a naive name -> stream map.
TEST(PlanTest, OutputTablesTrackMarksUnmarksAndRemaps) {
  Plan plan;
  std::vector<StreamId> streams;
  for (int i = 0; i < 6; ++i) {
    streams.push_back(
        plan.streams().AddDerived("s" + std::to_string(i), TenInts()));
  }
  auto any_stream = [&](Rng& rng) { return streams[rng.UniformInt(0, 5)]; };
  std::map<std::string, StreamId> model;
  Rng rng(0x0a7e);
  int next_name = 0;
  for (int step = 0; step < 400; ++step) {
    const int64_t op = rng.UniformInt(0, 9);
    if (op < 4 || model.empty()) {
      const std::string name = "q" + std::to_string(next_name++);
      const StreamId stream = any_stream(rng);
      plan.MarkOutput(stream, name);
      model[name] = stream;
    } else if (op < 7) {
      auto victim = std::next(
          model.begin(),
          rng.UniformInt(0, static_cast<int64_t>(model.size()) - 1));
      ASSERT_TRUE(plan.UnmarkOutput(victim->first));
      model.erase(victim);
    } else if (op < 9) {
      const StreamId from = any_stream(rng);
      const StreamId to = any_stream(rng);
      plan.RemapOutput(from, to);
      for (auto& [name, stream] : model) {
        if (stream == from) stream = to;
      }
    } else {
      const Plan::Marker marker = plan.Mark();
      plan.MarkOutput(any_stream(rng), "rolled_back");
      plan.RollbackTo(marker);
    }

    ASSERT_EQ(plan.outputs().size(), model.size()) << "step " << step;
    std::map<std::string, StreamId> marks;
    for (const Plan::OutputDef& def : plan.outputs()) {
      marks[def.query_name] = def.stream;
    }
    ASSERT_EQ(marks, model) << "step " << step;
    for (int n = 0; n < next_name; ++n) {
      const std::string name = "q" + std::to_string(n);
      auto it = model.find(name);
      ASSERT_EQ(plan.OutputStreamOf(name),
                it == model.end() ? std::nullopt
                                  : std::optional<StreamId>(it->second))
          << "step " << step << " " << name;
    }
    EXPECT_FALSE(plan.OutputStreamOf("rolled_back").has_value());
    for (StreamId stream : streams) {
      int expect = 0;
      for (const auto& [name, s] : model) expect += s == stream;
      ASSERT_EQ(plan.OutputMarksOn(stream), expect) << "step " << step;
    }
  }
  EXPECT_FALSE(plan.UnmarkOutput("never_marked"));
}

}  // namespace
}  // namespace rumor
