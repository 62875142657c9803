// Regression guard for the iterative executor dispatch: a merged plan can be
// an arbitrarily deep chain of m-ops, and pushing a tuple through it must
// not consume stack proportional to the chain depth (the former recursive
// depth-first dispatch overflowed the call stack on plans like this one).
#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "mop/selection_mop.h"
#include "plan/executor.h"

namespace rumor {
namespace {

constexpr int kDepth = 10000;

// Source -> kDepth chained pass-through selections -> output.
struct DeepChain {
  Plan plan;
  StreamId source;
  StreamId output;

  explicit DeepChain(int depth) {
    Schema schema = Schema::MakeInts(2);
    source = plan.streams().AddSource("S", schema);
    ChannelId prev = plan.SourceChannelOf(source);
    for (int i = 0; i < depth; ++i) {
      MopId m = plan.AddMop(std::make_unique<SelectionMop>(
          SelectionMop::Member{0, {nullptr}}));
      ChannelId out = plan.AddDerivedChannel("d" + std::to_string(i), schema);
      plan.BindInput(m, 0, prev);
      plan.BindOutput(m, 0, out);
      prev = out;
    }
    output = plan.channel(prev).stream_at(0);
    plan.MarkOutput(output, "Q");
  }
};

TEST(DeepChainTest, EventAtATimeSurvivesTenThousandChainedSelections) {
  DeepChain chain(kDepth);
  CollectingSink sink;
  Executor exec(&chain.plan, &sink);
  exec.Prepare();
  for (int ts = 0; ts < 5; ++ts) {
    exec.PushSource(chain.source, Tuple::MakeInts({ts, 7}, ts));
  }
  ASSERT_EQ(sink.ForStream(chain.output).size(), 5u);
  for (int ts = 0; ts < 5; ++ts) {
    EXPECT_EQ(sink.ForStream(chain.output)[ts].at(0).AsInt(), ts);
    EXPECT_EQ(sink.ForStream(chain.output)[ts].ts(), ts);
  }
  EXPECT_EQ(exec.deliveries(), 5 * static_cast<int64_t>(kDepth));
}

TEST(DeepChainTest, BatchedPathSurvivesTenThousandChainedSelections) {
  DeepChain chain(kDepth);
  CollectingSink sink;
  Executor exec(&chain.plan, &sink);
  exec.Prepare();
  EXPECT_TRUE(exec.BatchSafe(chain.plan.SourceChannelOf(chain.source)));
  std::vector<Tuple> batch;
  for (int ts = 0; ts < 64; ++ts) {
    batch.push_back(Tuple::MakeInts({ts, 7}, ts));
  }
  exec.PushSourceBatch(chain.source, batch);
  ASSERT_EQ(sink.ForStream(chain.output).size(), 64u);
  EXPECT_EQ(exec.deliveries(), 64 * static_cast<int64_t>(kDepth));
}

}  // namespace
}  // namespace rumor
