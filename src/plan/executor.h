// Push-based executor. Source tuples are pushed in timestamp order; emitted
// channel tuples propagate through the (acyclic) consumer graph in
// depth-first order, driven by an explicit work stack (no recursion, so
// arbitrarily deep merged-plan chains cannot overflow the call stack).
// Streams marked as query outputs are delivered to an OutputSink.
//
// Two data-movement modes:
//  * event-at-a-time — PushSource / PushChannel, one tuple per call;
//  * batched — PushSourceBatch / PushChannelBatch, a run of consecutive
//    same-origin tuples per call. The batch traverses each m-op once via
//    per-channel batch buffers (Mop::ProcessBatch), amortizing routing and
//    dispatch overhead. Batching is applied only when it provably preserves
//    per-tuple semantics (see BatchSafe below); otherwise the batch call
//    transparently falls back to the per-tuple path. Either way, every
//    m-op sees the same delivery sequence and every output stream receives
//    the same tuples in the same order as per-tuple pushes; only the
//    *interleaving across different output streams* may differ (a batch
//    delivers a channel's outputs before downstream channels').
//
// Output channels with no consumers (typical query outputs) are delivered
// to the sink directly at emission time in both modes. Per-output-stream
// delivery order is always the emission order; the interleaving *across*
// output streams is unspecified (leaf outputs arrive before sibling
// emissions' downstream outputs).
//
// Leaf delivery reads one dense 4-byte word per channel — has consumers,
// general, and the channel's single output stream when that stream sits at
// slot 0 — kept in step with the routing tables by Prepare and Refresh. So
// the common leaf (a query output channel of capacity 1, e.g. one member
// port of a predicate index) reaches the sink after one read of a table
// that stays cache-resident at 10k channels. Channels with several output
// slots, or an output at another slot, and latency-sampled pushes take the
// general per-slot route.
#ifndef RUMOR_PLAN_EXECUTOR_H_
#define RUMOR_PLAN_EXECUTOR_H_

#include <span>
#include <vector>

#include "plan/plan.h"

namespace rumor {

// Receives query output tuples.
class OutputSink {
 public:
  virtual ~OutputSink() = default;
  virtual void OnOutput(StreamId stream, const Tuple& tuple) = 0;
};

// Counts outputs per stream (cheap; benchmarks). StreamIds are small and
// contiguous, so counters live in a dense vector; growth is geometric (a
// one-at-a-time resize would re-touch the whole array on every new stream).
class CountingSink : public OutputSink {
 public:
  void OnOutput(StreamId stream, const Tuple&) override {
    ++total_;
    if (stream >= static_cast<StreamId>(per_stream_.size())) Grow(stream);
    ++per_stream_[stream];
  }
  // Pre-sizes the counter array (benchmarks call this with the plan's
  // stream count so the measured loop never grows it).
  void Reserve(StreamId num_streams) {
    if (num_streams > static_cast<StreamId>(per_stream_.size())) {
      per_stream_.resize(num_streams, 0);
    }
  }
  int64_t total() const { return total_; }
  int64_t ForStream(StreamId s) const {
    return s < static_cast<StreamId>(per_stream_.size()) ? per_stream_[s] : 0;
  }

 private:
  void Grow(StreamId stream) {
    size_t size = per_stream_.empty() ? 16 : per_stream_.size();
    while (size <= static_cast<size_t>(stream)) size *= 2;
    per_stream_.resize(size, 0);
  }

  int64_t total_ = 0;
  std::vector<int64_t> per_stream_;
};

// Stores outputs per stream (tests / examples); dense StreamId-indexed.
class CollectingSink : public OutputSink {
 public:
  void OnOutput(StreamId stream, const Tuple& tuple) override {
    if (stream >= static_cast<StreamId>(tuples_.size())) {
      tuples_.resize(stream + 1);
    }
    tuples_[stream].push_back(tuple);
  }
  const std::vector<Tuple>& ForStream(StreamId s) const {
    static const std::vector<Tuple> kEmpty;
    return s >= 0 && s < static_cast<StreamId>(tuples_.size()) ? tuples_[s]
                                                               : kEmpty;
  }
  int64_t total() const {
    int64_t n = 0;
    for (const std::vector<Tuple>& v : tuples_) n += v.size();
    return n;
  }

 private:
  std::vector<std::vector<Tuple>> tuples_;
};

class Executor {
 public:
  // The plan must stay alive and unmodified while the executor runs.
  Executor(Plan* plan, OutputSink* sink);

  // Builds routing tables; validates the plan. Call once before pushing.
  void Prepare();

  // Re-syncs the routing tables after the plan changed underneath a running
  // executor (online query churn: AddQuery/RemoveQuery after Start). Patches
  // only the channels the plan's mutation log names since the last sync —
  // O(delta), not O(plan) — falling back to a full rebuild when the log was
  // compacted past our cursor or recorded a bulk change (rollback). Keeps
  // everything a sync does not invalidate: delivery counters, per-channel
  // batch buffers (and their warmed capacity) for channels that survive,
  // and m-op state (owned by the plan). Must not be called from inside a
  // push (CHECK-fails if busy()).
  void Refresh();

  // True while a push is propagating (an output handler is running). Plan
  // mutations are illegal in this window.
  bool busy() const { return draining_ || in_run_batch_; }

  // Pushes one tuple of a *source stream*; timestamps must be
  // non-decreasing per call sequence. The tuple enters the source's own
  // channel and every source-group channel carrying the stream.
  void PushSource(StreamId stream, const Tuple& tuple);

  // Pushes a channel tuple into a producer-less channel (source-group
  // channels; paper §5.2 Workload 3 feeds channel C directly). A group
  // channel delivers no query outputs (see IsSourceGroup).
  void PushChannel(ChannelId channel, const ChannelTuple& tuple);

  // Pushes a run of consecutive tuples of one source stream. Semantically
  // equivalent to calling PushSource for each tuple in order — the tuples
  // must be consecutive in the global event order (no events of other
  // sources in between) and have non-decreasing timestamps.
  void PushSourceBatch(StreamId stream, std::span<const Tuple> tuples);

  // Batched variant of PushChannel under the same contract.
  void PushChannelBatch(ChannelId channel,
                        std::span<const ChannelTuple> tuples);

  // True if batches rooted at `channel` take the per-channel batch-buffer
  // path. A root is batch-safe iff no m-op has two or more *input ports*
  // reachable from it: for such m-ops a batch would reorder deliveries
  // across ports (all of port A before port B) relative to the per-tuple
  // interleaving, which can change stateful results. Single-input chains —
  // selections, projections, aggregations — are always safe.
  bool BatchSafe(ChannelId channel);

  // Tuples delivered to m-op inputs so far (scheduling work measure).
  int64_t deliveries() const { return deliveries_; }

  // Adjusts the metrics sampling knob (common/metrics.h); takes effect on
  // the next push. No-op when metrics are compiled out.
  void SetMetricsOptions(const MetricsOptions& options) {
    metrics_options_ = options;
    metrics_countdown_ = options.sample_every_n;
    latency_countdown_ = options.sample_every_n;
  }
  const MetricsOptions& metrics_options() const { return metrics_options_; }

  // End-to-end ingress→sink latency distribution: every sample_every_n-th
  // push call stamps the clock at entry, and each query output it produces
  // records (now - stamp). Covers the full propagation through the merged
  // plan, both per-tuple and batched. Empty when metrics are compiled out.
  const LatencyHistogram& output_latency() const { return output_latency_; }
  LatencyHistogram* mutable_output_latency() { return &output_latency_; }

 private:
  struct Route {
    std::vector<ChannelEnd> consumers;
    // Output slots: (channel slot, stream id) of streams marked as outputs.
    std::vector<std::pair<int, StreamId>> output_slots;
  };

  // One unit of event-at-a-time work, emulating the former recursion
  // exactly: a kChannel task fans a tuple out to the sink and its channel's
  // consumers; a kDeliver task runs one m-op on it and stages the
  // emissions. LIFO order reproduces depth-first traversal.
  struct Task {
    enum Kind : uint8_t { kChannel, kDeliver } kind;
    ChannelId channel;  // kChannel: target channel; kDeliver: unused
    ChannelEnd end;     // kDeliver: target (mop, port)
    ChannelTuple tuple;
  };

  class PortEmitter;
  class BatchEmitter;

  // A producer-less channel a pushed source tuple enters: the source's own
  // channel, or a group channel the channel rule made from sharable-labeled
  // sources. The tuple's membership there is the stream's slot.
  struct SourceRoot {
    ChannelId channel;
    int slot;
    int capacity;
  };
  // source_route_ value of a source with roots other than its own
  // capacity-1 channel alone; source_roots_ lists them.
  static constexpr ChannelId kManyRoots = -2;

  // Derives routes_/source_route_/batch_safe_ from the current plan (one
  // pass over the m-ops; Prepare and the Refresh fallback).
  void BuildRouting();
  // Re-derives source stream `s`'s roots from the plan.
  void RouteSource(StreamId s);
  // A producer-less channel of capacity > 1 (a source-group channel). It
  // carries no output slots: every source stream on it also has its own
  // channel, which a pushed tuple enters as well and which delivers the
  // stream's outputs, so delivering them here too would deliver them twice.
  bool IsSourceGroup(ChannelId c) const;
  // Patches the routing tables from a batch of plan mutation events
  // (Refresh fast path). The caller has checked the batch contains no kBulk.
  void ApplyPlanDelta(const std::vector<PlanEvent>& events);

  // Pushes a kChannel task and, unless a drain is already running higher up
  // the call stack, drains the work stack.
  void Dispatch(ChannelId channel, ChannelTuple tuple);
  void Drain();

  // Per-channel batch-buffer propagation; the caller stages the root batch
  // in channel_buffers_[root] (root must be batch-safe).
  void RunBatch(ChannelId root);
  void DeliverOutputs(const Route& route, const ChannelTuple& tuple);

  // Delivery word bits (see the file comment): kHasConsumers, kGeneral (the
  // outputs need DeliverOutputs), and in the low bits the slot-0 output
  // stream plus one (0: no output to deliver).
  static constexpr uint32_t kHasConsumers = 1u << 31;
  static constexpr uint32_t kGeneral = 1u << 30;
  static constexpr uint32_t kStreamBits = kGeneral - 1;
  uint32_t DeliveryWord(const Route& route) const;
  // Hands `tuple`'s outputs on `channel` to the sink.
  void Deliver(ChannelId channel, uint32_t word, const ChannelTuple& tuple) {
    if ((word & kGeneral) != 0 || ingress_t0_ >= 0) {
      DeliverOutputs(routes_[channel], tuple);
    } else if ((word & kStreamBits) != 0 && tuple.membership.Test(0)) {
      sink_->OnOutput(static_cast<StreamId>((word & kStreamBits) - 1),
                      tuple.tuple);
    }
  }
  // Leaf shortcut shared by both emitters: a channel with no consumers only
  // feeds the sink, so deliver immediately instead of staging a task/batch.
  // Returns true when the emission was fully handled.
  bool TryDeliverLeaf(ChannelId channel, const ChannelTuple& tuple) {
    const uint32_t word = delivery_[channel];
    if ((word & kHasConsumers) != 0) return false;
    Deliver(channel, word, tuple);
    return true;
  }

  Plan* plan_;
  OutputSink* sink_;
  bool prepared_ = false;
  std::vector<Route> routes_;            // by channel id
  std::vector<uint32_t> delivery_;       // by channel id, from routes_
  // By source stream id: the one root channel (capacity 1) a pushed tuple
  // enters, kManyRoots, or kInvalidChannel for no wired source.
  std::vector<ChannelId> source_route_;
  std::vector<std::vector<SourceRoot>> source_roots_;  // by source stream
  // Lazily computed batch safety, invalidated wholesale by bumping
  // batch_epoch_ (an O(channels) reset per Refresh would dominate live
  // adds on large plans). An entry is valid iff its epoch matches.
  std::vector<int8_t> batch_safe_;          // by channel id
  std::vector<uint64_t> batch_safe_epoch_;  // by channel id
  uint64_t batch_epoch_ = 0;
  // Position in the plan's mutation log up to which routes_ is current.
  uint64_t plan_cursor_ = 0;
  int64_t deliveries_ = 0;

  // Sampled m-op timing: every sample_every_n-th invocation (per-tuple
  // delivery or ProcessBatch call) is wall-clock timed into the m-op's
  // MopMetrics; the only per-invocation cost is one countdown decrement.
  MetricsOptions metrics_options_;
  int metrics_countdown_ = MetricsOptions{}.sample_every_n;

  // Sampled ingress→sink latency: stamps every sample_every_n-th top-level
  // push (re-entrant pushes never stamp — the outer stamp stays valid).
  // While ingress_t0_ >= 0, DeliverOutputs records into output_latency_.
  bool MaybeStampIngress();
  LatencyHistogram output_latency_;
  int64_t ingress_t0_ = -1;
  int latency_countdown_ = MetricsOptions{}.sample_every_n;

  // Event-at-a-time work stack (member, so buffers are reused across
  // pushes). `draining_` guards against re-entrant drains.
  std::vector<Task> stack_;
  std::vector<Task> emit_scratch_;  // one m-op's staged emissions
  bool draining_ = false;

  // Batched-path state, all capacity-retaining across batches. A channel's
  // buffer holds its current batch from the moment its producer emits until
  // its own RunBatch visit completes. `in_run_batch_` routes re-entrant
  // batch pushes (e.g. from a sink handler) to the per-tuple path.
  std::vector<std::vector<ChannelTuple>> channel_buffers_;
  std::vector<ChannelId> touched_channels_;
  std::vector<ChannelId> batch_stack_;
  std::vector<Task> deferred_;  // re-entrant pushes arriving mid-batch
  bool in_run_batch_ = false;
};

}  // namespace rumor

#endif  // RUMOR_PLAN_EXECUTOR_H_
