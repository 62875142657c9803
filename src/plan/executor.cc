#include "plan/executor.h"

#include <chrono>
#include <deque>

namespace rumor {

#if RUMOR_METRICS_ENABLED
namespace {
int64_t MonotonicNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}
}  // namespace
#endif

// Adapter handing an m-op's emissions back to the executor with the emitting
// m-op's identity attached. Emissions are staged in emit_scratch_ and pushed
// onto the work stack in reverse once the m-op returns, so the first
// emission's whole subtree runs before the second emission — the same order
// the former recursive dispatch produced.
class Executor::PortEmitter : public Emitter {
 public:
  PortEmitter(Executor* executor, MopId mop)
      : executor_(executor),
        out_channels_(executor->plan_->output_channels(mop).data()) {}

  void Emit(int output_port, ChannelTuple tuple) override {
    // Output wiring is frozen while a push is in flight, so the channel
    // table is resolved once per m-op visit, not per emission.
    ChannelId channel = out_channels_[output_port];
    RUMOR_DCHECK(channel != kInvalidChannel);
    if (executor_->TryDeliverLeaf(channel, tuple)) return;
    executor_->emit_scratch_.push_back(
        Task{Task::kChannel, channel, ChannelEnd{}, std::move(tuple)});
  }

  // Moves the staged emissions onto the work stack (reversed, so LIFO pop
  // order equals emission order).
  void Flush() {
    std::vector<Task>& stack = executor_->stack_;
    std::vector<Task>& scratch = executor_->emit_scratch_;
    for (size_t i = scratch.size(); i > 0; --i) {
      stack.push_back(std::move(scratch[i - 1]));
    }
    scratch.clear();
  }

 private:
  Executor* executor_;
  const ChannelId* out_channels_;
};

// Collects a whole batch's emissions into the executor's per-channel batch
// buffers (which retain capacity across batches — the steady state of the
// batched path allocates nothing beyond tuple payloads). Channels receiving
// their first tuple are recorded in touched_channels_ so RunBatch knows
// what to propagate next.
class Executor::BatchEmitter : public Emitter {
 public:
  BatchEmitter(Executor* executor, MopId mop)
      : executor_(executor),
        out_channels_(executor->plan_->output_channels(mop).data()) {}

  void Emit(int output_port, ChannelTuple tuple) override {
    ChannelId channel = out_channels_[output_port];
    RUMOR_DCHECK(channel != kInvalidChannel);
    if (executor_->TryDeliverLeaf(channel, tuple)) return;
    std::vector<ChannelTuple>& buffer = executor_->channel_buffers_[channel];
    if (buffer.empty()) executor_->touched_channels_.push_back(channel);
    buffer.push_back(std::move(tuple));
  }

 private:
  Executor* executor_;
  const ChannelId* out_channels_;
};

Executor::Executor(Plan* plan, OutputSink* sink)
    : plan_(plan), sink_(sink) {}

void Executor::Prepare() {
  plan_->Validate();
  BuildRouting();
  prepared_ = true;
}

void Executor::Refresh() {
  RUMOR_CHECK(prepared_) << "call Prepare() first";
  RUMOR_CHECK(!busy()) << "cannot refresh routing mid-push";
  RUMOR_DCHECK(stack_.empty() && deferred_.empty());
#ifndef NDEBUG
  // Debug builds re-validate the mutated plan on every refresh; release
  // builds rely on the add/remove paths having validated their rewrites.
  plan_->Validate();
#endif
  // Between pushes every batch buffer is drained, so re-deriving routing
  // state loses no in-flight work. The fast path patches only the channels
  // the plan's mutation log names since our cursor; a compacted log or a
  // bulk event (rollback) falls back to the full rebuild.
  std::vector<PlanEvent> events;
  bool reachable = plan_->ReadEventsSince(plan_cursor_, &events);
  if (!reachable) {
    BuildRouting();
    return;
  }
  for (const PlanEvent& e : events) {
    if (e.kind == PlanEvent::kBulk) {
      BuildRouting();
      return;
    }
  }
  ApplyPlanDelta(events);
  plan_cursor_ = plan_->mutation_seq();
}

void Executor::ApplyPlanDelta(const std::vector<PlanEvent>& events) {
  if (events.empty()) return;
  // The tables follow the plan's size, so an id TrimTail dropped and the
  // plan issued again starts from a default row; its old events are skipped.
  const int num_channels = plan_->num_channels();
  routes_.resize(num_channels);
  delivery_.resize(num_channels, 0);
  batch_safe_.resize(num_channels, 0);
  batch_safe_epoch_.resize(num_channels, 0);
  channel_buffers_.resize(num_channels);
  source_route_.resize(plan_->streams().size(), kInvalidChannel);
  source_roots_.resize(plan_->streams().size());
  // Any rewiring can change reachability; invalidate all cached batch
  // safety in O(1) and recompute lazily.
  ++batch_epoch_;
  // Channels whose consumer lists changed, and streams whose output marks
  // changed (their channels' output slots need recomputing).
  std::vector<ChannelId> dirty_channels;
  std::vector<StreamId> dirty_streams;
  for (const PlanEvent& e : events) {
    switch (e.kind) {
      case PlanEvent::kInputBound:
        if (e.b >= 0 && e.b < num_channels) dirty_channels.push_back(e.b);
        if (e.c >= 0 && e.c < num_channels) dirty_channels.push_back(e.c);
        break;
      case PlanEvent::kChannelKilled:
        if (e.a >= num_channels) break;
        routes_[e.a] = Route{};  // tombstone: routes stay empty
        delivery_[e.a] = 0;
        break;
      case PlanEvent::kSourceBound:
        RouteSource(e.a);
        break;
      case PlanEvent::kOutputMarked:
      case PlanEvent::kOutputUnmarked:
        dirty_streams.push_back(e.a);
        break;
      case PlanEvent::kOutputRemapped:
        dirty_streams.push_back(e.a);
        dirty_streams.push_back(e.b);
        break;
      case PlanEvent::kMopAdded:      // bindings arrive as their own events
      case PlanEvent::kMopRemoved:    // ditto (unbinds precede it)
      case PlanEvent::kMopGrew:       // producer-side only
      case PlanEvent::kMemberReused:  // member specs only, wiring untouched
      case PlanEvent::kOutputBound:   // producer-side only
      case PlanEvent::kChannelAdded:  // fresh channel: default route is right
      case PlanEvent::kTailTrimmed:   // the resizes above
        break;
      case PlanEvent::kBulk:
        RUMOR_CHECK(false) << "bulk events take the full-rebuild path";
    }
  }
  for (ChannelId c : dirty_channels) {
    // ConsumersOf sorts by (mop, port) — the exact order the one-pass
    // BuildRouting produces — so a patched table matches a fresh build.
    routes_[c].consumers = plan_->ConsumersOf(c);
    delivery_[c] = DeliveryWord(routes_[c]);
  }
  for (StreamId s : dirty_streams) {
    for (ChannelId c : plan_->ChannelsOfStream(s)) {
      if (IsSourceGroup(c)) continue;
      const ChannelDef& def = plan_->channel(c);
      auto& slots = routes_[c].output_slots;
      slots.clear();
      for (int slot = 0; slot < def.capacity(); ++slot) {
        if (plan_->OutputMarksOn(def.stream_at(slot)) > 0) {
          slots.push_back({slot, def.stream_at(slot)});
        }
      }
      delivery_[c] = DeliveryWord(routes_[c]);
    }
  }
}

uint32_t Executor::DeliveryWord(const Route& route) const {
  uint32_t word = route.consumers.empty() ? 0 : kHasConsumers;
  if (sink_ == nullptr || route.output_slots.empty()) return word;
  const auto& [slot, stream] = route.output_slots.front();
  if (route.output_slots.size() > 1 || slot != 0 ||
      static_cast<uint32_t>(stream) >= kStreamBits) {
    return word | kGeneral;
  }
  return word | (static_cast<uint32_t>(stream) + 1);
}

void Executor::BuildRouting() {
  routes_.assign(plan_->num_channels(), Route{});
  // One pass over the m-ops (not ConsumersOf per channel, which is
  // quadratic on merged plans and painful on every live add).
  for (int m = 0; m < plan_->num_mops(); ++m) {
    if (!plan_->IsLive(m)) continue;
    const std::vector<ChannelId>& ins = plan_->input_channels(m);
    for (int p = 0; p < static_cast<int>(ins.size()); ++p) {
      if (ins[p] != kInvalidChannel) {
        routes_[ins[p]].consumers.push_back({m, p});
      }
    }
  }
  // Streams marked as query outputs, deduplicated (several queries may
  // share one output stream after CSE; each stream tuple is delivered once
  // per stream — the sink maps streams back to queries).
  std::vector<char> is_output(plan_->streams().size(), 0);
  for (const Plan::OutputDef& out : plan_->outputs()) {
    is_output[out.stream] = 1;
  }
  for (ChannelId c = 0; c < plan_->num_channels(); ++c) {
    // Tombstones keep empty routes; group channels deliver no outputs.
    if (plan_->channel_dead(c) || IsSourceGroup(c)) continue;
    const ChannelDef& def = plan_->channel(c);
    for (int slot = 0; slot < def.capacity(); ++slot) {
      if (is_output[def.stream_at(slot)]) {
        routes_[c].output_slots.push_back({slot, def.stream_at(slot)});
      }
    }
  }
  delivery_.resize(routes_.size());
  for (size_t c = 0; c < routes_.size(); ++c) {
    delivery_[c] = DeliveryWord(routes_[c]);
  }
  source_route_.assign(plan_->streams().size(), kInvalidChannel);
  source_roots_.assign(plan_->streams().size(), {});
  for (StreamId s : plan_->streams().Sources()) RouteSource(s);
  ++batch_epoch_;  // invalidates all cached batch safety
  batch_safe_.assign(plan_->num_channels(), 0);
  batch_safe_epoch_.assign(plan_->num_channels(), 0);
  // Grow-only so surviving channels keep their warmed buffer capacity.
  if (static_cast<int>(channel_buffers_.size()) < plan_->num_channels()) {
    channel_buffers_.resize(plan_->num_channels());
  }
  plan_cursor_ = plan_->mutation_seq();
}

bool Executor::IsSourceGroup(ChannelId c) const {
  return plan_->channel(c).capacity() > 1 && !plan_->ProducerOf(c).has_value();
}

void Executor::RouteSource(StreamId s) {
  std::vector<SourceRoot>& roots = source_roots_[s];
  roots.clear();
  for (ChannelId c : plan_->ChannelsOfStream(s)) {
    if (plan_->ProducerOf(c).has_value()) continue;
    const ChannelDef& def = plan_->channel(c);
    for (int slot = 0; slot < def.capacity(); ++slot) {
      if (def.stream_at(slot) == s) roots.push_back({c, slot, def.capacity()});
    }
  }
  if (roots.empty()) {
    source_route_[s] = kInvalidChannel;
  } else if (roots.size() == 1 && roots[0].capacity == 1) {
    source_route_[s] = roots[0].channel;
    roots.clear();
  } else {
    source_route_[s] = kManyRoots;
  }
}

bool Executor::BatchSafe(ChannelId channel) {
  RUMOR_DCHECK(prepared_) << "call Prepare() first";
  RUMOR_DCHECK(channel >= 0 && channel < plan_->num_channels());
  if (batch_safe_epoch_[channel] == batch_epoch_) {
    return batch_safe_[channel] != 0;
  }
  // BFS over the consumer graph, counting distinct reachable input ports
  // per m-op (dense MopId-indexed scratch; -1 = not yet reached). Two
  // reachable ports on one m-op means a batch would deliver all of one port
  // before the other, diverging from per-tuple order.
  std::vector<bool> seen_channel(plan_->num_channels(), false);
  std::vector<int32_t> first_port(plan_->num_mops(), -1);
  std::deque<ChannelId> queue{channel};
  seen_channel[channel] = true;
  bool safe = true;
  while (!queue.empty() && safe) {
    ChannelId c = queue.front();
    queue.pop_front();
    for (const ChannelEnd& end : routes_[c].consumers) {
      if (first_port[end.mop] >= 0) {
        if (first_port[end.mop] != end.port) {
          safe = false;
          break;
        }
        continue;  // mop already expanded via this port
      }
      first_port[end.mop] = end.port;
      for (ChannelId out : plan_->output_channels(end.mop)) {
        if (out != kInvalidChannel && !seen_channel[out]) {
          seen_channel[out] = true;
          queue.push_back(out);
        }
      }
    }
  }
  batch_safe_[channel] = safe ? 1 : 0;
  batch_safe_epoch_[channel] = batch_epoch_;
  return safe;
}

// Stamps the ingress clock for every sample_every_n-th top-level push; while
// the stamp is live, DeliverOutputs records end-to-end latency per output.
// Re-entrant pushes (sink handlers mid-drain/mid-batch) never stamp, so the
// outer push's stamp survives; their deferred tuples are measured against
// the outer ingress, which is when they actually entered the engine.
bool Executor::MaybeStampIngress() {
#if RUMOR_METRICS_ENABLED
  if (busy() || metrics_options_.sample_every_n <= 0) return false;
  if (--latency_countdown_ > 0) return false;
  latency_countdown_ = metrics_options_.sample_every_n;
  ingress_t0_ = MonotonicNs();
  return true;
#else
  return false;
#endif
}

void Executor::PushChannel(ChannelId channel, const ChannelTuple& tuple) {
  RUMOR_DCHECK(prepared_) << "call Prepare() first";
  RUMOR_DCHECK(channel >= 0 && channel < plan_->num_channels());
  const bool stamped = MaybeStampIngress();
  Dispatch(channel, tuple);
  if (stamped) ingress_t0_ = -1;
}

void Executor::PushSource(StreamId stream, const Tuple& tuple) {
  RUMOR_DCHECK(prepared_) << "call Prepare() first";
  ChannelId channel = source_route_[stream];
  RUMOR_CHECK(channel != kInvalidChannel)
      << "stream " << stream << " is not a wired source";
  const bool stamped = MaybeStampIngress();
  if (channel != kManyRoots) {
    Dispatch(channel, ChannelTuple{tuple, BitVector::Singleton(0, 1)});
  } else {
    for (const SourceRoot& root : source_roots_[stream]) {
      Dispatch(root.channel, ChannelTuple{tuple, BitVector::Singleton(
                                                     root.slot, root.capacity)});
    }
  }
  if (stamped) ingress_t0_ = -1;
}

void Executor::PushSourceBatch(StreamId stream,
                               std::span<const Tuple> tuples) {
  RUMOR_DCHECK(prepared_) << "call Prepare() first";
  if (tuples.empty()) return;
  ChannelId channel = source_route_[stream];
  RUMOR_CHECK(channel != kInvalidChannel)
      << "stream " << stream << " is not a wired source";
  // Re-entrant batch pushes (from a sink handler mid-drain or mid-batch)
  // take the per-tuple path, whose deferral keeps timestamp order intact,
  // and so does a source with several roots.
  if (tuples.size() == 1 || in_run_batch_ || draining_ ||
      channel == kManyRoots || !BatchSafe(channel)) {
    for (const Tuple& t : tuples) PushSource(stream, t);
    return;
  }
  const bool stamped = MaybeStampIngress();
  std::vector<ChannelTuple>& root = channel_buffers_[channel];
  root.reserve(tuples.size());
  for (const Tuple& t : tuples) {
    root.push_back(ChannelTuple{t, BitVector::Singleton(0, 1)});
  }
  RunBatch(channel);
  if (stamped) ingress_t0_ = -1;
}

void Executor::PushChannelBatch(ChannelId channel,
                                std::span<const ChannelTuple> tuples) {
  RUMOR_DCHECK(prepared_) << "call Prepare() first";
  RUMOR_DCHECK(channel >= 0 && channel < plan_->num_channels());
  if (tuples.empty()) return;
  if (tuples.size() == 1 || in_run_batch_ || draining_ ||
      !BatchSafe(channel)) {
    for (const ChannelTuple& t : tuples) PushChannel(channel, t);
    return;
  }
  const bool stamped = MaybeStampIngress();
  std::vector<ChannelTuple>& root = channel_buffers_[channel];
  root.assign(tuples.begin(), tuples.end());
  RunBatch(channel);
  if (stamped) ingress_t0_ = -1;
}

void Executor::DeliverOutputs(const Route& route, const ChannelTuple& tuple) {
  if (sink_ == nullptr) return;
#if RUMOR_METRICS_ENABLED
  if (ingress_t0_ >= 0) {
    // A latency-sampled push is in flight: count what this call delivers
    // and record one latency sample per output (one clock read per call).
    int64_t delivered = 0;
    for (const auto& [slot, stream] : route.output_slots) {
      if (tuple.membership.Test(slot)) {
        sink_->OnOutput(stream, tuple.tuple);
        ++delivered;
      }
    }
    if (delivered > 0) {
      output_latency_.Record(MonotonicNs() - ingress_t0_, delivered);
    }
    return;
  }
#endif
  for (const auto& [slot, stream] : route.output_slots) {
    if (tuple.membership.Test(slot)) sink_->OnOutput(stream, tuple.tuple);
  }
}

void Executor::Dispatch(ChannelId channel, ChannelTuple tuple) {
  // A sink handler may push back into the executor mid-drain or mid-batch.
  // Such re-entrant tuples carry later timestamps than work still in
  // flight, so running them immediately would corrupt window state; they
  // are deferred (in submission order) until the current cascade — the
  // in-flight tuple's full propagation, or the whole batch — completes.
  if (in_run_batch_ || draining_) {
    deferred_.push_back(Task{Task::kChannel, channel, ChannelEnd{},
                             std::move(tuple)});
    return;
  }
  stack_.push_back(Task{Task::kChannel, channel, ChannelEnd{},
                        std::move(tuple)});
  Drain();
}

void Executor::Drain() {
  draining_ = true;
  while (!stack_.empty() || !deferred_.empty()) {
    if (stack_.empty()) {
      // Reversed onto the LIFO stack so deferred tuples pop FIFO, each
      // subtree completing before the next deferred tuple starts.
      for (size_t i = deferred_.size(); i > 0; --i) {
        stack_.push_back(std::move(deferred_[i - 1]));
      }
      deferred_.clear();
    }
    Task task = std::move(stack_.back());
    stack_.pop_back();
    if (task.kind == Task::kChannel) {
      const uint32_t word = delivery_[task.channel];
      Deliver(task.channel, word, task.tuple);
      if ((word & kHasConsumers) == 0) continue;
      const Route& route = routes_[task.channel];
      // Reverse order: LIFO pop then visits consumers first-to-last, each
      // consumer's emissions fully propagating before the next consumer.
      for (size_t i = route.consumers.size(); i > 0; --i) {
        stack_.push_back(Task{Task::kDeliver, kInvalidChannel,
                              route.consumers[i - 1],
                              i == 1 ? std::move(task.tuple) : task.tuple});
      }
    } else {
      ++deliveries_;
      Mop& mop = plan_->mop(task.end.mop);
      mop.CountIn();
      PortEmitter emitter(this, task.end.mop);
#if RUMOR_METRICS_ENABLED
      if (metrics_options_.sample_every_n > 0 && --metrics_countdown_ <= 0) {
        metrics_countdown_ = metrics_options_.sample_every_n;
        const int64_t t0 = MonotonicNs();
        mop.Process(task.end.port, task.tuple, emitter);
        const int64_t dt = MonotonicNs() - t0;
        MopMetrics& m = mop.mutable_metrics();
        m.eval_ns += dt;
        m.eval_hist.Record(dt);
        ++m.sampled_evals;
        ++m.sampled_tuples;
      } else {
        mop.Process(task.end.port, task.tuple, emitter);
      }
#else
      mop.Process(task.end.port, task.tuple, emitter);
#endif
      emitter.Flush();
    }
  }
  draining_ = false;
}

void Executor::RunBatch(ChannelId root) {
  // Each channel has a single producer, and on a batch-safe subgraph every
  // m-op is reached through exactly one input port — so each channel's
  // complete batch is available the moment its producer has run, and a
  // simple stack visits every channel exactly once, in topological order.
  // Callers stage the root batch in channel_buffers_[root].
  in_run_batch_ = true;
  batch_stack_.push_back(root);
  while (!batch_stack_.empty()) {
    ChannelId channel = batch_stack_.back();
    batch_stack_.pop_back();
    // Stable while consumers run: the consumer graph is acyclic and every
    // channel is visited once, so emissions never target `buffer`.
    std::vector<ChannelTuple>& buffer = channel_buffers_[channel];
    const uint32_t word = delivery_[channel];
    if ((word & ~kHasConsumers) != 0) {
      for (const ChannelTuple& t : buffer) Deliver(channel, word, t);
    }
    for (const ChannelEnd& end : routes_[channel].consumers) {
      const int64_t n = static_cast<int64_t>(buffer.size());
      deliveries_ += n;
      Mop& mop = plan_->mop(end.mop);
      mop.CountIn(n);
      mop.CountBatch();
      BatchEmitter emitter(this, end.mop);
#if RUMOR_METRICS_ENABLED
      if (metrics_options_.sample_every_n > 0 && --metrics_countdown_ <= 0) {
        metrics_countdown_ = metrics_options_.sample_every_n;
        const int64_t t0 = MonotonicNs();
        mop.ProcessBatch(end.port, buffer.data(), buffer.size(), emitter);
        const int64_t dt = MonotonicNs() - t0;
        MopMetrics& m = mop.mutable_metrics();
        m.eval_ns += dt;
        m.eval_hist.Record(dt);
        ++m.sampled_evals;
        m.sampled_tuples += n;
      } else {
        mop.ProcessBatch(end.port, buffer.data(), buffer.size(), emitter);
      }
#else
      mop.ProcessBatch(end.port, buffer.data(), buffer.size(), emitter);
#endif
      while (!touched_channels_.empty()) {
        batch_stack_.push_back(touched_channels_.back());
        touched_channels_.pop_back();
      }
    }
    buffer.clear();  // keeps capacity for the next batch
  }
  in_run_batch_ = false;
  // Tuples a sink handler pushed mid-batch were deferred; run them now.
  // (RunBatch never executes under an active Drain — batch pushes arriving
  // mid-drain fall back to the per-tuple path, which defers.)
  if (!deferred_.empty()) Drain();
}

}  // namespace rumor
