#include "plan/plan.h"

#include <algorithm>
#include <sstream>

#include "common/str_util.h"

namespace rumor {
namespace {

// Bounded mutation-log depth. Live AddQuery/RemoveQuery produce a handful of
// events each, so consumers that sync per call stay far inside the window;
// a batch Optimize over a huge plan can overflow it, in which case the
// consumer falls back to one full rebuild (same cost as one plan scan).
constexpr size_t kEventLogCap = 1 << 16;

}  // namespace

void Plan::Emit(PlanEvent::Kind kind, int32_t a, int32_t b, int32_t c) {
  if (events_.size() >= kEventLogCap) events_.pop_front();
  events_.push_back(PlanEvent{kind, a, b, c});
  ++event_seq_;
}

bool Plan::ReadEventsSince(uint64_t cursor,
                           std::vector<PlanEvent>* out) const {
  RUMOR_CHECK(cursor <= event_seq_);
  uint64_t base = event_seq_ - events_.size();
  if (cursor < base) return false;  // compacted past the cursor
  for (size_t i = cursor - base; i < events_.size(); ++i) {
    out->push_back(events_[i]);
  }
  return true;
}

ChannelId Plan::AddChannel(std::vector<StreamId> streams, Schema schema) {
  RUMOR_CHECK(!streams.empty());
  for (StreamId s : streams) {
    RUMOR_CHECK(streams_.SchemaOf(s).CompatibleWith(schema))
        << "channel streams must be union-compatible";
  }
  ChannelId id = static_cast<ChannelId>(channels_.size());
  // Source-group channels (capacity > 1, all-source) are fed by pushes
  // from outside the plan and must never be collected.
  bool pinned = streams.size() > 1;
  for (StreamId s : streams) pinned &= streams_.Get(s).is_source;
  for (StreamId s : streams) {
    if (s >= static_cast<StreamId>(stream_channels_.size())) {
      stream_channels_.resize(s + 1);
    }
    stream_channels_[s].push_back(id);
  }
  channels_.emplace_back(id, std::move(streams), std::move(schema));
  channel_dead_.push_back(0);
  channel_pinned_.push_back(pinned ? 1 : 0);
  channel_consumers_.emplace_back();
  channel_producer_.push_back(ChannelEnd{});
  Emit(PlanEvent::kChannelAdded, id);
  return id;
}

bool Plan::MaybeKillChannel(ChannelId id) {
  if (channel_dead_[id]) return false;
  if (ChannelPinned(id)) return false;
  if (channel_producer_[id].mop != kInvalidMop) return false;
  if (!channel_consumers_[id].empty()) return false;
  for (StreamId s : channels_[id].streams()) {
    if (OutputMarksOn(s) > 0) return false;
  }
  channel_dead_[id] = 1;
  Emit(PlanEvent::kChannelKilled, id);
  return true;
}

void Plan::TrimTail() {
  int mops = num_mops();
  while (mops > 0 && mops_[mops - 1] == nullptr) --mops;
  int channels = num_channels();
  while (channels > 0 && channel_dead_[channels - 1]) --channels;
  // A dropped channel has the highest id, so it ends its streams' lists.
  for (ChannelId c = num_channels() - 1; c >= channels; --c) {
    for (StreamId s : channels_[c].streams()) stream_channels_[s].pop_back();
  }
  // A dead channel in the middle still names its streams, which stay.
  auto droppable = [this](StreamId s) {
    return !streams_.Get(s).is_source && OutputMarksOn(s) == 0 &&
           (s >= static_cast<StreamId>(stream_channels_.size()) ||
            stream_channels_[s].empty());
  };
  int streams = streams_.size();
  while (streams > 0 && droppable(streams - 1)) --streams;
  if (mops == num_mops() && channels == num_channels() &&
      streams == streams_.size()) {
    return;
  }
  Truncate(mops, channels, streams);
  Emit(PlanEvent::kTailTrimmed, mops, channels, streams);
}

void Plan::Truncate(int mops, int channels, int streams) {
  if (mops < num_mops()) input_pos_.resize(input_pos_base_[mops]);
  mops_.resize(mops);
  mop_inputs_.resize(mops);
  mop_outputs_.resize(mops);
  input_pos_base_.resize(mops);
  channels_.resize(channels);
  channel_dead_.resize(channels);
  channel_pinned_.resize(channels);
  channel_consumers_.resize(channels);
  channel_producer_.resize(channels);
  streams_.TruncateTo(streams);
  stream_channels_.resize(std::min<size_t>(stream_channels_.size(), streams));
}

ChannelId Plan::SourceChannelOf(StreamId stream) {
  if (auto existing = FindSourceChannel(stream)) return *existing;
  RUMOR_CHECK(streams_.Get(stream).is_source);
  ChannelId id = AddChannel({stream}, streams_.SchemaOf(stream));
  channel_pinned_[id] = 1;  // fed by Executor::PushSource
  source_channels_.push_back({stream, id});
  Emit(PlanEvent::kSourceBound, stream, id);
  return id;
}

std::optional<ChannelId> Plan::FindSourceChannel(StreamId stream) const {
  for (const auto& [s, c] : source_channels_) {
    if (s == stream) return c;
  }
  return std::nullopt;
}

ChannelId Plan::AddDerivedChannel(const std::string& name, Schema schema) {
  StreamId s = streams_.AddDerived(
      name.empty() ? StrCat("d", derived_counter_++) : name, schema);
  return AddChannel({s}, streams_.SchemaOf(s));
}

std::vector<ChannelId> Plan::ChannelsOfStream(StreamId stream) const {
  std::vector<ChannelId> out;
  if (stream < 0 || stream >= static_cast<StreamId>(stream_channels_.size())) {
    return out;
  }
  for (ChannelId c : stream_channels_[stream]) {
    if (!channel_dead_[c]) out.push_back(c);
  }
  return out;
}

MopId Plan::AddMop(std::unique_ptr<Mop> mop) {
  RUMOR_CHECK(mop != nullptr);
  MopId id = static_cast<MopId>(mops_.size());
  mop->set_id(id);
  mop_inputs_.push_back(
      std::vector<ChannelId>(mop->num_inputs(), kInvalidChannel));
  input_pos_base_.push_back(static_cast<int32_t>(input_pos_.size()));
  input_pos_.resize(input_pos_.size() + mop->num_inputs(), -1);
  mop_outputs_.push_back(
      std::vector<ChannelId>(mop->num_outputs(), kInvalidChannel));
  mops_.push_back(std::move(mop));
  Emit(PlanEvent::kMopAdded, id);
  return id;
}

void Plan::RemoveMop(MopId id) {
  RUMOR_CHECK(IsLive(id));
  std::vector<ChannelId> touched = mop_inputs_[id];
  touched.insert(touched.end(), mop_outputs_[id].begin(),
                 mop_outputs_[id].end());
  for (int p = 0; p < static_cast<int>(mop_inputs_[id].size()); ++p) {
    ChannelId c = mop_inputs_[id][p];
    if (c == kInvalidChannel) continue;
    EraseConsumer(c, id, p);
    Emit(PlanEvent::kInputBound, id, kInvalidChannel, c);
  }
  for (int p = 0; p < static_cast<int>(mop_outputs_[id].size()); ++p) {
    ChannelId c = mop_outputs_[id][p];
    if (c == kInvalidChannel) continue;
    // Rules that reuse a removed m-op's channel bind the replacement's
    // output first, so the producer slot may already belong to it.
    if (channel_producer_[c].mop == id) channel_producer_[c] = ChannelEnd{};
    Emit(PlanEvent::kOutputBound, id, kInvalidChannel, c);
  }
  mops_[id].reset();
  // Release the port vectors, not just empty them: a tombstone in the middle
  // of the id space stays for good (TrimTail drops only the tail).
  mop_inputs_[id] = std::vector<ChannelId>();
  mop_outputs_[id] = std::vector<ChannelId>();
  Emit(PlanEvent::kMopRemoved, id);
  // Collect channels this removal orphaned. Rules that reuse a removed
  // m-op's channels bind the replacement first, so those still have a
  // producer or consumers here and survive.
  for (ChannelId c : touched) {
    if (c != kInvalidChannel) MaybeKillChannel(c);
  }
}

std::vector<MopId> Plan::LiveMops() const {
  std::vector<MopId> out;
  for (int i = 0; i < num_mops(); ++i) {
    if (mops_[i] != nullptr) out.push_back(i);
  }
  return out;
}

void Plan::AppendConsumer(ChannelId channel, MopId mop, int port) {
  auto& list = channel_consumers_[channel];
  InputPos(mop, port) = static_cast<int32_t>(list.size());
  list.push_back({mop, port});
}

void Plan::EraseConsumer(ChannelId channel, MopId mop, int port) {
  auto& list = channel_consumers_[channel];
  const int32_t i = InputPos(mop, port);
  RUMOR_CHECK(i >= 0 && i < static_cast<int32_t>(list.size()) &&
              list[i].mop == mop && list[i].port == port)
      << "consumer (" << mop << "," << port << ") missing from channel "
      << channel;
  // Swap-remove; the moved consumer's position follows it.
  list[i] = list.back();
  InputPos(list[i].mop, list[i].port) = i;
  list.pop_back();
  InputPos(mop, port) = -1;
}

void Plan::BindInput(MopId mop, int port, ChannelId channel) {
  RUMOR_CHECK(IsLive(mop));
  RUMOR_CHECK(port >= 0 && port < static_cast<int>(mop_inputs_[mop].size()));
  RUMOR_CHECK(channel >= 0 && channel < num_channels());
  ChannelId old = mop_inputs_[mop][port];
  if (old == channel) return;
  if (old != kInvalidChannel) EraseConsumer(old, mop, port);
  mop_inputs_[mop][port] = channel;
  AppendConsumer(channel, mop, port);
  Emit(PlanEvent::kInputBound, mop, channel, old);
}

void Plan::BindOutput(MopId mop, int port, ChannelId channel) {
  RUMOR_CHECK(IsLive(mop));
  RUMOR_CHECK(port >= 0 &&
              port < static_cast<int>(mop_outputs_[mop].size()));
  RUMOR_CHECK(channel >= 0 && channel < num_channels());
  ChannelId old = mop_outputs_[mop][port];
  if (old == channel) return;
  if (old != kInvalidChannel && channel_producer_[old].mop == mop &&
      channel_producer_[old].port == port) {
    channel_producer_[old] = ChannelEnd{};
  }
  mop_outputs_[mop][port] = channel;
  channel_producer_[channel] = ChannelEnd{mop, port};
  Emit(PlanEvent::kOutputBound, mop, channel, old);
}

int Plan::AddMopOutputPort(MopId mop, ChannelId channel) {
  RUMOR_CHECK(IsLive(mop));
  RUMOR_CHECK(channel >= 0 && channel < num_channels());
  RUMOR_CHECK(!channel_dead_[channel]);
  mop_outputs_[mop].push_back(channel);
  RUMOR_CHECK(static_cast<int>(mop_outputs_[mop].size()) ==
              mops_[mop]->num_outputs())
      << "grow the m-op's port count (AttachMember) before binding it";
  int port = static_cast<int>(mop_outputs_[mop].size()) - 1;
  channel_producer_[channel] = ChannelEnd{mop, port};
  Emit(PlanEvent::kMopGrew, mop, port, channel);
  return port;
}

void Plan::NotifyMemberReused(MopId mop, int member) {
  RUMOR_CHECK(IsLive(mop));
  Emit(PlanEvent::kMemberReused, mop, member);
}

ChannelId Plan::input_channel(MopId mop, int port) const {
  RUMOR_DCHECK(IsLive(mop));
  return mop_inputs_[mop][port];
}

ChannelId Plan::output_channel(MopId mop, int port) const {
  RUMOR_DCHECK(IsLive(mop));
  return mop_outputs_[mop][port];
}

std::vector<ChannelEnd> Plan::ConsumersOf(ChannelId channel) const {
  std::vector<ChannelEnd> out = channel_consumers_[channel];
  std::sort(out.begin(), out.end(), [](const ChannelEnd& a,
                                       const ChannelEnd& b) {
    return a.mop != b.mop ? a.mop < b.mop : a.port < b.port;
  });
  return out;
}

std::optional<ChannelEnd> Plan::ProducerOf(ChannelId channel) const {
  if (channel_producer_[channel].mop == kInvalidMop) return std::nullopt;
  return channel_producer_[channel];
}

void Plan::MarkOutput(StreamId stream, std::string query_name) {
  const int idx = static_cast<int>(outputs_.size());
  output_index_by_name_.emplace(query_name, idx);
  output_indices_by_stream_[stream].push_back(idx);
  outputs_.push_back({stream, std::move(query_name)});
  Emit(PlanEvent::kOutputMarked, stream);
}

bool Plan::UnmarkOutput(const std::string& query_name) {
  auto named = output_index_by_name_.find(query_name);
  if (named == output_index_by_name_.end()) return false;
  const int idx = named->second;
  output_index_by_name_.erase(named);
  const StreamId stream = outputs_[idx].stream;
  auto on_stream = output_indices_by_stream_.find(stream);
  std::vector<int>& marks = on_stream->second;
  *std::find(marks.begin(), marks.end(), idx) = marks.back();
  marks.pop_back();
  if (marks.empty()) output_indices_by_stream_.erase(on_stream);
  // Swap-remove: the last mark moves into the freed slot, and its two
  // table entries follow it.
  const int last = static_cast<int>(outputs_.size()) - 1;
  if (idx != last) {
    OutputDef& moved = outputs_[idx];
    moved = std::move(outputs_[last]);
    auto it = output_index_by_name_.equal_range(moved.query_name).first;
    while (it->second != last) ++it;
    it->second = idx;
    std::vector<int>& moved_marks = output_indices_by_stream_[moved.stream];
    *std::find(moved_marks.begin(), moved_marks.end(), last) = idx;
  }
  outputs_.pop_back();
  Emit(PlanEvent::kOutputUnmarked, stream);
  return true;
}

std::optional<StreamId> Plan::OutputStreamOf(
    const std::string& query_name) const {
  auto it = output_index_by_name_.find(query_name);
  if (it == output_index_by_name_.end()) return std::nullopt;
  return outputs_[it->second].stream;
}

int Plan::OutputMarksOn(StreamId stream) const {
  auto it = output_indices_by_stream_.find(stream);
  return it == output_indices_by_stream_.end()
             ? 0
             : static_cast<int>(it->second.size());
}

void Plan::RemapOutput(StreamId from, StreamId to) {
  if (from == to) return;
  auto it = output_indices_by_stream_.find(from);
  if (it == output_indices_by_stream_.end()) return;
  std::vector<int> moved = std::move(it->second);
  output_indices_by_stream_.erase(it);
  for (int idx : moved) outputs_[idx].stream = to;
  auto& dst = output_indices_by_stream_[to];
  dst.insert(dst.end(), moved.begin(), moved.end());
  Emit(PlanEvent::kOutputRemapped, from, to);
}

Plan::Marker Plan::Mark() const {
  Marker m;
  m.num_mops = num_mops();
  m.num_channels = num_channels();
  m.num_streams = streams_.size();
  m.num_outputs = static_cast<int>(outputs_.size());
  m.num_source_channels = static_cast<int>(source_channels_.size());
  m.derived_counter = derived_counter_;
  return m;
}

void Plan::RollbackTo(const Marker& marker) {
  RUMOR_CHECK(marker.num_mops <= num_mops());
  RUMOR_CHECK(marker.num_channels <= num_channels());
  Truncate(marker.num_mops, marker.num_channels, marker.num_streams);
  outputs_.resize(marker.num_outputs);
  source_channels_.resize(marker.num_source_channels);
  derived_counter_ = marker.derived_counter;
  RebuildDerivedState();
  Emit(PlanEvent::kBulk, -1);
}

void Plan::RebuildDerivedState() {
  channel_pinned_.assign(channels_.size(), 0);
  channel_consumers_.assign(channels_.size(), {});
  channel_producer_.assign(channels_.size(), ChannelEnd{});
  stream_channels_.assign(streams_.size(), {});
  for (ChannelId c = 0; c < num_channels(); ++c) {
    bool pinned = channels_[c].capacity() > 1;
    for (StreamId s : channels_[c].streams()) {
      pinned &= streams_.Get(s).is_source;
      stream_channels_[s].push_back(c);
    }
    channel_pinned_[c] = pinned ? 1 : 0;
  }
  for (const auto& [s, c] : source_channels_) channel_pinned_[c] = 1;
  for (int m = 0; m < num_mops(); ++m) {
    if (mops_[m] == nullptr) continue;
    for (int p = 0; p < static_cast<int>(mop_inputs_[m].size()); ++p) {
      ChannelId c = mop_inputs_[m][p];
      InputPos(m, p) = -1;
      if (c != kInvalidChannel) AppendConsumer(c, m, p);
    }
    for (int p = 0; p < static_cast<int>(mop_outputs_[m].size()); ++p) {
      ChannelId c = mop_outputs_[m][p];
      if (c != kInvalidChannel) channel_producer_[c] = ChannelEnd{m, p};
    }
  }
  output_index_by_name_.clear();
  output_indices_by_stream_.clear();
  for (int i = 0; i < static_cast<int>(outputs_.size()); ++i) {
    output_index_by_name_.emplace(outputs_[i].query_name, i);
    output_indices_by_stream_[outputs_[i].stream].push_back(i);
  }
}

std::vector<int> Plan::QueryRefCounts() const {
  std::vector<int> refs(num_mops(), 0);
  // Reverse reachability once per *distinct output stream* (after CSE,
  // thousands of duplicate queries share one stream — their reach sets are
  // identical, so each reached m-op just earns the stream's mark count).
  // Stamped visitation reuses the two marker arrays across walks, so the
  // total cost is O(plan + sum of reachable subgraphs), not the former
  // O(outputs x plan) that made CollectMetrics minutes-long at 100k+
  // standing queries.
  std::vector<uint32_t> mop_stamp(num_mops(), 0);
  std::vector<uint32_t> chan_stamp(num_channels(), 0);
  uint32_t stamp = 0;
  std::vector<ChannelId> worklist;
  for (const auto& [stream, indices] : output_indices_by_stream_) {
    const int marks = static_cast<int>(indices.size());
    ++stamp;
    worklist.clear();
    for (ChannelId c : ChannelsOfStream(stream)) {
      chan_stamp[c] = stamp;
      worklist.push_back(c);
    }
    while (!worklist.empty()) {
      ChannelId c = worklist.back();
      worklist.pop_back();
      const ChannelEnd& producer = channel_producer_[c];
      if (producer.mop == kInvalidMop || mop_stamp[producer.mop] == stamp) {
        continue;
      }
      mop_stamp[producer.mop] = stamp;
      refs[producer.mop] += marks;
      for (ChannelId in : mop_inputs_[producer.mop]) {
        if (in != kInvalidChannel && chan_stamp[in] != stamp) {
          chan_stamp[in] = stamp;
          worklist.push_back(in);
        }
      }
    }
  }
  return refs;
}

Plan::OutputReach Plan::ComputeOutputReach() const {
  // Per-entity label: -1 = reached by no output, -2 = by two or more
  // distinct outputs, otherwise the single output-def index reaching it.
  constexpr int32_t kNone = -1;
  constexpr int32_t kMulti = -2;
  auto merge = [](int32_t into, int32_t from) {
    if (from == kNone || into == from) return into;
    return into == kNone ? from : kMulti;
  };
  std::vector<int32_t> chan_label(num_channels(), kNone);
  std::vector<int32_t> mop_label(num_mops(), kNone);
  for (int i = 0; i < static_cast<int>(outputs_.size()); ++i) {
    for (ChannelId c : ChannelsOfStream(outputs_[i].stream)) {
      chan_label[c] = merge(chan_label[c], i);
    }
  }
  // Post-order over mop -> consumer edges puts every m-op after all its
  // downstream consumers, so one sweep propagates labels from each m-op's
  // output channels into its input channels.
  std::vector<MopId> order;
  order.reserve(mops_.size());
  std::vector<char> color(num_mops(), 0);  // 0 white, 1 on stack, 2 done
  // A frame resumes at its output channel `out` and that channel's
  // consumer `next`, so every consumer of every output is visited first.
  struct Frame {
    MopId node;
    size_t out = 0;
    size_t next = 0;
  };
  for (int root = 0; root < num_mops(); ++root) {
    if (mops_[root] == nullptr || color[root] != 0) continue;
    std::vector<Frame> stack = {{root}};
    color[root] = 1;
    while (!stack.empty()) {
      Frame& f = stack.back();
      const std::vector<ChannelId>& outs = mop_outputs_[f.node];
      MopId child = kInvalidMop;
      while (child == kInvalidMop && f.out < outs.size()) {
        const ChannelId c = outs[f.out];
        if (c == kInvalidChannel || f.next >= channel_consumers_[c].size()) {
          ++f.out;
          f.next = 0;
          continue;
        }
        const MopId consumer = channel_consumers_[c][f.next++].mop;
        if (color[consumer] == 0) child = consumer;
      }
      if (child != kInvalidMop) {
        color[child] = 1;
        stack.push_back({child});  // invalidates f
        continue;
      }
      color[f.node] = 2;
      order.push_back(f.node);
      stack.pop_back();
    }
  }
  for (MopId m : order) {
    int32_t label = kNone;
    for (ChannelId c : mop_outputs_[m]) {
      if (c != kInvalidChannel) label = merge(label, chan_label[c]);
    }
    mop_label[m] = label;
    if (label == kNone) continue;
    for (ChannelId c : mop_inputs_[m]) {
      if (c != kInvalidChannel) chan_label[c] = merge(chan_label[c], label);
    }
  }
  OutputReach reach;
  auto saturate = [](int32_t label) -> uint8_t {
    return label == kNone ? 0 : (label == kMulti ? 2 : 1);
  };
  reach.mops.resize(mop_label.size());
  reach.channels.resize(chan_label.size());
  for (size_t i = 0; i < mop_label.size(); ++i) {
    reach.mops[i] = saturate(mop_label[i]);
  }
  for (size_t i = 0; i < chan_label.size(); ++i) {
    reach.channels[i] = saturate(chan_label[i]);
  }
  return reach;
}

void Plan::MoveConsumers(ChannelId from, ChannelId to) {
  if (from == to) return;
  std::vector<ChannelEnd> moved;
  moved.swap(channel_consumers_[from]);
  for (const ChannelEnd& end : moved) {
    mop_inputs_[end.mop][end.port] = to;
    AppendConsumer(to, end.mop, end.port);
    Emit(PlanEvent::kInputBound, end.mop, to, from);
  }
}

std::vector<ChannelId> Plan::SourceGroupChannels() const {
  std::vector<ChannelId> out;
  for (ChannelId c = 0; c < num_channels(); ++c) {
    if (channels_[c].capacity() <= 1) continue;
    if (channel_producer_[c].mop != kInvalidMop) continue;
    bool all_sources = true;
    for (StreamId s : channels_[c].streams()) {
      all_sources &= streams_.Get(s).is_source;
    }
    if (all_sources) out.push_back(c);
  }
  return out;
}

void Plan::Validate() const {
  for (int m = 0; m < num_mops(); ++m) {
    if (mops_[m] == nullptr) continue;
    RUMOR_CHECK(static_cast<int>(mop_inputs_[m].size()) ==
                mops_[m]->num_inputs())
        << mops_[m]->name() << " input port count drifted";
    RUMOR_CHECK(static_cast<int>(mop_outputs_[m].size()) ==
                mops_[m]->num_outputs())
        << mops_[m]->name() << " output port count drifted";
    for (size_t p = 0; p < mop_inputs_[m].size(); ++p) {
      ChannelId c = mop_inputs_[m][p];
      RUMOR_CHECK(c != kInvalidChannel)
          << mops_[m]->name() << " input port " << p << " unbound";
      RUMOR_CHECK(c >= 0 && c < num_channels())
          << mops_[m]->name() << " input port " << p << " out of range";
      RUMOR_CHECK(!channel_dead_[c])
          << mops_[m]->name() << " reads dead channel " << c;
    }
    for (size_t p = 0; p < mop_outputs_[m].size(); ++p) {
      ChannelId c = mop_outputs_[m][p];
      RUMOR_CHECK(c != kInvalidChannel)
          << mops_[m]->name() << " output port " << p << " unbound";
      RUMOR_CHECK(c >= 0 && c < num_channels())
          << mops_[m]->name() << " output port " << p << " out of range";
      RUMOR_CHECK(!channel_dead_[c])
          << mops_[m]->name() << " writes dead channel " << c;
    }
  }
  // Every query output stream must still be carried by some live channel.
  for (const OutputDef& def : outputs_) {
    bool carried = false;
    for (ChannelId c : ChannelsOfStream(def.stream)) {
      carried |= !channel_dead_[c];
    }
    RUMOR_CHECK(carried) << "output stream of query '" << def.query_name
                         << "' is not carried by any live channel";
  }
  // The stream table indexes every mark exactly once, under its own stream,
  // and the name table holds one entry per mark.
  {
    std::vector<char> seen(outputs_.size(), 0);
    for (const auto& [stream, indices] : output_indices_by_stream_) {
      for (int i : indices) {
        RUMOR_CHECK(outputs_[i].stream == stream && !seen[i])
            << "output stream table drifted at stream " << stream;
        seen[i] = 1;
      }
    }
    RUMOR_CHECK(std::find(seen.begin(), seen.end(), 0) == seen.end() &&
                output_index_by_name_.size() == outputs_.size())
        << "output tables miss a mark";
  }
  // Each channel has at most one producer port, dead channels are fully
  // unwired, and the incrementally maintained adjacency matches a fresh
  // scan of the port bindings.
  std::vector<int> producers(channels_.size(), 0);
  std::vector<std::vector<ChannelEnd>> expect_consumers(channels_.size());
  for (int m = 0; m < num_mops(); ++m) {
    if (mops_[m] == nullptr) continue;
    for (ChannelId c : mop_outputs_[m]) ++producers[c];
    for (int p = 0; p < static_cast<int>(mop_inputs_[m].size()); ++p) {
      expect_consumers[mop_inputs_[m][p]].push_back({m, p});
    }
  }
  for (size_t c = 0; c < channels_.size(); ++c) {
    RUMOR_CHECK(producers[c] <= 1)
        << "channel " << c << " has " << producers[c] << " producers";
  }
  for (int m = 0; m < num_mops(); ++m) {
    if (mops_[m] == nullptr) continue;
    for (int p = 0; p < static_cast<int>(mop_outputs_[m].size()); ++p) {
      ChannelId c = mop_outputs_[m][p];
      RUMOR_CHECK(channel_producer_[c].mop == m &&
                  channel_producer_[c].port == p)
          << "producer adjacency drifted for channel " << c;
    }
  }
  auto end_less = [](const ChannelEnd& a, const ChannelEnd& b) {
    return a.mop != b.mop ? a.mop < b.mop : a.port < b.port;
  };
  for (size_t c = 0; c < channels_.size(); ++c) {
    RUMOR_CHECK(!channel_dead_[c] || producers[c] == 0)
        << "dead channel " << c << " has a producer";
    RUMOR_CHECK(producers[c] > 0 || channel_producer_[c].mop == kInvalidMop)
        << "stale producer adjacency for channel " << c;
    std::vector<ChannelEnd> got = channel_consumers_[c];
    std::sort(got.begin(), got.end(), end_less);
    std::sort(expect_consumers[c].begin(), expect_consumers[c].end(),
              end_less);
    RUMOR_CHECK(got.size() == expect_consumers[c].size())
        << "consumer adjacency drifted for channel " << c;
    for (size_t i = 0; i < got.size(); ++i) {
      RUMOR_CHECK(got[i].mop == expect_consumers[c][i].mop &&
                  got[i].port == expect_consumers[c][i].port)
          << "consumer adjacency drifted for channel " << c;
    }
    for (size_t i = 0; i < channel_consumers_[c].size(); ++i) {
      const ChannelEnd& end = channel_consumers_[c][i];
      RUMOR_CHECK(input_pos_[input_pos_base_[end.mop] + end.port] ==
                  static_cast<int>(i))
          << "consumer position drifted for channel " << c;
    }
  }
  // Acyclicity via DFS over mop -> consumer edges.
  enum { kWhite, kGrey, kBlack };
  std::vector<int> color(num_mops(), kWhite);
  for (int root = 0; root < num_mops(); ++root) {
    if (mops_[root] == nullptr || color[root] != kWhite) continue;
    std::vector<std::pair<MopId, size_t>> stack = {{root, 0}};
    color[root] = kGrey;
    while (!stack.empty()) {
      auto& [node, idx] = stack.back();
      // Flatten (output port, consumer) into one successor index.
      MopId next = kInvalidMop;
      size_t skipped = 0;
      for (ChannelId c : mop_outputs_[node]) {
        const auto& ends = channel_consumers_[c];
        if (idx - skipped < ends.size()) {
          next = ends[idx - skipped].mop;
          break;
        }
        skipped += ends.size();
      }
      if (next != kInvalidMop) {
        ++idx;
        RUMOR_CHECK(color[next] != kGrey) << "plan contains a cycle";
        if (color[next] == kWhite) {
          color[next] = kGrey;
          stack.push_back({next, 0});
        }
      } else {
        color[node] = kBlack;
        stack.pop_back();
      }
    }
  }
}

std::string Plan::ToString() const {
  std::ostringstream os;
  os << "Plan{\n";
  for (int m = 0; m < num_mops(); ++m) {
    if (mops_[m] == nullptr) continue;
    os << "  " << mops_[m]->name() << " in=[";
    for (size_t p = 0; p < mop_inputs_[m].size(); ++p) {
      if (p) os << ",";
      os << mop_inputs_[m][p];
    }
    os << "] out=[";
    for (size_t p = 0; p < mop_outputs_[m].size(); ++p) {
      if (p) os << ",";
      os << mop_outputs_[m][p];
    }
    os << "]\n";
  }
  for (const ChannelDef& c : channels_) {
    os << "  " << c.ToString() << "\n";
  }
  for (const OutputDef& o : outputs_) {
    os << "  output " << o.query_name << " <- stream " << o.stream << "\n";
  }
  os << "}";
  return os.str();
}

}  // namespace rumor
