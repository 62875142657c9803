// Plan: a DAG of m-ops wired by channels (paper §2.1-§2.2: "a query plan …
// implements all the currently active logical queries").
//
// Structure:
//  * streams — logical stream definitions (StreamRegistry);
//  * channels — each carries >= 1 streams; a plain stream is a capacity-1
//    channel;
//  * m-ops — nodes; each input/output *port* of an m-op binds to a channel;
//  * source channels — capacity-1 channels with no producer m-op, fed by the
//    executor;
//  * outputs — streams marked as query results (the paper names a query's
//    output stream after the query).
//
// M-rules rewrite the plan by replacing a set of m-ops with a target m-op
// and rebinding the affected channel edges (paper §2.3); RemoveMop /
// AddMop / Bind* are the primitives they use. Ids are dense: removed m-ops
// and dead channels stay as tombstones until TrimTail drops a trailing run.
//
// Scale contract (the "millions of standing queries" work): every mutation
// primitive maintains reverse adjacency (channel -> consumers / producer)
// and per-stream lookup tables incrementally, so the structural queries the
// optimizer and executor issue per live AddQuery/RemoveQuery are O(degree),
// not O(plan). Mutations additionally publish PlanEvents into a bounded log
// so derived structures (the optimizer's ShareIndex, the executor's routing
// tables) can stay synchronized without rescanning the plan.
#ifndef RUMOR_PLAN_PLAN_H_
#define RUMOR_PLAN_PLAN_H_

#include <deque>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "mop/mop.h"
#include "stream/channel.h"
#include "stream/stream.h"

namespace rumor {

// A (mop, port) endpoint of a channel edge.
struct ChannelEnd {
  MopId mop = kInvalidMop;
  int port = -1;
};

// One plan mutation, published by the Plan primitives into a bounded log.
// Consumers (ShareIndex, Executor::Refresh) hold a cursor into the log and
// patch themselves from the delta instead of rescanning the plan; a kBulk
// event (or a cursor that fell off the log) forces a full rebuild.
struct PlanEvent {
  enum Kind : uint8_t {
    kBulk,            // wholesale change (rollback): consumers must rebuild
    kMopAdded,        // a = mop
    kMopRemoved,      // a = mop (already torn down when observed)
    kMopGrew,         // a = mop, b = new output port (member), c = channel
    kInputBound,      // a = mop, b = new channel or -1, c = old channel or -1
    kOutputBound,     // a = mop, b = new channel or -1, c = old channel or -1
    kChannelAdded,    // a = channel
    kChannelKilled,   // a = channel
    kSourceBound,     // a = stream, b = its new source channel
    kOutputMarked,    // a = stream
    kOutputUnmarked,  // a = stream
    kOutputRemapped,  // a = from stream, b = to stream
    kMemberReused,    // a = mop, b = member slot redefined in place
    kTailTrimmed,     // a, b, c = m-op, channel and stream counts left
  };
  Kind kind;
  int32_t a = -1;
  int32_t b = -1;
  int32_t c = -1;
};

class Plan {
 public:
  Plan() = default;
  Plan(const Plan&) = delete;
  Plan& operator=(const Plan&) = delete;
  // Moving is for replacing a whole plan (e.g. `plan = Plan()`); executors
  // and indexes over the old plan must be gone first.
  Plan(Plan&&) = default;
  Plan& operator=(Plan&&) = default;

  StreamRegistry& streams() { return streams_; }
  const StreamRegistry& streams() const { return streams_; }

  // --- channels -------------------------------------------------------------
  ChannelId AddChannel(std::vector<StreamId> streams, Schema schema);
  const ChannelDef& channel(ChannelId id) const {
    RUMOR_DCHECK(id >= 0 && id < num_channels());
    return channels_[id];
  }
  int num_channels() const { return static_cast<int>(channels_.size()); }
  // A channel is dead once nothing produces, consumes, or feeds it; dead
  // channels are tombstones (ids stay dense) that the executor skips.
  bool channel_dead(ChannelId id) const {
    RUMOR_DCHECK(id >= 0 && id < num_channels());
    return channel_dead_[id];
  }
  // Drops the trailing tombstoned m-ops, dead channels, and derived streams
  // no channel carries and no output mark names (publishing kTailTrimmed):
  // what a live merge discards sits at the tail, so a live step ending with
  // this leaves no residue. Later adds issue the dropped ids again.
  void TrimTail();
  // The capacity-1 channel of a source stream (created on first use).
  ChannelId SourceChannelOf(StreamId stream);
  std::optional<ChannelId> FindSourceChannel(StreamId stream) const;

  // Convenience: derived stream + capacity-1 channel in one step.
  ChannelId AddDerivedChannel(const std::string& name, Schema schema);

  // Live channels carrying `stream`, in id order (dead channels are
  // filtered out). O(#channels carrying the stream).
  std::vector<ChannelId> ChannelsOfStream(StreamId stream) const;

  // --- m-ops ----------------------------------------------------------------
  MopId AddMop(std::unique_ptr<Mop> mop);
  // Tombstones the m-op, clears its bindings, and garbage-collects channels
  // the removal orphaned (no producer, no consumers, no output stream, not
  // externally fed) so later passes cannot trip on dangling subscriptions.
  void RemoveMop(MopId id);
  bool IsLive(MopId id) const {
    return id >= 0 && id < num_mops() && mops_[id] != nullptr;
  }
  Mop& mop(MopId id) {
    RUMOR_DCHECK(IsLive(id));
    return *mops_[id];
  }
  const Mop& mop(MopId id) const {
    RUMOR_DCHECK(IsLive(id));
    return *mops_[id];
  }
  int num_mops() const { return static_cast<int>(mops_.size()); }
  // Ids of all live m-ops.
  std::vector<MopId> LiveMops() const;

  // --- wiring ---------------------------------------------------------------
  void BindInput(MopId mop, int port, ChannelId channel);
  void BindOutput(MopId mop, int port, ChannelId channel);
  // Binds a freshly grown output port of `mop` (the m-op must already report
  // the larger num_outputs(), e.g. after AttachMember on a warm shared
  // m-op); returns the new port index.
  int AddMopOutputPort(MopId mop, ChannelId channel);
  // Publishes that `mop` reused inactive slot `member` for a new member: no
  // wiring changed, but signature-keyed log consumers must re-key it.
  void NotifyMemberReused(MopId mop, int member);
  ChannelId input_channel(MopId mop, int port) const;
  ChannelId output_channel(MopId mop, int port) const;
  const std::vector<ChannelId>& input_channels(MopId mop) const {
    return mop_inputs_[mop];
  }
  const std::vector<ChannelId>& output_channels(MopId mop) const {
    return mop_outputs_[mop];
  }

  // Consumers of a channel, sorted by (mop, port). O(degree) — the reverse
  // adjacency is maintained incrementally by the wiring primitives.
  std::vector<ChannelEnd> ConsumersOf(ChannelId channel) const;
  // Producer of a channel, or nullopt for source channels. O(1).
  std::optional<ChannelEnd> ProducerOf(ChannelId channel) const;

  // Rebinds every input port reading `from` to read `to` (rule rewiring).
  // O(#consumers of `from`).
  void MoveConsumers(ChannelId from, ChannelId to);
  // Re-points query-output marks from one stream to another (CSE dedup).
  // O(#marks on `from`).
  void RemapOutput(StreamId from, StreamId to);
  // Producer-less channels of capacity > 1 encoding only source streams
  // (created by the channel rule over sharable sources; fed by
  // Executor::PushSource beside each source's own channel, or directly via
  // Executor::PushChannel).
  std::vector<ChannelId> SourceGroupChannels() const;

  // --- outputs ---------------------------------------------------------------
  struct OutputDef {
    StreamId stream;
    std::string query_name;
  };
  void MarkOutput(StreamId stream, std::string query_name);
  // The marks in add order, except that UnmarkOutput moves the last mark
  // into the slot it frees.
  const std::vector<OutputDef>& outputs() const { return outputs_; }
  // Removes the output mark of `query_name`; returns false if absent. Other
  // queries sharing the same stream keep their marks. O(#marks on the
  // stream).
  bool UnmarkOutput(const std::string& query_name);
  // Current output stream of a query (CSE may remap streams after
  // compilation, so use this rather than a compile-time CompiledQuery).
  // O(1).
  std::optional<StreamId> OutputStreamOf(const std::string& query_name) const;
  // Number of output marks on `stream`. O(1).
  int OutputMarksOn(StreamId stream) const;

  // --- dynamic-plan support ---------------------------------------------------
  // Size snapshot for transactional growth: Mark() before compiling a new
  // query into a live plan, RollbackTo() if compilation fails midway so no
  // half-lowered m-ops/channels/streams leak into the running engine.
  struct Marker {
    int num_mops = 0;
    int num_channels = 0;
    int num_streams = 0;
    int num_outputs = 0;
    int num_source_channels = 0;
    int derived_counter = 0;
  };
  Marker Mark() const;
  // Undoes every AddMop/AddChannel/AddDerivedChannel/MarkOutput since
  // `marker`. Only valid while nothing created before the marker was rebound
  // to entities created after it (true for a failed CompileQuery). Publishes
  // a kBulk event (derived structures rebuild).
  void RollbackTo(const Marker& marker);

  // Per-m-op count of queries whose output transitively depends on the m-op
  // (reverse reachability from output streams). O(outputs × cone); prefer
  // ComputeOutputReach for the scale paths that only need none/one/shared.
  std::vector<int> QueryRefCounts() const;

  // How many *distinct* query outputs reach each m-op / channel, saturated
  // at 2: 0 = unreachable from any surviving output (prunable), 1 = serves
  // exactly one query, 2 = shared by two or more. One O(plan + outputs)
  // backward pass over the DAG — this is what RemoveQuery unsharing and the
  // sharing-quality snapshot use instead of the per-query refcount walk.
  struct OutputReach {
    std::vector<uint8_t> mops;      // by MopId
    std::vector<uint8_t> channels;  // by ChannelId
  };
  OutputReach ComputeOutputReach() const;

  // --- mutation log -----------------------------------------------------------
  // Total mutations published so far; a consumer stores this as its cursor.
  uint64_t mutation_seq() const { return event_seq_; }
  // Appends the events in (cursor, mutation_seq()] to *out. Returns false
  // if the log has been compacted past `cursor` — the consumer must rebuild
  // from the plan wholesale and reset its cursor to mutation_seq().
  bool ReadEventsSince(uint64_t cursor, std::vector<PlanEvent>* out) const;

  // --- diagnostics -----------------------------------------------------------
  // Internal consistency: ports fully bound, schemas compatible along
  // edges, DAG (no cycles), adjacency tables in sync. CHECK-fails with a
  // message on violation.
  void Validate() const;
  std::string ToString() const;

 private:
  // True if the channel is externally fed or otherwise must never be
  // collected (source channels, source-group channels). O(1).
  bool ChannelPinned(ChannelId id) const { return channel_pinned_[id]; }
  // Marks `id` dead if orphaned; returns true if it was collected.
  bool MaybeKillChannel(ChannelId id);
  // Drops the m-ops, channels and streams past these counts (TrimTail,
  // RollbackTo), with their rows in every per-id table.
  void Truncate(int mops, int channels, int streams);
  void Emit(PlanEvent::Kind kind, int32_t a, int32_t b = -1, int32_t c = -1);
  // Adds (mop, port) to / drops it from `channel`'s consumer list, in O(1)
  // through the consumer's recorded position (the list keeps no order).
  void AppendConsumer(ChannelId channel, MopId mop, int port);
  void EraseConsumer(ChannelId channel, MopId mop, int port);
  int32_t& InputPos(MopId mop, int port) {
    return input_pos_[input_pos_base_[mop] + port];
  }
  // Recomputes adjacency, pinned flags, stream tables and the output-mark
  // tables from the primary representation (RollbackTo).
  void RebuildDerivedState();

  StreamRegistry streams_;
  std::vector<ChannelDef> channels_;
  std::vector<char> channel_dead_;    // parallel to channels_
  std::vector<char> channel_pinned_;  // parallel to channels_
  std::vector<std::unique_ptr<Mop>> mops_;
  std::vector<std::vector<ChannelId>> mop_inputs_;
  // Position of each bound input port in its channel's consumer list (-1
  // while unbound), flat: m-op m's ports start at input_pos_base_[m].
  std::vector<int32_t> input_pos_base_;  // by MopId
  std::vector<int32_t> input_pos_;
  std::vector<std::vector<ChannelId>> mop_outputs_;
  // Reverse adjacency, maintained by every wiring primitive.
  std::vector<std::vector<ChannelEnd>> channel_consumers_;  // by channel
  std::vector<ChannelEnd> channel_producer_;                // by channel
  // Channels carrying each stream (append-only; shrinks only on rollback
  // and TrimTail). Seeds reachability walks without scanning all channels.
  std::vector<std::vector<ChannelId>> stream_channels_;  // by stream id
  std::vector<std::pair<StreamId, ChannelId>> source_channels_;
  std::vector<OutputDef> outputs_;
  // Indices into outputs_ by query name and by stream (streams without a
  // mark have no entry), kept current by every mark, unmark and remap.
  std::unordered_multimap<std::string, int> output_index_by_name_;
  std::unordered_map<StreamId, std::vector<int>> output_indices_by_stream_;
  int derived_counter_ = 0;

  // Bounded mutation log.
  std::deque<PlanEvent> events_;
  uint64_t event_seq_ = 0;
};

}  // namespace rumor

#endif  // RUMOR_PLAN_PLAN_H_
