#include "api/stream_engine.h"

#include <algorithm>
#include <unordered_map>

#include "common/json_writer.h"
#include "common/snapshot_io.h"
#include "common/str_util.h"
#include "plan/explain.h"
#include "plan/state_snapshot.h"
#include "rules/incremental.h"

namespace rumor {

namespace {
int64_t TickerNowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// The value types a column of `type` accepts at ingress, one bit per
// ValueType tag.
uint8_t AcceptedTypes(ValueType type) {
  auto bit = [](ValueType t) { return 1u << static_cast<int>(t); };
  switch (type) {
    case ValueType::kInt:
    case ValueType::kDouble:
      return bit(ValueType::kInt) | bit(ValueType::kDouble);
    case ValueType::kNull:
      return 0;
    default:
      return bit(type);
  }
}
}  // namespace

// Routes output-stream tuples to the per-query handler. One stream may
// serve several (CSE-merged) queries. A result reads one dense
// StreamId-indexed run {begin, count, delivered} and the run's slice of one
// flat array of query-name pointers. Nothing per query is written per
// result: a query's delivered count is its stream's counter minus the value
// at bind, plus what it carried in from an earlier binding or a restore.
class StreamEngine::HandlerSink : public OutputSink {
 public:
  void Bind(StreamId stream, const std::string& query_name) {
    RUMOR_CHECK(stream >= 0);
    if (static_cast<size_t>(stream) >= runs_.size()) {
      runs_.resize(stream + 1);
      room_.resize(stream + 1, 0);
    }
    auto it = records_.try_emplace(query_name).first;
    Record& rec = it->second;
    RUMOR_CHECK(rec.stream == kInvalidStream)
        << "query '" << query_name << "' is bound twice";
    Run& run = runs_[stream];
    if (run.count == room_[stream]) {
      Reserve(stream, std::max<uint32_t>(1, 2 * run.count));
    }
    // The map's keys are node-stable, so the pointer outlives rehashes.
    names_[run.begin + run.count++] = &it->first;
    ++bound_;
    rec.stream = stream;
    rec.base = run.delivered;
  }
  // Stops routing to `query_name` (RemoveQuery); its count persists and a
  // later Bind of the same name continues it. Touches only its stream's run.
  void Unbind(const std::string& query_name) {
    auto it = records_.find(query_name);
    if (it == records_.end() || it->second.stream == kInvalidStream) return;
    Record& rec = it->second;
    Run& run = runs_[rec.stream];
    auto first = names_.begin() + run.begin;
    auto last = first + run.count;
    auto pos = std::find(first, last, &it->first);
    RUMOR_CHECK(pos != last) << "query '" << query_name << "' lost its route";
    std::copy(pos + 1, last, pos);  // keeps the other queries' bind order
    --run.count;
    --bound_;
    rec.carried += run.delivered - rec.base;
    rec.stream = kInvalidStream;
  }
  void SetHandler(const OutputHandler* handler) { handler_ = handler; }

  void OnOutput(StreamId stream, const Tuple& tuple) override {
    if (static_cast<size_t>(stream) >= runs_.size()) return;
    Run& run = runs_[stream];
    ++run.delivered;
    routed_ += run.count;
    if (run.count == 0 || handler_ == nullptr || !*handler_) return;
    const std::string* const* name = names_.data() + run.begin;
    for (uint32_t i = 0; i < run.count; ++i) (*handler_)(*name[i], tuple);
  }

  int64_t CountFor(const std::string& name) const {
    auto it = records_.find(name);
    if (it == records_.end()) return 0;
    const Record& rec = it->second;
    return rec.carried + (rec.stream == kInvalidStream
                              ? 0
                              : runs_[rec.stream].delivered - rec.base);
  }
  // Restore: sets a query's delivered total to its saved value.
  void SeedCount(const std::string& name, int64_t delivered) {
    const int64_t now = CountFor(name);
    records_[name].carried += delivered - now;
  }
  // Results routed so far (one per query per stream tuple), which the
  // engine publishes as the ticker's outputs; Restore seeds it.
  int64_t routed() const { return routed_; }
  void SeedRouted(int64_t routed) { routed_ = routed; }

 private:
  struct Run {
    uint32_t begin = 0;  // first name of the run in names_
    uint32_t count = 0;  // queries bound to the stream
    int64_t delivered = 0;  // tuples the stream delivered
  };
  struct Record {
    StreamId stream = kInvalidStream;  // bound stream, if any
    int64_t base = 0;     // the stream's delivered count at bind
    int64_t carried = 0;  // delivered before the current binding
  };

  // Gives `stream`'s run room for `room` names: in place when the run ends
  // names_, otherwise by moving it to the end. Repacks names_ first once it
  // is over four times the bound names, so binds cost amortized O(1).
  void Reserve(StreamId stream, uint32_t room) {
    if (names_.size() > 64 && names_.size() > 4 * bound_) Repack();
    Run& run = runs_[stream];
    if (run.begin + room_[stream] != names_.size()) {
      const uint32_t begin = static_cast<uint32_t>(names_.size());
      names_.resize(begin + run.count);
      std::copy_n(names_.begin() + run.begin, run.count,
                  names_.begin() + begin);
      run.begin = begin;
    }
    names_.resize(run.begin + room, nullptr);
    room_[stream] = room;
  }
  void Repack() {
    std::vector<const std::string*> packed;
    packed.reserve(bound_ + 1);
    for (size_t s = 0; s < runs_.size(); ++s) {
      Run& run = runs_[s];
      const uint32_t begin = static_cast<uint32_t>(packed.size());
      packed.insert(packed.end(), names_.begin() + run.begin,
                    names_.begin() + run.begin + run.count);
      run.begin = begin;
      room_[s] = run.count;
    }
    names_ = std::move(packed);
  }

  std::vector<Run> runs_;      // by StreamId
  std::vector<uint32_t> room_;  // by StreamId: names_ slots the run owns
  std::vector<const std::string*> names_;  // runs' slices (keys of records_)
  size_t bound_ = 0;                       // names bound to some stream
  // Every name ever bound, so counts persist across RemoveQuery.
  std::unordered_map<std::string, Record> records_;
  const OutputHandler* handler_ = nullptr;  // set before any OnOutput
  int64_t routed_ = 0;
};

StreamEngine::StreamEngine(OptimizerOptions options)
    : options_(options) {}

StreamEngine::~StreamEngine() { StopMetricsTicker(); }

Status StreamEngine::RegisterSource(const std::string& name, Schema schema,
                                    int sharable_label) {
  if (catalog_.Resolve(name) != nullptr) {
    return Status::AlreadyExists(StrCat("source '", name, "' exists"));
  }
  sources_.push_back({name, schema, sharable_label});
  catalog_.AddSource(name, std::move(schema), sharable_label);
  return Status::OK();
}

Status StreamEngine::SetShardCount(int n) {
  if (n < 1) return Status::InvalidArgument("shard count must be >= 1");
  if (started()) {
    return Status::Internal("SetShardCount must be called before Start()");
  }
  shard_count_ = n;
  return Status::OK();
}

int StreamEngine::FindQuery(const std::string& name) const {
  // Case-insensitive, matching Catalog resolution — otherwise two queries
  // differing only in case would collide in the catalog, and removing one
  // would strip the other's entry.
  auto it = query_index_.find(ToLower(name));
  return it == query_index_.end() ? -1 : it->second;
}

Status StreamEngine::AddQuery(Query query) {
  return AddQueryWithText(std::move(query), "");
}

Status StreamEngine::AddQueryWithText(Query query, std::string text) {
  if (query.root == nullptr) {
    return Status::InvalidArgument("query has no body");
  }
  RUMOR_RETURN_IF_ERROR(CheckQueryTypes(*query.root));
  if (FindQuery(query.name) >= 0) {
    return Status::AlreadyExists(
        StrCat("query '", query.name, "' already exists"));
  }
  // A query under a source's name would hide the source from later
  // queries, and removing it would drop the source's catalog entry.
  bool is_query = false;
  if (catalog_.Resolve(query.name, &is_query) != nullptr && !is_query) {
    return Status::AlreadyExists(
        StrCat("query name '", query.name, "' is a registered source"));
  }
  if (started()) return AddQueryLive(std::move(query), std::move(text));
  CommitQuery(std::move(query), std::move(text));
  return Status::OK();
}

void StreamEngine::CommitQuery(Query query, std::string text) {
  catalog_.AddQuery(query);
  for (const std::string& read : query.reads) ++readers_[ToLower(read)];
  query_index_[ToLower(query.name)] = static_cast<int>(query_slots_.size());
  query_slots_.push_back({std::move(query), std::move(text)});
  ++num_live_queries_;
}

Status StreamEngine::CompileLiveQueries(Plan* plan) const {
  for (const QuerySlot& slot : query_slots_) {
    if (!slot.live()) continue;
    auto compiled = CompileQuery(slot.query, plan);
    if (!compiled.ok()) return compiled.status();
  }
  return Status::OK();
}

Status StreamEngine::AddQueryText(const std::string& rql,
                                  const std::string& name) {
  auto parsed = ParseQuery(rql, catalog_);
  if (!parsed.ok()) return parsed.status();
  Query query = std::move(parsed).value();
  if (!name.empty()) query.name = name;
  return AddQueryWithText(std::move(query), rql);
}

Status StreamEngine::AddScript(const std::string& rql) {
  std::vector<std::string> texts;
  auto parsed = ParseScript(rql, catalog_, &texts);
  if (!parsed.ok()) return parsed.status();
  for (size_t i = 0; i < parsed.value().size(); ++i) {
    RUMOR_RETURN_IF_ERROR(
        AddQueryWithText(std::move(parsed.value()[i]), std::move(texts[i])));
  }
  return Status::OK();
}

Status StreamEngine::AddQueryLive(Query query, std::string text) {
  if (busy()) return Status::Internal("cannot add queries from inside a push");
  // Compile the new query standalone into each replica, rolling back every
  // half-lowered m-op/channel/stream if compilation fails midway, then merge
  // it onto warm shared operators with O(1) probes of the replica's share
  // index, and drop what the merge left dead at the plan's tail.
  std::vector<IncrementalMergeStats> merged(num_replicas());
  const Status added = ForEachReplica(
      [&](int replica, Plan& plan, Executor& exec) -> Status {
        Plan::Marker marker = plan.Mark();
        auto compiled = CompileQuery(query, &plan);
        if (!compiled.ok()) {
          plan.RollbackTo(marker);
          return compiled.status();
        }
        merged[replica] = MergeNewQueryIndexed(
            &plan, share_indexes_[replica].get(), marker.num_mops, options_);
        plan.TrimTail();
        exec.Refresh();
        return Status::OK();
      });
  if (!added.ok()) {
    // A query that reached the replicas but was refused after (a sharded
    // engine would have to route a source's state elsewhere) goes back out.
    if (ActivePlan().OutputStreamOf(query.name).has_value()) {
      RUMOR_CHECK(UnshareQuery(query.name, nullptr).ok());
    }
    return added;
  }
  stats_.dynamic_adds += 1;
  stats_.incremental_cse_merges += merged[0].cse_merges;
  stats_.incremental_attach_merges += merged[0].attach_merges;
  stats_.incremental_rule_merges += merged[0].rule_merges;
  // Sharing-quality fields of stats_ are NOT refreshed here: the refcount
  // walk is O(queries × plan) and this path is latency-critical.
  // CollectMetrics() recomputes them on demand.
  auto out = ActivePlan().OutputStreamOf(query.name);
  RUMOR_CHECK(out.has_value());
  sink_->Bind(*out, query.name);
  RefreshSourceIds();
  CommitQuery(std::move(query), std::move(text));
  return Status::OK();
}

Status StreamEngine::UnshareQuery(const std::string& name, PruneStats* stats) {
  // Tear down exactly what no surviving query reaches, drop the plan's dead
  // tail, and keep the share index current (O(delta)) so a long removal
  // run cannot outgrow the plan's event log between adds.
  return ForEachReplica([&](int replica, Plan& plan, Executor& exec) {
    RUMOR_CHECK(plan.UnmarkOutput(name));
    const PruneStats pruned = PruneUnreachable(&plan);
    plan.TrimTail();
    if (replica == 0 && stats != nullptr) *stats = pruned;
    share_indexes_[replica]->Sync();
    exec.Refresh();
    return Status::OK();
  });
}

Status StreamEngine::RemoveQuery(const std::string& name) {
  int index = FindQuery(name);
  if (index < 0) {
    return Status::NotFound(StrCat("no query named '", name, "'"));
  }
  // The lookup is case-insensitive; the plan and sink know the query by its
  // registered spelling.
  const std::string canonical = query_slots_[index].query.name;
  if (readers_.count(ToLower(canonical)) > 0) {
    // A reader's text names this query, and a checkpoint re-parses it.
    for (const QuerySlot& slot : query_slots_) {
      for (const std::string& read : slot.query.reads) {
        if (EqualsIgnoreCase(read, canonical)) {
          return Status::FailedPrecondition(
              StrCat("query '", canonical, "' is read by query '",
                     slot.query.name, "'"));
        }
      }
    }
  }
  if (started()) {
    if (busy()) {
      return Status::Internal("cannot remove queries from inside a push");
    }
    PruneStats pruned;
    RUMOR_RETURN_IF_ERROR(UnshareQuery(canonical, &pruned));
    sink_->Unbind(canonical);
    stats_.dynamic_removes += 1;
    stats_.pruned_mops += pruned.removed_mops;
    stats_.pruned_members += pruned.deactivated_members;
  }
  for (const std::string& read : query_slots_[index].query.reads) {
    auto it = readers_.find(ToLower(read));
    if (--it->second == 0) readers_.erase(it);
  }
  query_slots_[index] = QuerySlot{};  // tombstone
  --num_live_queries_;
  catalog_.Remove(canonical);
  query_index_.erase(ToLower(canonical));
  // Compact once tombstones outnumber live queries: O(slots) every
  // O(slots) removes. The name index is remapped in place (values only —
  // no rehash of the surviving names).
  const int tombstones =
      static_cast<int>(query_slots_.size()) - num_live_queries_;
  if (tombstones > 16 && tombstones > num_live_queries_) {
    std::vector<int> moved_to(query_slots_.size(), -1);
    int next = 0;
    for (int i = 0; i < static_cast<int>(query_slots_.size()); ++i) {
      if (!query_slots_[i].live()) continue;
      moved_to[i] = next;
      if (i != next) query_slots_[next] = std::move(query_slots_[i]);
      ++next;
    }
    query_slots_.resize(next);
    for (auto& [unused_name, slot] : query_index_) slot = moved_to[slot];
  }
  return Status::OK();
}

Status StreamEngine::Start() {
  if (started()) return Status::Internal("engine already started");
  if (num_live_queries_ == 0) {
    return Status::InvalidArgument("no queries added");
  }
  // Every replica is compiled from the live query list and optimized by the
  // same rules; both passes are deterministic, so replica ids line up.
  PlanFactory build = [this](Plan* plan, OptimizeStats* stats) -> Status {
    RUMOR_RETURN_IF_ERROR(CompileLiveQueries(plan));
    *stats = Optimize(plan, options_);
    return Status::OK();
  };
  sink_ = std::make_unique<HandlerSink>();
  sink_->SetHandler(&handler_);
  if (shard_count_ > 1) {
    // Each worker builds its own replica.
    ShardedExecutor::Options sharded_options;
    sharded_options.num_shards = shard_count_;
    sharded_options.metrics = metrics_options_;
    sharded_ = std::make_unique<ShardedExecutor>(sharded_options,
                                                 std::move(build), sink_.get());
    if (Status st = sharded_->Prepare(); !st.ok()) {
      sharded_.reset();
      sink_.reset();
      return st;
    }
    stats_ = sharded_->optimize_stats();
  } else {
    if (Status st = build(&plan_, &stats_); !st.ok()) {
      plan_ = Plan();
      sink_.reset();
      return st;
    }
    executor_ = std::make_unique<Executor>(&plan_, sink_.get());
    executor_->SetMetricsOptions(metrics_options_);
    executor_->Prepare();
  }
  // One persistent share index per replica, built from its optimized plan
  // on the thread that owns the plan; live adds probe it instead of
  // scanning.
  share_indexes_.resize(num_replicas());
  Status indexed = ForEachReplica([this](int replica, Plan& plan, Executor&) {
    share_indexes_[replica] = std::make_unique<ShareIndex>(&plan);
    return Status::OK();
  });
  RUMOR_CHECK(indexed.ok());
  for (const Plan::OutputDef& def : ActivePlan().outputs()) {
    sink_->Bind(def.stream, def.query_name);
  }
  RefreshSourceIds();
  return Status::OK();
}

const Plan& StreamEngine::ActivePlan() const {
  return sharded_ != nullptr ? sharded_->plan(0) : plan_;
}

int StreamEngine::num_replicas() const {
  return sharded_ != nullptr ? sharded_->num_shards() : 1;
}

bool StreamEngine::busy() const {
  return sharded_ != nullptr ? sharded_->busy() : executor_->busy();
}

Status StreamEngine::ForEachReplica(
    const ShardedExecutor::ShardCommand& step) {
  if (sharded_ != nullptr) return sharded_->MutateShards(step);
  return step(0, plan_, *executor_);
}

void StreamEngine::RefreshSourceIds() {
  const Plan& plan = ActivePlan();
  // The table is keyed on the source set only, and sources are never
  // removed — skip the O(streams) rescan unless a new source appeared
  // (most live adds read already-known sources).
  if (static_cast<int>(source_ids_.size()) == plan.streams().num_sources()) {
    return;
  }
  std::vector<IngressSource> sources;
  for (StreamId s : plan.streams().Sources()) {
    const StreamDef& def = plan.streams().Get(s);
    std::vector<uint8_t> accepts;
    for (const Attribute& attr : def.schema.attributes()) {
      accepts.push_back(AcceptedTypes(attr.type));
    }
    IngressSource src{def.name, s, def.schema, std::move(accepts)};
    for (const IngressSource& known : source_ids_) {
      if (known.name == def.name) src.last_ts = known.last_ts;
    }
    sources.push_back(std::move(src));
  }
  source_ids_ = std::move(sources);
}

Result<StreamId> StreamEngine::Admit(const std::string& source,
                                     std::span<const Tuple> tuples) {
  if (!started()) return Status::Internal("call Start() first");
  IngressSource* src = nullptr;
  for (IngressSource& s : source_ids_) {
    if (s.name == source) {
      src = &s;
      break;
    }
  }
  if (src == nullptr) {
    return Status::NotFound(
        StrCat("source '", source, "' is not read by any query"));
  }
  if (sharded_ != nullptr && sharded_->busy()) {
    return Status::Internal(
        "re-entrant push from an output handler is unsupported when "
        "sharded");
  }
  // The whole batch is checked before any of it is pushed.
  const int arity = src->schema.size();
  const uint8_t* accepts = src->accepts.data();
  Timestamp last = src->last_ts;
  for (const Tuple& t : tuples) {
    if (t.size() != arity) {
      return Status::InvalidArgument(
          StrCat("tuple for source '", source, "' has ", t.size(),
                 " values, expected ", arity));
    }
    const Value* values = t.values().data();
    for (int i = 0; i < arity; ++i) {
      if (((accepts[i] >> static_cast<int>(values[i].type())) & 1) == 0) {
        const Attribute& attr = src->schema.attribute(i);
        return Status::InvalidArgument(
            StrCat("value ", values[i].ToString(), " of type ",
                   ValueTypeName(values[i].type()), " does not fit column '",
                   attr.name, "' (", ValueTypeName(attr.type),
                   ") of source '", source, "'"));
      }
    }
    if (t.ts() < last) {
      return Status::InvalidArgument(
          StrCat("timestamp ", t.ts(), " for source '", source,
                 "' is below its last timestamp ", last));
    }
    last = t.ts();
  }
  src->last_ts = last;
  return src->id;
}

Status StreamEngine::Push(const std::string& source, const Tuple& tuple) {
  auto id = Admit(source, std::span<const Tuple>(&tuple, 1));
  if (!id.ok()) return id.status();
  if (sharded_ != nullptr) {
    sharded_->PushSource(id.value(), tuple);
  } else {
    executor_->PushSource(id.value(), tuple);
  }
  PublishOutputs();
  RUMOR_METRIC(push_calls_.fetch_add(1, std::memory_order_relaxed));
  RUMOR_METRIC(tuples_pushed_.fetch_add(1, std::memory_order_relaxed));
  return Status::OK();
}

Status StreamEngine::PushBatch(const std::string& source,
                               std::span<const Tuple> tuples) {
  auto id = Admit(source, tuples);
  if (!id.ok()) return id.status();
  if (sharded_ != nullptr) {
    sharded_->PushSourceBatch(id.value(), tuples);
  } else {
    executor_->PushSourceBatch(id.value(), tuples);
  }
  PublishOutputs();
  RUMOR_METRIC(push_calls_.fetch_add(1, std::memory_order_relaxed));
  RUMOR_METRIC(tuples_pushed_.fetch_add(
      static_cast<int64_t>(tuples.size()), std::memory_order_relaxed));
  return Status::OK();
}

void StreamEngine::Flush() {
  if (sharded_ != nullptr) sharded_->Flush();
  PublishOutputs();
}

void StreamEngine::PublishOutputs() const {
  if (sink_ == nullptr) return;
  RUMOR_METRIC(outputs_total_.store(sink_->routed(),
                                    std::memory_order_relaxed));
}

// --- durability ---------------------------------------------------------------

Status StreamEngine::Checkpoint(std::string* out) const {
  if (!started()) {
    return Status::Internal("checkpoint requires a started engine");
  }
  if (busy()) return Status::Internal("cannot checkpoint from inside a push");
  for (const QuerySlot& slot : query_slots_) {
    if (slot.live() && slot.text.empty()) {
      return Status::InvalidArgument(
          StrCat("query '", slot.query.name,
                 "' was added as a logical object; checkpoint requires "
                 "queries added from RQL text (AddQueryText/AddScript)"));
    }
  }
  // Deliver every in-flight result first, so the saved counts and totals
  // match the operator state saved below.
  if (sharded_ != nullptr) sharded_->Flush();
  PublishOutputs();

  SnapshotBuilder builder;
  {
    SnapshotWriter w;
    w.U32(static_cast<uint32_t>(num_replicas()));
    w.I64(push_calls_.load(std::memory_order_relaxed));
    w.I64(tuples_pushed_.load(std::memory_order_relaxed));
    w.I64(outputs_total_.load(std::memory_order_relaxed));
    builder.AddSection(SnapshotSection::kEngine, w.Take());
  }
  {
    SnapshotWriter w;
    w.U32(static_cast<uint32_t>(sources_.size()));
    for (const RegisteredSource& src : sources_) {
      w.Str(src.name);
      w.I64(src.sharable_label);
      w.U32(static_cast<uint32_t>(src.schema.size()));
      for (const Attribute& attr : src.schema.attributes()) {
        w.Str(attr.name);
        w.U8(static_cast<uint8_t>(attr.type));
      }
      Timestamp last_ts = std::numeric_limits<Timestamp>::min();
      for (const IngressSource& in : source_ids_) {
        if (in.name == src.name) last_ts = in.last_ts;
      }
      w.I64(last_ts);
    }
    builder.AddSection(SnapshotSection::kSources, w.Take());
  }
  {
    SnapshotWriter w;
    w.U32(static_cast<uint32_t>(num_live_queries_));
    for (const QuerySlot& slot : query_slots_) {
      if (!slot.live()) continue;
      w.Str(slot.query.name);
      w.Str(slot.text);
      w.I64(OutputCount(slot.query.name));
    }
    builder.AddSection(SnapshotSection::kQueries, w.Take());
  }
  // One state section per replica, saved through the per-replica step
  // AddQuery/RemoveQuery use, so checkpoints interleave safely with query
  // churn and pushes. The step only reads the replicas; it is non-const
  // because a sharded engine quiesces its workers to run it.
  std::vector<std::string> payloads(num_replicas());
  RUMOR_RETURN_IF_ERROR(const_cast<StreamEngine*>(this)->ForEachReplica(
      [&](int replica, Plan& plan, Executor&) -> Status {
        auto payload = SavePlanState(plan);
        if (!payload.ok()) return payload.status();
        payloads[replica] = std::move(payload).value();
        return Status::OK();
      }));
  for (std::string& payload : payloads) {
    builder.AddSection(SnapshotSection::kState, std::move(payload));
  }
  *out = builder.Take();
  return Status::OK();
}

Status StreamEngine::CheckpointToFile(const std::string& path) const {
  std::string bytes;
  RUMOR_RETURN_IF_ERROR(Checkpoint(&bytes));
  return WriteFileBytes(path, bytes);
}

Status StreamEngine::Restore(std::string_view snapshot) {
  if (started()) {
    return Status::Internal("restore requires a not-yet-started engine");
  }
  if (num_live_queries_ != 0 || !sources_.empty()) {
    return Status::Internal("restore requires an empty engine");
  }

  // Stage 1: decode and validate the whole snapshot before touching any
  // engine state — a corrupt snapshot must leave the engine fully usable.
  std::vector<SnapshotSectionView> sections;
  uint32_t version = 0;
  RUMOR_RETURN_IF_ERROR(ParseSnapshot(snapshot, &sections, &version));
  const SnapshotSectionView* engine_section = nullptr;
  const SnapshotSectionView* sources_section = nullptr;
  const SnapshotSectionView* queries_section = nullptr;
  std::vector<std::string_view> state_sections;
  for (const SnapshotSectionView& s : sections) {
    switch (s.id) {
      case SnapshotSection::kEngine: engine_section = &s; break;
      case SnapshotSection::kSources: sources_section = &s; break;
      case SnapshotSection::kQueries: queries_section = &s; break;
      case SnapshotSection::kState: state_sections.push_back(s.payload);
        break;
    }
  }
  if (engine_section == nullptr || sources_section == nullptr ||
      queries_section == nullptr || state_sections.empty()) {
    return Status::InvalidArgument("snapshot is missing required sections");
  }

  uint32_t saved_shards = 0;
  int64_t saved_push_calls = 0, saved_tuples = 0, saved_outputs = 0;
  {
    SnapshotReader r(engine_section->payload);
    RUMOR_RETURN_IF_ERROR(r.U32(&saved_shards));
    RUMOR_RETURN_IF_ERROR(r.I64(&saved_push_calls));
    RUMOR_RETURN_IF_ERROR(r.I64(&saved_tuples));
    RUMOR_RETURN_IF_ERROR(r.I64(&saved_outputs));
  }
  if (saved_shards != state_sections.size()) {
    return Status::InvalidArgument(
        StrCat("snapshot declares ", saved_shards, " shards but carries ",
               state_sections.size(), " state sections"));
  }

  std::vector<RegisteredSource> sources;
  // The last timestamp pushed to each source (version 2 on).
  std::vector<Timestamp> last_ts;
  {
    SnapshotReader r(sources_section->payload);
    uint32_t n = 0;
    RUMOR_RETURN_IF_ERROR(r.U32(&n));
    for (uint32_t i = 0; i < n; ++i) {
      RegisteredSource src;
      RUMOR_RETURN_IF_ERROR(r.Str(&src.name));
      int64_t label = 0;
      RUMOR_RETURN_IF_ERROR(r.I64(&label));
      src.sharable_label = static_cast<int>(label);
      uint32_t attrs = 0;
      RUMOR_RETURN_IF_ERROR(r.U32(&attrs));
      std::vector<Attribute> attributes;
      for (uint32_t a = 0; a < attrs; ++a) {
        Attribute attr;
        RUMOR_RETURN_IF_ERROR(r.Str(&attr.name));
        uint8_t type = 0;
        RUMOR_RETURN_IF_ERROR(r.U8(&type));
        if (type > static_cast<uint8_t>(ValueType::kBool)) {
          return Status::InvalidArgument("unknown attribute type");
        }
        attr.type = static_cast<ValueType>(type);
        attributes.push_back(std::move(attr));
      }
      src.schema = Schema(std::move(attributes));
      sources.push_back(std::move(src));
      int64_t ts = std::numeric_limits<Timestamp>::min();
      if (version >= 2) RUMOR_RETURN_IF_ERROR(r.I64(&ts));
      last_ts.push_back(ts);
    }
  }

  struct SavedQuery {
    std::string name;
    std::string text;
    int64_t delivered = 0;
  };
  std::vector<SavedQuery> saved_queries;
  {
    SnapshotReader r(queries_section->payload);
    uint32_t n = 0;
    RUMOR_RETURN_IF_ERROR(r.U32(&n));
    for (uint32_t i = 0; i < n; ++i) {
      SavedQuery q;
      RUMOR_RETURN_IF_ERROR(r.Str(&q.name));
      RUMOR_RETURN_IF_ERROR(r.Str(&q.text));
      RUMOR_RETURN_IF_ERROR(r.I64(&q.delivered));
      saved_queries.push_back(std::move(q));
    }
  }
  if (saved_queries.empty()) {
    return Status::InvalidArgument("snapshot contains no queries");
  }

  std::vector<std::vector<MopState>> shard_states(state_sections.size());
  for (size_t s = 0; s < state_sections.size(); ++s) {
    RUMOR_RETURN_IF_ERROR(
        ParsePlanState(state_sections[s], &shard_states[s]));
  }
  auto merged_or = MergeShardStates(std::move(shard_states));
  if (!merged_or.ok()) return merged_or.status();
  const std::vector<MopState> merged = std::move(merged_or).value();

  // Stage 2: rebuild the engine — sources and query texts, then Start(),
  // whose batch Optimize builds the plan(s) as for a fresh engine (shaped
  // differently from the saved plan where queries were added live).
  // Stage 3: load the merged state image into the fresh plan(s). Each shard
  // replica loads only the state its routes send it (a pinned component's
  // on its shard, keyed state by the hash of its key), so a later
  // checkpoint saves every entry once. A failure in either stage puts the
  // engine back the way Restore found it.
  auto rebuild = [&]() -> Status {
    for (RegisteredSource& src : sources) {
      RUMOR_RETURN_IF_ERROR(
          RegisterSource(src.name, std::move(src.schema), src.sharable_label));
    }
    for (const SavedQuery& q : saved_queries) {
      RUMOR_RETURN_IF_ERROR(AddQueryText(q.text, q.name));
    }
    RUMOR_RETURN_IF_ERROR(Start());
    const ShardPlan* sharding =
        sharded_ != nullptr ? &sharded_->sharding() : nullptr;
    return ForEachReplica([&](int replica, Plan& plan, Executor&) {
      return LoadPlanState(plan, merged, sharding, replica);
    });
  };
  if (Status st = rebuild(); !st.ok()) {
    ResetToFresh();
    return st;
  }

  // Stage 4: carry the observable counters and the ingress order across
  // the crash.
  for (IngressSource& in : source_ids_) {
    for (size_t i = 0; i < sources_.size(); ++i) {
      if (sources_[i].name == in.name) in.last_ts = last_ts[i];
    }
  }
  push_calls_.store(saved_push_calls, std::memory_order_relaxed);
  tuples_pushed_.store(saved_tuples, std::memory_order_relaxed);
  outputs_total_.store(saved_outputs, std::memory_order_relaxed);
  sink_->SeedRouted(saved_outputs);
  for (const SavedQuery& q : saved_queries) {
    sink_->SeedCount(q.name, q.delivered);
  }
  return Status::OK();
}

void StreamEngine::ResetToFresh() {
  share_indexes_.clear();
  sharded_.reset();  // joins the workers while the sink still exists
  executor_.reset();
  sink_.reset();
  plan_ = Plan();
  stats_ = OptimizeStats();
  catalog_ = Catalog();
  query_slots_.clear();
  num_live_queries_ = 0;
  sources_.clear();
  query_index_.clear();
  readers_.clear();
  source_ids_.clear();
}

Status StreamEngine::RestoreFromFile(const std::string& path) {
  std::string bytes;
  RUMOR_RETURN_IF_ERROR(ReadFileBytes(path, &bytes));
  return Restore(bytes);
}

int64_t StreamEngine::OutputCount(const std::string& query_name) const {
  return sink_ == nullptr ? 0 : sink_->CountFor(query_name);
}

std::string StreamEngine::Explain() const {
  if (sharded_ == nullptr) return ExplainPlan(plan_);
  sharded_->Flush();
  return ExplainPlan(sharded_->plan(0)) +
         sharded_->sharding().ToString(sharded_->plan(0));
}

std::string StreamEngine::ExplainAnalyze() const {
  // Sharded: replicas carry identical structure; shard 0's counters stand in
  // (CollectMetrics aggregates across all shards).
  if (sharded_ != nullptr) sharded_->Flush();
  std::string out = rumor::ExplainAnalyze(ActivePlan());
  const LatencyHistogram* latency =
      sharded_ != nullptr
          ? &sharded_->merge_latency()
          : (executor_ != nullptr ? &executor_->output_latency() : nullptr);
  if (latency != nullptr && latency->count() > 0) {
    out += StrCat("latency (ingress->sink, sampled): ", latency->Summary(),
                  "\n");
  }
  const ShareIndex* index =
      share_indexes_.empty() ? nullptr : share_indexes_[0].get();
  if (index != nullptr) {
    const ShareIndex::Stats s = index->GetStats();
    out += StrCat("share index: exact=", s.exact_entries,
                  " member=", s.member_entries,
                  " index_targets=", s.index_target_entries,
                  " sel_singles=", s.sel_single_entries,
                  " agg_targets=", s.agg_target_entries, " bytes≈",
                  s.approx_bytes, "\n");
  }
  return out;
}

namespace {
void FillShareIndexStats(const ShareIndex* index, EngineMetrics* em) {
  if (index == nullptr) return;
  const ShareIndex::Stats s = index->GetStats();
  em->share_index.present = true;
  em->share_index.exact_entries = s.exact_entries;
  em->share_index.member_entries = s.member_entries;
  em->share_index.index_target_entries = s.index_target_entries;
  em->share_index.sel_single_entries = s.sel_single_entries;
  em->share_index.agg_target_entries = s.agg_target_entries;
  em->share_index.posting_entries = s.posting_entries;
  em->share_index.approx_bytes = s.approx_bytes;
}
}  // namespace

EngineMetrics StreamEngine::CollectMetrics() const {
  if (sharded_ != nullptr) sharded_->Flush();
  EngineMetrics em = CollectEngineMetrics(
      ActivePlan(), stats_,
      executor_ != nullptr ? executor_->deliveries() : 0);
  if (sharded_ != nullptr) {
    em.shards = sharded_->num_shards();
    em.shard_rows = sharded_->ShardRows();
    // End-to-end latency: push call to ordered-merge delivery, recorded on
    // the control thread.
    em.latency = sharded_->merge_latency();
    // Per-m-op rows: sum every replica's counters by m-op id. Data-plane
    // counters: add each worker's published snapshot to this (control)
    // thread's own, which pays for the ordered-merge decode.
    int64_t deliveries = 0;
    for (const EngineMetrics::ShardRow& row : em.shard_rows) {
      if (row.shard > 0) AccumulateShardPlan(&em, sharded_->plan(row.shard));
      em.data_plane += row.counters;
      deliveries += row.deliveries;
    }
    em.deliveries = deliveries;
  } else if (executor_ != nullptr) {
    em.latency = executor_->output_latency();
  }
  // Replica 0's share index stands in (replicas stay identical; sharded
  // workers are quiesced by the Flush above).
  FillShareIndexStats(
      share_indexes_.empty() ? nullptr : share_indexes_[0].get(), &em);
  // Only the engine knows live query names and delivered counts; a raw-plan
  // caller gets empty query_rows.
  em.queries = num_queries();
  for (const QuerySlot& slot : query_slots_) {
    if (!slot.live()) continue;
    em.query_rows.push_back({slot.query.name, OutputCount(slot.query.name)});
  }
  return em;
}

void StreamEngine::SetMetricsOptions(const MetricsOptions& options) {
  metrics_options_ = options;
  if (executor_ != nullptr) executor_->SetMetricsOptions(options);
}

void StreamEngine::StartMetricsTicker(std::chrono::milliseconds interval,
                                      size_t history_capacity) {
  StopMetricsTicker();
  {
    std::lock_guard<std::mutex> lock(history_mu_);
    history_cap_ = history_capacity == 0 ? 1 : history_capacity;
  }
  {
    // Under the mutex: the new thread reads ticker_stop_ under ticker_mu_,
    // and an unsynchronized reset here raced a concurrent StopMetricsTicker
    // (the stop flag could be overwritten after the stopper set it, leaving
    // the previous ticker unjoined and spinning at engine destruction).
    std::lock_guard<std::mutex> lock(ticker_mu_);
    ticker_stop_ = false;
  }
  ticker_ = std::thread([this, interval] {
    std::unique_lock<std::mutex> lock(ticker_mu_);
    for (;;) {
      if (ticker_cv_.wait_for(lock, interval,
                              [this] { return ticker_stop_; })) {
        return;
      }
      MetricsTick tick;
      tick.t_ns = TickerNowNs();
      tick.push_calls = push_calls_.load(std::memory_order_relaxed);
      tick.tuples_pushed = tuples_pushed_.load(std::memory_order_relaxed);
      tick.outputs = outputs_total_.load(std::memory_order_relaxed);
      std::lock_guard<std::mutex> hist(history_mu_);
      history_.push_back(tick);
      while (history_.size() > history_cap_) history_.pop_front();
    }
  });
}

void StreamEngine::StopMetricsTicker() {
  {
    std::lock_guard<std::mutex> lock(ticker_mu_);
    ticker_stop_ = true;
  }
  ticker_cv_.notify_all();
  if (ticker_.joinable()) ticker_.join();
}

std::vector<StreamEngine::MetricsTick> StreamEngine::MetricsHistory() const {
  std::lock_guard<std::mutex> lock(history_mu_);
  return {history_.begin(), history_.end()};
}

std::string StreamEngine::MetricsHistoryJson() const {
  JsonWriter w;
  w.BeginObject();
  w.Key("ticks").BeginArray();
  for (const MetricsTick& t : MetricsHistory()) {
    w.BeginObject()
        .KV("t_ns", t.t_ns)
        .KV("push_calls", t.push_calls)
        .KV("tuples_pushed", t.tuples_pushed)
        .KV("outputs", t.outputs)
        .EndObject();
  }
  w.EndArray();
  w.EndObject();
  return w.str();
}

}  // namespace rumor
