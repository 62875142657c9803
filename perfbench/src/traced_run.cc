// The traced run: the workload once more with the same seed, with spans
// (name, start, end, parent) recorded around the benchmark's own calls into
// each module's public functions. Nothing inside the engine is timed.
//
// Data plane: three passes over identical inputs, interleaved chunk by chunk
// so that host drift hits all three alike:
//   A  StreamEngine::Push/PushBatch                             api.push
//   B  a plan built with CompileQueries, ShareIndex and Optimize, pushed
//      through Executor::PushSource/PushSourceBatch into a
//      CountingSink                                              plan.executor.push
//   C  a third such plan whose source-fed m-ops are called directly through
//      Mop::Process/ProcessBatch with a counting emitter        mop.<kind>
// api = A - B, plan.executor = B - C and mop.<kind> = C per m-op kind, so
// the data-plane self times add up to pass A's push time.
//
// Control plane: set-up is replayed as ParseQuery, CompileQueries, Optimize
// and Executor::Prepare; each live add of query_churn as ParseQuery,
// Plan::Mark + CompileQuery, MergeNewQueryIndexed and Executor::Refresh;
// each remove as Plan::UnmarkOutput + PruneUnreachable, ShareIndex::Sync and
// Executor::Refresh; checkpoint and restore (window_agg, query_churn) as
// SavePlanState, ParsePlanState and LoadPlanState. Each api.*_overhead
// metric is the StreamEngine call minus those children. A layer that does
// not run on a workload reads 0 with 0 samples.
#include <cstdio>
#include <cstring>

#include "common/str_util.h"
#include "plan/compile.h"
#include "plan/engine_metrics.h"
#include "plan/executor.h"
#include "plan/state_snapshot.h"
#include "query/parser.h"
#include "rules/incremental.h"
#include "rules/rule_engine.h"
#include "rules/share_index.h"
#include "runs.h"

namespace perfbench {

using rumor::StrCat;

namespace {

constexpr int64_t kNsPerS = 1000000000;
constexpr double kMiB = 1024.0 * 1024.0;

// M-op kinds the trace separates; the shared and channel variants of an
// operator count as its kind.
enum Kind { kIndex, kAggregate, kJoin, kSequence, kIterate, kOther, kNumKinds };
const char* const kKindName[kNumKinds] = {
    "mop.predicate_index", "mop.aggregate", "mop.join",
    "mop.sequence",        "mop.iterate",   "mop.other"};

Kind KindOf(rumor::MopType t) {
  using rumor::MopType;
  switch (t) {
    case MopType::kPredicateIndex: return kIndex;
    case MopType::kAggregate:
    case MopType::kSharedAggregate:
    case MopType::kFragmentAggregate: return kAggregate;
    case MopType::kJoin:
    case MopType::kSharedJoin:
    case MopType::kPrecisionJoin: return kJoin;
    case MopType::kSequence:
    case MopType::kSharedSequence:
    case MopType::kChannelSequence: return kSequence;
    case MopType::kIterate:
    case MopType::kSharedIterate:
    case MopType::kChannelIterate: return kIterate;
    default: return kOther;
  }
}

// Kind of an EngineMetrics row, whose type is a MopTypeName string.
Kind KindOfName(const char* name) {
  for (int t = 0; t <= static_cast<int>(rumor::MopType::kZip); ++t) {
    const auto type = static_cast<rumor::MopType>(t);
    if (std::strcmp(rumor::MopTypeName(type), name) == 0) return KindOf(type);
  }
  return kOther;
}

template <typename Fn>
int64_t Timed(SpanRecorder* rec, const char* name, Fn&& fn) {
  const int id = rec->Begin(name);
  fn();
  return rec->End(id);
}

class DropEmitter : public rumor::Emitter {
 public:
  void Emit(int, rumor::ChannelTuple) override { ++emitted_; }
  int64_t emitted() const { return emitted_; }

 private:
  int64_t emitted_ = 0;
};

// A plan run without the StreamEngine: pass B (with an executor) or pass C
// (source-fed m-ops called directly).
class PlanPass {
 public:
  PlanPass(const Workload& w, bool with_executor)
      : w_(w), with_executor_(with_executor) {}

  // Compiles, optimizes and prepares `queries`, with a span per step.
  rumor::Status Build(const std::vector<rumor::Query>& queries,
                      SpanRecorder* rec, int64_t* compile_ns,
                      int64_t* optimize_ns, int64_t* prepare_ns) {
    rumor::Status st;
    *compile_ns = Timed(rec, "plan.compile", [&] {
      auto compiled = rumor::CompileQueries(queries, &plan_);
      if (!compiled.ok()) st = compiled.status();
    });
    RUMOR_RETURN_IF_ERROR(st);
    *optimize_ns = Timed(rec, "rules.optimize", [&] {
      index_ = std::make_unique<rumor::ShareIndex>(&plan_);
      rumor::Optimize(&plan_, rumor::OptimizerOptions(), index_.get());
    });
    *prepare_ns = Timed(rec, "plan.executor.prepare", [&] {
      if (with_executor_) {
        exec_ = std::make_unique<rumor::Executor>(&plan_, &sink_);
        exec_->Prepare();
      }
    });
    for (const SourceDef& s : w_.sources) {
      rumor::StreamId id = rumor::kInvalidStream;
      for (rumor::StreamId sid : plan_.streams().Sources()) {
        if (plan_.streams().Get(sid).name == s.name) id = sid;
      }
      if (id == rumor::kInvalidStream) {
        return rumor::Status::NotFound(StrCat("source ", s.name, " unread"));
      }
      source_ids_.push_back(id);
    }
    RefreshConsumers();
    return rumor::Status::OK();
  }

  // The incremental add of StreamEngine::AddQuery, step by step.
  rumor::Status Add(const rumor::Query& q, SpanRecorder* rec,
                    int64_t* compile_ns, int64_t* merge_ns,
                    int64_t* refresh_ns, bool* shared) {
    rumor::Status st;
    rumor::Plan::Marker marker;
    *compile_ns = Timed(rec, "plan.compile", [&] {
      marker = plan_.Mark();
      auto compiled = rumor::CompileQuery(q, &plan_);
      if (!compiled.ok()) {
        plan_.RollbackTo(marker);
        st = compiled.status();
      }
    });
    RUMOR_RETURN_IF_ERROR(st);
    *merge_ns = Timed(rec, "rules.merge", [&] {
      *shared = rumor::MergeNewQueryIndexed(&plan_, index_.get(),
                                            marker.num_mops,
                                            rumor::OptimizerOptions())
                    .total() > 0;
    });
    *refresh_ns = Timed(rec, "plan.executor.refresh", [&] {
      if (with_executor_) exec_->Refresh();
    });
    RefreshConsumers();
    return rumor::Status::OK();
  }

  // The unsharing remove of StreamEngine::RemoveQuery, step by step.
  rumor::Status Remove(const std::string& name, SpanRecorder* rec,
                       int64_t* prune_ns, int64_t* sync_ns,
                       int64_t* refresh_ns) {
    bool found = false;
    *prune_ns = Timed(rec, "rules.prune", [&] {
      found = plan_.UnmarkOutput(name);
      if (found) rumor::PruneUnreachable(&plan_);
    });
    if (!found) return rumor::Status::NotFound(StrCat("no output ", name));
    *sync_ns = Timed(rec, "rules.index_sync", [&] { index_->Sync(); });
    *refresh_ns = Timed(rec, "plan.executor.refresh", [&] {
      if (with_executor_) exec_->Refresh();
    });
    RefreshConsumers();
    return rumor::Status::OK();
  }

  // Pass B: the chunk through the executor, in the workload's call pattern.
  void PushExecutor(const Chunk& c) {
    for (size_t i = 0; i < c.size();) {
      const size_t len = std::min<size_t>(w_.batch, c.size() - i);
      const rumor::StreamId sid = source_ids_[c.source[i]];
      if (len == 1) {
        exec_->PushSource(sid, c.tuples[i]);
      } else {
        exec_->PushSourceBatch(
            sid, std::span<const rumor::Tuple>(c.tuples.data() + i, len));
      }
      i += len;
    }
  }

  // Pass C: the chunk straight into the source-fed m-ops, one m-op kind
  // after another under one span per kind (m-ops fed only by sources do not
  // interact, so each still sees its own inputs in order).
  void PushMops(const Chunk& c, SpanRecorder* rec) {
    // Channel tuples are the executor's ingress work: built outside the
    // m-op spans, so their cost stays in plan.executor.
    cts_.clear();
    for (const rumor::Tuple& t : c.tuples) {
      cts_.push_back(rumor::ChannelTuple{t, rumor::BitVector::Singleton(0, 1)});
    }
    // Every kind gets its span, so a kind the plan lacks reads the cost of
    // this loop alone rather than a constant 0.
    for (int k = 0; k < kNumKinds; ++k) {
      Timed(rec, kKindName[k], [&] {
        for (size_t i = 0; i < c.size();) {
          const size_t len = std::min<size_t>(w_.batch, c.size() - i);
          for (const Consumer& con : consumers_[c.source[i]]) {
            if (con.kind != k) continue;
            if (len == 1) {
              con.mop->Process(con.port, cts_[i], emitter_);
            } else {
              con.mop->ProcessBatch(con.port, cts_.data() + i, len, emitter_);
            }
          }
          i += len;
        }
      });
    }
  }

  rumor::Plan& plan() { return plan_; }
  const rumor::CountingSink& sink() const { return sink_; }
  int64_t emitted() const { return emitter_.emitted(); }
  // Live m-ops that read no source directly (pass C cannot drive them).
  int unfed_mops() const { return unfed_mops_; }

 private:
  struct Consumer {
    rumor::Mop* mop;
    int port;
    Kind kind;
  };

  void RefreshConsumers() {
    if (with_executor_) return;
    consumers_.assign(source_ids_.size(), {});
    std::vector<char> fed(plan_.num_mops(), 0);
    for (size_t k = 0; k < source_ids_.size(); ++k) {
      auto ch = plan_.FindSourceChannel(source_ids_[k]);
      if (!ch.has_value()) continue;
      for (const rumor::ChannelEnd& e : plan_.ConsumersOf(*ch)) {
        rumor::Mop& mop = plan_.mop(e.mop);
        const Kind kind = KindOf(mop.type());
        consumers_[k].push_back({&mop, e.port, kind});
        fed[e.mop] = 1;
      }
    }
    unfed_mops_ = 0;
    for (rumor::MopId id : plan_.LiveMops()) unfed_mops_ += fed[id] ? 0 : 1;
  }

  const Workload& w_;
  bool with_executor_;
  rumor::Plan plan_;
  std::unique_ptr<rumor::ShareIndex> index_;
  rumor::CountingSink sink_;
  std::unique_ptr<rumor::Executor> exec_;
  std::vector<rumor::StreamId> source_ids_;  // by workload source index
  std::vector<std::vector<Consumer>> consumers_;
  int unfed_mops_ = 0;
  std::vector<rumor::ChannelTuple> cts_;
  DropEmitter emitter_;
};

// Per-operation sums of the control-plane replay.
struct ControlTimes {
  int64_t parse_ns = 0, compile_ns = 0, merge_ns = 0, prune_ns = 0,
          sync_ns = 0, refresh_ns = 0, api_add_ns = 0, api_remove_ns = 0;
  int64_t parses = 0, compiles = 0, adds = 0, shared_adds = 0, removes = 0,
          refreshes = 0;
};

double Per(double total, int64_t n) {
  return n > 0 ? total / static_cast<double>(n) : 0.0;
}

}  // namespace

TracedResult RunTraced(const Workload& w, const Options& o,
                       const PlainResult& plain) {
  TracedResult r;
  Tally& tally = r.tally;
  SpanRecorder rec;
  const int64_t budget_ns = static_cast<int64_t>(o.seconds * kNsPerS);

  rumor::Catalog catalog;
  for (const SourceDef& s : w.sources) catalog.AddSource(s.name, s.schema);
  auto parse = [&](const std::string& text, const std::string& name,
                   rumor::Query* out) {
    rumor::Status st;
    const int64_t ns = Timed(&rec, "query.parse", [&] {
      auto q = rumor::ParseQuery(text, catalog);
      if (q.ok()) {
        *out = std::move(q).value();
        out->name = name;
      } else {
        st = q.status();
      }
    });
    tally.Check(st, "parse");
    return ns;
  };

  // --- set-up ----------------------------------------------------------------
  Harness a;
  const int64_t api_setup_ns = Timed(&rec, "api.setup", [&] {
    tally.Check(a.Setup(w, w.names, w.texts), "setup");
  });
  ControlTimes ct;
  int64_t setup_parse_ns = 0, setup_compile_ns = 0, optimize_ns = 0,
          prepare_ns = 0, unused = 0;
  std::vector<rumor::Query> live_queries(w.names.size());
  PlanPass b(w, true), c(w, false);
  Timed(&rec, "replay.setup", [&] {
    for (size_t i = 0; i < w.names.size(); ++i) {
      setup_parse_ns += parse(w.texts[i], w.names[i], &live_queries[i]);
    }
    tally.Check(b.Build(live_queries, &rec, &setup_compile_ns, &optimize_ns,
                        &prepare_ns),
                "replay setup");
  });
  {
    SpanRecorder untimed;
    tally.Check(c.Build(live_queries, &untimed, &unused, &unused, &unused),
                "replay setup");
  }
  ct.parses += static_cast<int64_t>(w.names.size());
  ct.compiles += static_cast<int64_t>(w.names.size());
  ct.parse_ns += setup_parse_ns;
  ct.compile_ns += setup_compile_ns;
  if (c.unfed_mops() > 0) {
    std::printf("note: %d m-ops read no source; pass C cannot drive them, "
                "their time stays in plan.executor\n",
                c.unfed_mops());
  }

  // --- warm-up prefix (untimed), digested on pass A ---------------------------
  std::unique_ptr<EventGen> gen = w.make_events();
  Chunk chunk;
  gen->Next(w.warmup_events, &chunk);
  {
    DigestMap digests;
    a.set_digests(&digests);
    a.Push(w, chunk, &tally);
    a.set_digests(nullptr);
    r.digest_hash = HashDigests(w.names, digests);
    tally.Check(r.digest_hash == plain.digest_hash
                    ? rumor::Status::OK()
                    : rumor::Status::Internal(
                          "traced warm-up digests differ from the untraced "
                          "run"),
                "traced digests");
  }
  SpanRecorder untimed;  // spans of bookkeeping outside the metrics
  b.PushExecutor(chunk);
  c.PushMops(chunk, &untimed);

  // --- query_churn's live add / remove on A, replayed on B and C -------------
  rumor::Rng add_rng(SubSeed(o.seed, 3));
  rumor::Rng pick_rng(SubSeed(o.seed, 4));
  int64_t next_query = static_cast<int64_t>(w.names.size());
  std::vector<std::string> live_names = w.names, live_texts = w.texts;
  auto add_one = [&] {
    std::string text = w.make_query(add_rng, next_query);
    std::string name = StrCat("n", next_query++);
    ct.api_add_ns += Timed(&rec, "api.add", [&] {
      tally.Check(a.engine().AddQueryText(text, name), "add");
    });
    rumor::Query q;
    int64_t compile = 0, merge = 0, refresh = 0;
    bool shared = false;
    Timed(&rec, "replay.add", [&] {
      ct.parse_ns += parse(text, name, &q);
      tally.Check(b.Add(q, &rec, &compile, &merge, &refresh, &shared),
                  "replay add");
    });
    int64_t x = 0;
    bool y = false;
    tally.Check(c.Add(q, &untimed, &x, &x, &x, &y), "replay add");
    ++ct.parses;
    ++ct.compiles;
    ++ct.adds;
    ++ct.refreshes;
    ct.compile_ns += compile;
    ct.merge_ns += merge;
    ct.refresh_ns += refresh;
    ct.shared_adds += shared ? 1 : 0;
    live_names.push_back(name);
    live_texts.push_back(text);
    live_queries.push_back(std::move(q));
  };
  auto remove_one = [&] {
    const size_t i = static_cast<size_t>(pick_rng.UniformInt(
        0, static_cast<int64_t>(live_names.size()) - 1));
    const std::string name = live_names[i];
    live_names[i] = live_names.back();
    live_texts[i] = live_texts.back();
    live_queries[i] = std::move(live_queries.back());
    live_names.pop_back();
    live_texts.pop_back();
    live_queries.pop_back();
    ct.api_remove_ns += Timed(&rec, "api.remove", [&] {
      tally.Check(a.engine().RemoveQuery(name), "remove");
    });
    int64_t prune = 0, sync = 0, refresh = 0;
    Timed(&rec, "replay.remove", [&] {
      tally.Check(b.Remove(name, &rec, &prune, &sync, &refresh),
                  "replay remove");
    });
    int64_t x = 0;
    tally.Check(c.Remove(name, &untimed, &x, &x, &x), "replay remove");
    ++ct.removes;
    ++ct.refreshes;
    ct.prune_ns += prune;
    ct.sync_ns += sync;
    ct.refresh_ns += refresh;
  };

  // --- data plane: A, B, C over each chunk ------------------------------------
  const rumor::EngineMetrics before = a.engine().CollectMetrics();
  int64_t events = 0, outputs = 0, chunks = 0;
  int64_t fused = 0, typed = 0, generic = 0, arena_req = 0, arena_heap = 0;
  const int64_t b_outputs_before = b.sink().total();
  const int64_t c_emitted_before = c.emitted();
  const int64_t t_data = NowNs();
  while (NowNs() - t_data < budget_ns) {
    gen->Next(w.churn ? w.batch : kChunkEvents, &chunk);
    if (w.churn) add_one();
    auto pass_a = [&] {
      const rumor::DataPlaneCounters c0 = rumor::DataPlaneCounters::Capture();
      const int64_t out0 = a.outputs();
      Timed(&rec, "api.push", [&] { a.Push(w, chunk, &tally); });
      const rumor::DataPlaneCounters c1 = rumor::DataPlaneCounters::Capture();
      outputs += a.outputs() - out0;
      fused += c1.program_fused - c0.program_fused;
      typed += c1.program_typed - c0.program_typed;
      generic += c1.program_generic - c0.program_generic;
      arena_req += c1.arena_requests - c0.arena_requests;
      arena_heap += c1.arena_heap_allocations - c0.arena_heap_allocations;
    };
    auto pass_b = [&] {
      Timed(&rec, "plan.executor.push", [&] { b.PushExecutor(chunk); });
    };
    // Alternate which of A and B runs first, so neither always finds the
    // caches as the other left them.
    if (++chunks % 2 == 0) {
      pass_a();
      pass_b();
    } else {
      pass_b();
      pass_a();
    }
    Timed(&rec, "mop.all", [&] { c.PushMops(chunk, &rec); });
    events += static_cast<int64_t>(chunk.size());
    if (w.churn) remove_one();
  }
  const rumor::EngineMetrics em = a.engine().CollectMetrics();

  // --- checkpoint and restore of the warm engine ------------------------------
  int64_t snapshot_bytes = 0;
  std::vector<double> save_ms, parse_ms, load_ms, replay_ms;
  for (int rep = 0; w.snapshots && rep < 3; ++rep) {
    std::string snapshot;
    Timed(&rec, "api.checkpoint", [&] {
      tally.Check(a.engine().Checkpoint(&snapshot), "checkpoint");
    });
    snapshot_bytes = static_cast<int64_t>(snapshot.size());
    std::string payload;
    save_ms.push_back(Timed(&rec, "plan.state_snapshot.save", [&] {
                        auto saved = rumor::SavePlanState(b.plan());
                        if (tally.Check(saved.status(), "save")) {
                          payload = std::move(saved).value();
                        }
                      }) / 1e6);
    std::vector<rumor::MopState> states;
    parse_ms.push_back(Timed(&rec, "plan.state_snapshot.parse", [&] {
                         tally.Check(rumor::ParsePlanState(payload, &states),
                                     "parse state");
                       }) / 1e6);
    rumor::Plan fresh;
    {
      auto compiled = rumor::CompileQueries(live_queries, &fresh);
      tally.Check(compiled.status(), "compile");
      rumor::ShareIndex index(&fresh);
      rumor::Optimize(&fresh, rumor::OptimizerOptions(), &index);
    }
    load_ms.push_back(Timed(&rec, "plan.state_snapshot.load", [&] {
                        tally.Check(rumor::LoadPlanState(fresh, states),
                                    "load state");
                      }) / 1e6);
    {
      Harness h;
      replay_ms.push_back(Timed(&rec, "api.restore_replay", [&] {
                            tally.Check(h.Setup(w, live_names, live_texts),
                                        "restore replay");
                          }) / 1e6);
    }
    Harness restored;
    Timed(&rec, "api.restore", [&] {
      tally.Check(restored.engine().Restore(snapshot), "restore");
    });
  }

  // --- metrics ------------------------------------------------------------------
  const double a_ns = static_cast<double>(rec.TotalNs("api.push"));
  const double b_ns = static_cast<double>(rec.TotalNs("plan.executor.push"));
  double kind_ns[kNumKinds];
  double c_ns = 0;
  for (int k = 0; k < kNumKinds; ++k) {
    kind_ns[k] = static_cast<double>(rec.TotalNs(kKindName[k]));
    c_ns += kind_ns[k];
  }
  double state_bytes[kNumKinds] = {};
  for (const rumor::EngineMetrics::MopRow& row : em.mops) {
    state_bytes[KindOfName(row.type)] += static_cast<double>(row.state_bytes);
  }
  const double traced_eps = events / (a_ns / 1e9);
  // Probe counters live in the index m-ops, which churn replaces, so the
  // share is over everything the live indexes have seen.
  const int64_t flat = em.flat_probes;
  const int64_t map = em.map_probes;
  const double add_children =
      Per(static_cast<double>(ct.parse_ns - setup_parse_ns), ct.adds) +
      Per(static_cast<double>(ct.compile_ns - setup_compile_ns), ct.adds) +
      Per(static_cast<double>(ct.merge_ns), ct.adds);
  // Refresh runs once per add and once per remove.
  const double refresh_each = Per(static_cast<double>(ct.refresh_ns),
                                  ct.refreshes);

  auto ns_per_event = [&](double ns) { return Per(ns, events); };
  r.metrics = {
      {"api.push_ns_per_event", ns_per_event(a_ns - b_ns), "ns/event", events},
      {"api.setup_overhead_ms",
       static_cast<double>(api_setup_ns - setup_parse_ns - setup_compile_ns -
                           optimize_ns - prepare_ns) /
           1e6,
       "ms", 1},
      {"api.add_overhead_us",
       (Per(static_cast<double>(ct.api_add_ns), ct.adds) - add_children -
        refresh_each) /
           1e3,
       "us", ct.adds},
      {"api.remove_overhead_us",
       (Per(static_cast<double>(ct.api_remove_ns - ct.prune_ns - ct.sync_ns),
            ct.removes) -
        refresh_each) /
           1e3,
       "us", ct.removes},
      {"api.restore_replay_ms", Median(replay_ms), "ms",
       static_cast<int64_t>(replay_ms.size())},
      {"query.parse_us", Per(static_cast<double>(ct.parse_ns), ct.parses) / 1e3,
       "us", ct.parses},
      {"plan.compile_us",
       Per(static_cast<double>(ct.compile_ns), ct.compiles) / 1e3, "us",
       ct.compiles},
      {"rules.optimize_ms", static_cast<double>(optimize_ns) / 1e6, "ms", 1},
      {"rules.merge_us", Per(static_cast<double>(ct.merge_ns), ct.adds) / 1e3,
       "us", ct.adds},
      {"rules.prune_us", Per(static_cast<double>(ct.prune_ns), ct.removes) / 1e3,
       "us", ct.removes},
      {"rules.index_sync_us",
       Per(static_cast<double>(ct.sync_ns), ct.removes) / 1e3, "us",
       ct.removes},
      {"rules.share_index_mb",
       static_cast<double>(em.share_index.approx_bytes) / kMiB, "MiB", 1},
      {"rules.shared_add_share",
       Per(static_cast<double>(ct.shared_adds), ct.adds), "ratio", ct.adds},
      {"rules.mops_per_query", em.mops_per_query, "mops/query", em.queries},
      {"rules.sharing_speedup",
       static_cast<double>(plain.reference_prefix_ns) /
           static_cast<double>(std::max<int64_t>(plain.shared_prefix_ns, 1)),
       "x", w.warmup_events},
      {"plan.executor.ns_per_event", ns_per_event(b_ns - c_ns), "ns/event",
       events},
      {"plan.executor.deliveries_per_event",
       Per(static_cast<double>(em.deliveries - before.deliveries), events),
       "deliveries/event", events},
      {"plan.executor.prepare_ms", static_cast<double>(prepare_ns) / 1e6, "ms",
       1},
      {"plan.executor.refresh_us", refresh_each / 1e3, "us", ct.refreshes},
      {"mop.predicate_index.ns_per_event", ns_per_event(kind_ns[kIndex]),
       "ns/event", events},
      {"mop.predicate_index.flat_probe_share",
       Per(static_cast<double>(flat), flat + map), "ratio", flat + map},
      {"expr.vectorized_share",
       Per(static_cast<double>(fused + typed), fused + typed + generic),
       "ratio", fused + typed + generic},
      {"mop.aggregate.ns_per_event", ns_per_event(kind_ns[kAggregate]),
       "ns/event", events},
      {"mop.aggregate.state_mb", state_bytes[kAggregate] / kMiB, "MiB", 1},
      {"common.arena.heap_allocs_per_event",
       Per(static_cast<double>(arena_heap), events), "allocs/event", events},
      {"common.arena.recycle_rate",
       Per(static_cast<double>(arena_req - arena_heap), arena_req), "ratio",
       arena_req},
      {"mop.join.ns_per_event", ns_per_event(kind_ns[kJoin]), "ns/event",
       events},
      {"mop.join.state_mb", state_bytes[kJoin] / kMiB, "MiB", 1},
      {"mop.sequence.ns_per_event", ns_per_event(kind_ns[kSequence]),
       "ns/event", events},
      {"mop.sequence.state_mb", state_bytes[kSequence] / kMiB, "MiB", 1},
      {"mop.iterate.ns_per_event", ns_per_event(kind_ns[kIterate]),
       "ns/event", events},
      {"mop.iterate.state_mb", state_bytes[kIterate] / kMiB, "MiB", 1},
      {"mop.other.ns_per_event", ns_per_event(kind_ns[kOther]), "ns/event",
       events},
      {"plan.state_snapshot.save_ms", Median(save_ms), "ms",
       static_cast<int64_t>(save_ms.size())},
      {"plan.state_snapshot.parse_ms", Median(parse_ms), "ms",
       static_cast<int64_t>(parse_ms.size())},
      {"plan.state_snapshot.load_ms", Median(load_ms), "ms",
       static_cast<int64_t>(load_ms.size())},
      {"common.snapshot_io.mb", static_cast<double>(snapshot_bytes) / kMiB,
       "MiB", static_cast<int64_t>(save_ms.size())},
      {"trace.overhead", 1.0 - traced_eps / plain.events_per_s, "ratio",
       events},
  };

  std::printf("trace events_per_s traced=%.1f untraced=%.1f\n", traced_eps,
              plain.events_per_s);
  std::printf(
      "trace self times (ns/event): api %.1f + plan.executor %.1f + mops %.1f "
      "= %.1f; pass A push %.1f; mop.all wrapper %.1f\n",
      ns_per_event(a_ns - b_ns), ns_per_event(b_ns - c_ns), ns_per_event(c_ns),
      ns_per_event((a_ns - b_ns) + (b_ns - c_ns) + c_ns), ns_per_event(a_ns),
      ns_per_event(static_cast<double>(rec.TotalNs("mop.all"))));
  std::printf("trace outputs: pass A %lld results to queries, pass B %lld to "
              "output streams (one stream may serve several queries), pass C "
              "%lld m-op emissions\n",
              static_cast<long long>(outputs),
              static_cast<long long>(b.sink().total() - b_outputs_before),
              static_cast<long long>(c.emitted() - c_emitted_before));
  if (!o.trace_out.empty()) {
    if (rec.WriteChromeJson(o.trace_out)) {
      std::printf("trace spans %zu written to %s\n", rec.size(),
                  o.trace_out.c_str());
    } else {
      std::fprintf(stderr, "cannot write %s\n", o.trace_out.c_str());
    }
  }
  return r;
}

}  // namespace perfbench
