#include "plan/shard.h"

#include <algorithm>
#include <optional>
#include <sstream>

#include "common/str_util.h"
#include "expr/shape.h"
#include "mop/aggregate_mop.h"
#include "mop/join_mop.h"
#include "mop/projection_mop.h"
#include "mop/sequence_mop.h"

namespace rumor {

namespace {

// A key requirement: tuples of `source` must be partitioned by `attr`.
struct KeyReq {
  StreamId source;
  int attr;
};

// One stateful member's routing demand: either every (source, attr) key
// requirement in `keys` holds simultaneously, or the member is unkeyable and
// all of `pinned` must run on one shard. Sources across both lists form one
// co-location component.
struct Constraint {
  std::vector<KeyReq> keys;
  std::vector<StreamId> pinned;
  MopId mop = kInvalidMop;  // the m-op whose member demands it
  int key_column = -1;      // a keyed aggregate's leading GROUP BY column
};

// For per-member-port m-ops the producing member is the output port; in
// channel-output mode all members share port 0 and — by the c-rule merge
// conditions — the same definition, so member 0 stands in for all.
int ProducingMember(const Mop& mop, int port) {
  return mop.num_outputs() == mop.num_members() ? port : 0;
}

// Traces "attribute `attr` of tuples on channel `c`" backward to source
// attributes. Appends one KeyReq per source stream that can originate the
// attribute; returns false when the attribute is computed (not a plain
// column reference somewhere along the chain) or the walk hits an operator
// without positional provenance (µ instances, aggregate columns).
bool TraceAttr(const Plan& plan, ChannelId c, int attr,
               std::vector<KeyReq>* out, int depth) {
  if (depth > plan.num_mops() + 1) return false;  // defensive (plans are DAGs)
  if (attr < 0 || attr >= plan.channel(c).schema().size()) return false;
  std::optional<ChannelEnd> prod = plan.ProducerOf(c);
  if (!prod.has_value()) {
    // Source channel or source-group channel: the requirement lands on every
    // encoded source stream.
    for (StreamId s : plan.channel(c).streams()) {
      if (!plan.streams().Get(s).is_source) return false;
      out->push_back(KeyReq{s, attr});
    }
    return true;
  }
  const Mop& mop = plan.mop(prod->mop);
  switch (mop.type()) {
    case MopType::kSelection:
    case MopType::kChannelSelect:
    case MopType::kPredicateIndex:
      // Filters pass the payload through unchanged.
      return TraceAttr(plan, plan.input_channel(prod->mop, 0), attr, out,
                       depth + 1);
    case MopType::kProjection:
    case MopType::kChannelProject: {
      const SchemaMap& map =
          mop.type() == MopType::kProjection
              ? static_cast<const ProjectionMop&>(mop).member().def.map
              : static_cast<const ChannelProjectMop&>(mop).def().map;
      if (attr >= map.size()) return false;
      const ExprPtr& e = map.exprs()[attr];
      if (e == nullptr || e->kind() != ExprKind::kAttr ||
          e->side() != Side::kLeft) {
        return false;  // computed or renamed-from-right column
      }
      return TraceAttr(plan, plan.input_channel(prod->mop, 0),
                       e->attr_index(), out, depth + 1);
    }
    case MopType::kAggregate:
    case MopType::kSharedAggregate:
    case MopType::kFragmentAggregate: {
      // Output row = (group values..., aggregate): the first |group_by|
      // columns are the member's group-by inputs, the rest are computed.
      const auto& agg = static_cast<const AggregateMop&>(mop);
      const AggMemberSpec& spec =
          agg.member(ProducingMember(mop, prod->port)).spec;
      if (attr >= static_cast<int>(spec.group_by.size())) return false;
      return TraceAttr(plan, plan.input_channel(prod->mop, 0),
                       spec.group_by[attr], out, depth + 1);
    }
    case MopType::kJoin:
    case MopType::kSharedJoin:
    case MopType::kPrecisionJoin:
    case MopType::kSequence:
    case MopType::kSharedSequence:
    case MopType::kChannelSequence:
    case MopType::kZip: {
      // Output = concat(left payload, right payload).
      const ChannelId left = plan.input_channel(prod->mop, 0);
      const ChannelId right = plan.input_channel(prod->mop, 1);
      const int left_width = plan.channel(left).schema().size();
      if (attr < left_width) {
        return TraceAttr(plan, left, attr, out, depth + 1);
      }
      return TraceAttr(plan, right, attr - left_width, out, depth + 1);
    }
    case MopType::kIterate:
    case MopType::kSharedIterate:
    case MopType::kChannelIterate:
      // µ instances are rebind-mapped accumulations; no positional
      // provenance.
      return false;
  }
  return false;
}

// All source streams transitively feeding channel `c`.
void SourcesOf(const Plan& plan, ChannelId c, std::vector<StreamId>* out,
               int depth) {
  if (depth > plan.num_mops() + 1) return;
  std::optional<ChannelEnd> prod = plan.ProducerOf(c);
  if (!prod.has_value()) {
    for (StreamId s : plan.channel(c).streams()) {
      if (plan.streams().Get(s).is_source) out->push_back(s);
    }
    return;
  }
  for (ChannelId in : plan.input_channels(prod->mop)) {
    SourcesOf(plan, in, out, depth + 1);
  }
}

Constraint PinAll(const Plan& plan, MopId mop) {
  Constraint c;
  for (ChannelId in : plan.input_channels(mop)) {
    SourcesOf(plan, in, &c.pinned, 0);
  }
  return c;
}

// Key the member on (channel, attr); falls back to pinning the m-op's
// sources when the attribute cannot be traced to source columns.
Constraint KeyOrPin(const Plan& plan, MopId mop,
                    std::initializer_list<std::pair<ChannelId, int>> keys) {
  Constraint c;
  for (const auto& [channel, attr] : keys) {
    if (!TraceAttr(plan, channel, attr, &c.keys, 0)) {
      return PinAll(plan, mop);
    }
  }
  return c;
}

struct UnionFind {
  std::vector<int> parent;
  explicit UnionFind(int n) : parent(n) {
    for (int i = 0; i < n; ++i) parent[i] = i;
  }
  int Find(int x) {
    while (parent[x] != x) x = parent[x] = parent[parent[x]];
    return x;
  }
  void Union(int a, int b) { parent[Find(a)] = Find(b); }
};

}  // namespace

Result<ShardPlan> AnalyzeSharding(const Plan& plan, int num_shards,
                                  const ShardPlan* previous) {
  RUMOR_CHECK(num_shards >= 1);
  ShardPlan sp;
  sp.num_shards = num_shards;
  sp.routes.assign(plan.streams().size(), StreamRoute{});

  // Pass 1: one constraint per stateful m-op member.
  std::vector<Constraint> constraints;
  for (MopId id : plan.LiveMops()) {
    const Mop& mop = plan.mop(id);
    auto demand = [&](Constraint c, int key_column = -1) {
      c.mop = id;
      c.key_column = key_column;
      constraints.push_back(std::move(c));
    };
    switch (mop.type()) {
      case MopType::kSelection:
      case MopType::kChannelSelect:
      case MopType::kPredicateIndex:
      case MopType::kProjection:
      case MopType::kChannelProject:
        break;  // stateless: replicated, no constraint
      case MopType::kAggregate:
      case MopType::kSharedAggregate:
      case MopType::kFragmentAggregate: {
        const auto& agg = static_cast<const AggregateMop&>(mop);
        const ChannelId in = plan.input_channel(id, 0);
        for (int i = 0; i < agg.num_members(); ++i) {
          if (!agg.member_active(i)) continue;
          const AggMemberSpec& spec = agg.member(i).spec;
          if (spec.group_by.empty()) {
            demand(PinAll(plan, id));
          } else {
            demand(KeyOrPin(plan, id, {{in, spec.group_by[0]}}),
                   spec.group_by[0]);
          }
        }
        break;
      }
      case MopType::kJoin:
      case MopType::kSharedJoin:
      case MopType::kPrecisionJoin: {
        const auto& join = static_cast<const JoinMop&>(mop);
        const ChannelId left = plan.input_channel(id, 0);
        const ChannelId right = plan.input_channel(id, 1);
        for (int i = 0; i < join.num_members(); ++i) {
          const JoinShape shape = AnalyzeJoin(join.member(i).def.predicate);
          demand(
              shape.equi.empty()
                  ? PinAll(plan, id)
                  : KeyOrPin(plan, id,
                             {{left, shape.equi[0].left_attr},
                              {right, shape.equi[0].right_attr}}));
        }
        break;
      }
      case MopType::kSequence:
      case MopType::kSharedSequence:
      case MopType::kChannelSequence: {
        // Consume-on-match only ever consumes instances that *matched*, and
        // matching implies equality on the equi-key — so key-partitioned
        // sequence state is exact, same as joins.
        const auto& seq = static_cast<const SequenceMop&>(mop);
        const ChannelId left = plan.input_channel(id, 0);
        const ChannelId right = plan.input_channel(id, 1);
        for (int i = 0; i < seq.num_members(); ++i) {
          const JoinShape shape = AnalyzeJoin(seq.member(i).def.predicate);
          demand(
              shape.equi.empty()
                  ? PinAll(plan, id)
                  : KeyOrPin(plan, id,
                             {{left, shape.equi[0].left_attr},
                              {right, shape.equi[0].right_attr}}));
        }
        break;
      }
      case MopType::kIterate:
      case MopType::kSharedIterate:
      case MopType::kChannelIterate:
        // µ rebind state accumulates across all instances; unkeyable.
        demand(PinAll(plan, id));
        break;
      case MopType::kZip:
        // Zip pairs by global arrival rank, which survives partitioning only
        // when both branches provably see position-identical subsequences —
        // pin instead of proving it.
        demand(PinAll(plan, id));
        break;
    }
  }

  // Pass 2: co-location components, and the sources that feed state.
  UnionFind uf(plan.streams().size());
  std::vector<char> feeds_state(plan.streams().size(), 0);
  for (const Constraint& c : constraints) {
    StreamId first = kInvalidStream;
    for (const KeyReq& k : c.keys) {
      if (first == kInvalidStream) first = k.source;
      uf.Union(first, k.source);
      feeds_state[k.source] = 1;
    }
    for (StreamId s : c.pinned) {
      if (first == kInvalidStream) first = s;
      uf.Union(first, s);
      feeds_state[s] = 1;
    }
  }

  // Pass 3: per-source key attribute; conflicts or unkeyed members pin the
  // whole component.
  std::vector<int> key_attr(plan.streams().size(), -1);
  std::vector<char> component_pinned(plan.streams().size(), 0);
  for (const Constraint& c : constraints) {
    for (StreamId s : c.pinned) component_pinned[uf.Find(s)] = 1;
    for (const KeyReq& k : c.keys) {
      if (key_attr[k.source] == -1) {
        key_attr[k.source] = k.attr;
      } else if (key_attr[k.source] != k.attr) {
        component_pinned[uf.Find(k.source)] = 1;
      }
    }
  }

  // Pass 4: a source that still feeds state keeps its `previous` route, and
  // the route holds its component: pinned to the kept shard, or keyed on
  // the kept attributes. Other sources' routes are derived afresh.
  std::vector<int> component_shard(plan.streams().size(), -1);
  std::vector<char> component_keyed(plan.streams().size(), 0);
  for (StreamId s : plan.streams().Sources()) {
    if (previous == nullptr || !feeds_state[s] ||
        static_cast<size_t>(s) >= previous->routes.size() ||
        previous->routes[s].mode == RouteMode::kAny) {
      continue;
    }
    const StreamRoute& kept = previous->routes[s];
    const int root = uf.Find(s);
    const bool fits =
        kept.mode == RouteMode::kPinned
            ? !component_keyed[root] && (component_shard[root] == -1 ||
                                         component_shard[root] ==
                                             kept.pinned_shard)
            : !component_pinned[root] && key_attr[s] == kept.key_attr;
    if (!fits) {
      return Status::Unimplemented(
          StrCat("source '", plan.streams().Get(s).name,
                 "' feeds state partitioned by its running route, which the "
                 "plan would change"));
    }
    if (kept.mode == RouteMode::kPinned) {
      component_pinned[root] = 1;
      component_shard[root] = kept.pinned_shard;
    } else {
      component_keyed[root] = 1;
    }
  }

  // Pass 5: routes. The other pinned components are spread round-robin over
  // shards in component order (deterministic: components are ordered by
  // their smallest source id).
  std::vector<char> counted(plan.streams().size(), 0);
  int next_pin = 0;
  for (StreamId s : plan.streams().Sources()) {
    const int root = uf.Find(s);
    if (component_pinned[root]) {
      if (!counted[root]) {
        counted[root] = 1;
        ++sp.pinned_components;
        if (component_shard[root] == -1) {
          component_shard[root] = next_pin++ % num_shards;
        }
      }
      sp.routes[s] = StreamRoute{RouteMode::kPinned, -1,
                                 component_shard[root]};
      ++sp.pinned_sources;
    } else if (key_attr[s] != -1) {
      sp.routes[s] = StreamRoute{RouteMode::kKey, key_attr[s], 0};
      ++sp.keyed_sources;
    }  // else: default kAny
  }

  // Pass 6: state placement. A member's sources form one component, routed
  // one way, so any of them tells where the m-op's state lives; an m-op that
  // no source feeds keeps its state on shard 0.
  sp.state.assign(plan.num_mops(), StatePlacement{});
  for (const Constraint& c : constraints) {
    const StreamId s = !c.keys.empty()     ? c.keys[0].source
                       : !c.pinned.empty() ? c.pinned[0]
                                           : kInvalidStream;
    if (s == kInvalidStream) continue;
    const StreamRoute& r = sp.routes[s];
    sp.state[c.mop] = r.mode == RouteMode::kKey
                          ? StatePlacement{RouteMode::kKey, 0, c.key_column}
                          : StatePlacement{RouteMode::kPinned, r.pinned_shard};
  }
  return sp;
}

MopState StateOnShard(const MopState& state, const StatePlacement& placement,
                      int shard, int num_shards) {
  // Whether this shard owns an item with `key` (null: the item has none).
  const auto owns = [&](const Value* key) {
    if (placement.mode != RouteMode::kKey || key == nullptr) {
      return placement.pinned_shard == shard;
    }
    return static_cast<int>(key->Hash() % static_cast<uint64_t>(
                                              num_shards)) == shard;
  };
  MopState out;
  out.kind = state.kind;
  out.member_fps = state.member_fps;
  out.member_active = state.member_active;
  out.shared_state = state.shared_state;
  out.member_filtered = state.member_filtered;
  const int column = placement.key_column;
  for (const AggEngineState& engine : state.engines) {
    AggEngineState& mine = out.engines.emplace_back();
    mine.slots = engine.slots;
    for (const AggLogEntry& entry : engine.entries) {
      const std::vector<Value>& values = entry.tuple.values;
      const bool keyed =
          column >= 0 && column < static_cast<int>(values.size());
      if (owns(keyed ? &values[column] : nullptr)) {
        mine.entries.push_back(entry);
      }
    }
    // Cursors are re-derived from the memberships at load.
    mine.members.resize(engine.members.size());
    for (size_t m = 0; m < engine.members.size(); ++m) {
      for (const AggGroupState& g : engine.members[m].groups) {
        if (owns(g.key.empty() ? nullptr : &g.key[0])) {
          mine.members[m].groups.push_back(g);
        }
      }
    }
  }
  const auto place = [&](const std::vector<BufferState>& buffers) {
    std::vector<BufferState> mine(buffers.size());
    for (size_t b = 0; b < buffers.size(); ++b) {
      for (const BufferSlotState& slot : buffers[b].slots) {
        if (owns(&slot.key)) mine[b].slots.push_back(slot);
      }
    }
    return mine;
  };
  out.left = place(state.left);
  out.right = place(state.right);
  out.stores = place(state.stores);
  return out;
}

std::string ShardPlan::ToString(const Plan& plan) const {
  std::ostringstream os;
  os << "sharding over " << num_shards << " shard(s): " << keyed_sources
     << " keyed, " << pinned_sources << " pinned (" << pinned_components
     << " component(s))\n";
  for (StreamId s : plan.streams().Sources()) {
    const StreamRoute& r = routes[s];
    os << "  " << plan.streams().Get(s).name << ": ";
    switch (r.mode) {
      case RouteMode::kAny:
        os << "any (round-robin)";
        break;
      case RouteMode::kKey:
        os << "hash(attr " << r.key_attr << ")";
        break;
      case RouteMode::kPinned:
        os << "pinned -> shard " << r.pinned_shard;
        break;
    }
    os << "\n";
  }
  return os.str();
}

}  // namespace rumor
