#include "plan/compile.h"

#include "common/str_util.h"
#include "mop/aggregate_mop.h"
#include "mop/iterate_mop.h"
#include "mop/join_mop.h"
#include "mop/projection_mop.h"
#include "mop/selection_mop.h"
#include "mop/sequence_mop.h"
#include "mop/zip_mop.h"

namespace rumor {

namespace {

class Compiler {
 public:
  Compiler(Plan* plan, const std::string& query_name)
      : plan_(plan), query_name_(query_name) {}

  // Returns the capacity-1 channel carrying the node's output.
  Result<ChannelId> Lower(const QueryNodePtr& node) {
    switch (node->op()) {
      case QueryOp::kSource:
        return LowerSource(*node);
      case QueryOp::kSelect:
        return LowerUnary(node, [&](const QueryNode& n) {
          return std::make_unique<SelectionMop>(
              SelectionMop::Member{0, {n.predicate()}});
        });
      case QueryOp::kProject:
        return LowerUnary(node, [&](const QueryNode& n) {
          return std::make_unique<ProjectionMop>(
              ProjectionMop::Member{0, {n.map()}});
        });
      case QueryOp::kAggregate:
        return LowerUnary(node, [&](const QueryNode& n) {
          AggMemberSpec spec{n.agg_fn(), n.agg_attr(), n.group_by(),
                             n.window()};
          return std::make_unique<AggregateMop>(
              std::vector<AggregateMop::Member>{{0, spec}},
              AggregateMop::Sharing::kIsolated, OutputMode::kPerMemberPorts);
        });
      case QueryOp::kJoin:
        return LowerBinary(node, [&](const QueryNode& n) {
          JoinDef def{n.predicate(), n.window(), n.right_window()};
          return std::make_unique<JoinMop>(
              std::vector<JoinMop::Member>{{0, 0, def}},
              JoinMop::Sharing::kIsolated, OutputMode::kPerMemberPorts);
        });
      case QueryOp::kSequence:
        return LowerBinary(node, [&](const QueryNode& n) {
          SequenceDef def{n.predicate(), n.window()};
          return std::make_unique<SequenceMop>(
              std::vector<SequenceMop::Member>{{0, 0, def}},
              SequenceMop::Sharing::kIsolated, OutputMode::kPerMemberPorts);
        });
      case QueryOp::kIterate:
        return LowerBinary(node, [&](const QueryNode& n) {
          IterateDef def{n.match_predicate(), n.rebind_predicate(),
                         n.window(), n.child(0)->output_schema().size(),
                         n.child(1)->output_schema().size()};
          return std::make_unique<IterateMop>(
              std::vector<IterateMop::Member>{{0, 0, def}},
              IterateMop::Sharing::kIsolated, OutputMode::kPerMemberPorts);
        });
      case QueryOp::kZip:
        return LowerBinary(node, [&](const QueryNode& n) {
          return std::make_unique<ZipMop>(
              n.child(0)->output_schema().size(),
              n.child(1)->output_schema().size());
        });
    }
    return Status::Internal("unknown query node");
  }

 private:
  Result<ChannelId> LowerSource(const QueryNode& node) {
    StreamId stream;
    if (auto existing = plan_->streams().FindSource(node.source_name())) {
      stream = *existing;
      if (!plan_->streams().SchemaOf(stream).CompatibleWith(
              node.output_schema())) {
        return Status::InvalidArgument(
            StrCat("source '", node.source_name(),
                   "' redeclared with a different schema"));
      }
    } else {
      stream = plan_->streams().AddSource(
          node.source_name(), node.output_schema(), node.sharable_label());
    }
    return plan_->SourceChannelOf(stream);
  }

  template <typename MakeMop>
  Result<ChannelId> LowerUnary(const QueryNodePtr& node, MakeMop&& make) {
    auto in = Lower(node->child(0));
    if (!in.ok()) return in;
    MopId mop = plan_->AddMop(make(*node));
    plan_->BindInput(mop, 0, in.value());
    ChannelId out = plan_->AddDerivedChannel(DerivedName(*node),
                                             node->output_schema());
    plan_->BindOutput(mop, 0, out);
    return out;
  }

  template <typename MakeMop>
  Result<ChannelId> LowerBinary(const QueryNodePtr& node, MakeMop&& make) {
    auto left = Lower(node->child(0));
    if (!left.ok()) return left;
    auto right = Lower(node->child(1));
    if (!right.ok()) return right;
    MopId mop = plan_->AddMop(make(*node));
    plan_->BindInput(mop, 0, left.value());
    plan_->BindInput(mop, 1, right.value());
    ChannelId out = plan_->AddDerivedChannel(DerivedName(*node),
                                             node->output_schema());
    plan_->BindOutput(mop, 0, out);
    return out;
  }

  std::string DerivedName(const QueryNode& node) {
    return StrCat(query_name_, ".", QueryOpName(node.op()), ".",
                  counter_++);
  }

  Plan* plan_;
  const std::string& query_name_;
  int counter_ = 0;
};

}  // namespace

Result<CompiledQuery> CompileQuery(const Query& query, Plan* plan) {
  RUMOR_CHECK(query.root != nullptr);
  Compiler compiler(plan, query.name);
  auto channel = compiler.Lower(query.root);
  if (!channel.ok()) return channel.status();
  // The root channel is capacity-1; its stream is the query's output.
  const ChannelDef& def = plan->channel(channel.value());
  RUMOR_CHECK(def.capacity() == 1);
  StreamId out = def.stream_at(0);
  plan->MarkOutput(out, query.name);
  return CompiledQuery{query.name, out};
}

Result<std::vector<CompiledQuery>> CompileQueries(
    const std::vector<Query>& queries, Plan* plan) {
  std::vector<CompiledQuery> out;
  out.reserve(queries.size());
  for (const Query& q : queries) {
    auto compiled = CompileQuery(q, plan);
    if (!compiled.ok()) return compiled.status();
    out.push_back(std::move(compiled).value());
  }
  return out;
}

}  // namespace rumor
