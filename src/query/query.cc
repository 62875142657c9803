#include "query/query.h"

#include <algorithm>
#include <sstream>

#include "common/hash.h"
#include "common/str_util.h"
#include "expr/shape.h"

namespace rumor {

const char* QueryOpName(QueryOp op) {
  switch (op) {
    case QueryOp::kSource: return "Source";
    case QueryOp::kSelect: return "Select";
    case QueryOp::kProject: return "Project";
    case QueryOp::kAggregate: return "Aggregate";
    case QueryOp::kJoin: return "Join";
    case QueryOp::kSequence: return "Sequence";
    case QueryOp::kIterate: return "Iterate";
    case QueryOp::kZip: return "Zip";
  }
  return "?";
}

const char* AggFnName(AggFn fn) {
  switch (fn) {
    case AggFn::kCount: return "COUNT";
    case AggFn::kSum: return "SUM";
    case AggFn::kAvg: return "AVG";
    case AggFn::kMin: return "MIN";
    case AggFn::kMax: return "MAX";
  }
  return "?";
}

ValueType AggResultType(AggFn fn, ValueType input) {
  switch (fn) {
    case AggFn::kCount: return ValueType::kInt;
    case AggFn::kSum: return input == ValueType::kInt ? ValueType::kInt
                                                      : ValueType::kDouble;
    case AggFn::kAvg: return ValueType::kDouble;
    case AggFn::kMin:
    case AggFn::kMax: return input;
  }
  return ValueType::kNull;
}

namespace {

#define RUMOR_NEW_NODE() std::shared_ptr<QueryNode>(new QueryNode())

uint64_t CombineChildSignatures(uint64_t h,
                                const std::vector<QueryNodePtr>& children) {
  for (const QueryNodePtr& c : children) h = HashCombine(h, c->Signature());
  return h;
}

}  // namespace

void SplitIteratePredicate(const ExprPtr& predicate, int start_size,
                           ExprPtr* match, ExprPtr* rebind) {
  std::vector<ExprPtr> conjuncts;
  FlattenConjuncts(predicate, &conjuncts);
  std::vector<ExprPtr> match_terms, rebind_terms;
  // A conjunct referencing a left attribute at index >= start_size touches
  // the instance's last-part => rebind conjunct.
  for (const ExprPtr& c : conjuncts) {
    bool touches_last = false;
    std::vector<const Expr*> stack = {c.get()};
    while (!stack.empty()) {
      const Expr* e = stack.back();
      stack.pop_back();
      if (e->kind() == ExprKind::kAttr && e->side() == Side::kLeft &&
          e->attr_index() >= start_size) {
        touches_last = true;
        break;
      }
      for (int i = 0; i < e->num_children(); ++i) {
        stack.push_back(e->child(i).get());
      }
    }
    (touches_last ? rebind_terms : match_terms).push_back(c);
  }
  *match = Expr::AndAll(match_terms);
  *rebind = Expr::AndAll(rebind_terms);
}

QueryNodePtr QueryNode::Source(std::string name, Schema schema,
                               int sharable_label) {
  auto n = RUMOR_NEW_NODE();
  n->op_ = QueryOp::kSource;
  n->source_name_ = std::move(name);
  n->output_schema_ = std::move(schema);
  n->sharable_label_ = sharable_label;
  n->signature_ = HashCombine(Mix64(static_cast<uint64_t>(n->op_)),
                              HashBytes(n->source_name_));
  return n;
}

QueryNodePtr QueryNode::Select(QueryNodePtr child, ExprPtr predicate) {
  auto n = RUMOR_NEW_NODE();
  n->op_ = QueryOp::kSelect;
  n->output_schema_ = child->output_schema();
  n->predicate_ = std::move(predicate);
  n->children_ = {std::move(child)};
  n->signature_ =
      CombineChildSignatures(HashCombine(Mix64(static_cast<uint64_t>(n->op_)),
                                         PredicateSignature(n->predicate_)),
                             n->children_);
  return n;
}

QueryNodePtr QueryNode::Project(QueryNodePtr child, SchemaMap map) {
  auto n = RUMOR_NEW_NODE();
  n->op_ = QueryOp::kProject;
  n->output_schema_ = map.OutputSchema(child->output_schema());
  n->map_ = std::move(map);
  n->children_ = {std::move(child)};
  n->signature_ = CombineChildSignatures(
      HashCombine(Mix64(static_cast<uint64_t>(n->op_)), n->map_.Signature()),
      n->children_);
  return n;
}

QueryNodePtr QueryNode::Aggregate(QueryNodePtr child, AggFn fn, int agg_attr,
                                  std::vector<int> group_by, int64_t window) {
  auto n = RUMOR_NEW_NODE();
  n->op_ = QueryOp::kAggregate;
  const Schema& in = child->output_schema();
  RUMOR_CHECK(fn == AggFn::kCount || (agg_attr >= 0 && agg_attr < in.size()))
      << "bad aggregate attribute " << agg_attr;
  std::vector<Attribute> attrs;
  for (int g : group_by) {
    RUMOR_CHECK(g >= 0 && g < in.size()) << "bad group-by attribute " << g;
    attrs.push_back(in.attribute(g));
  }
  std::string result_name =
      fn == AggFn::kCount
          ? "count"
          : ToLower(AggFnName(fn)) + "_" + in.attribute(agg_attr).name;
  ValueType in_type =
      fn == AggFn::kCount ? ValueType::kInt : in.attribute(agg_attr).type;
  attrs.push_back({result_name, AggResultType(fn, in_type)});
  n->output_schema_ = Schema(std::move(attrs));
  n->agg_fn_ = fn;
  n->agg_attr_ = fn == AggFn::kCount ? -1 : agg_attr;
  n->group_by_ = std::move(group_by);
  n->window_ = window;
  n->children_ = {std::move(child)};
  uint64_t h = Mix64(static_cast<uint64_t>(n->op_));
  h = HashCombine(h, static_cast<uint64_t>(fn));
  h = HashCombine(h, static_cast<uint64_t>(n->agg_attr_));
  for (int g : n->group_by_) h = HashCombine(h, static_cast<uint64_t>(g));
  h = HashCombine(h, static_cast<uint64_t>(window));
  n->signature_ = CombineChildSignatures(h, n->children_);
  return n;
}

QueryNodePtr QueryNode::Join(QueryNodePtr left, QueryNodePtr right,
                             ExprPtr predicate, int64_t left_window,
                             int64_t right_window) {
  auto n = RUMOR_NEW_NODE();
  n->op_ = QueryOp::kJoin;
  n->output_schema_ =
      Schema::Concat(left->output_schema(), right->output_schema());
  n->predicate_ = std::move(predicate);
  n->window_ = left_window;
  n->right_window_ = right_window;
  n->children_ = {std::move(left), std::move(right)};
  uint64_t h = Mix64(static_cast<uint64_t>(n->op_));
  h = HashCombine(h, PredicateSignature(n->predicate_));
  h = HashCombine(h, static_cast<uint64_t>(left_window));
  h = HashCombine(h, static_cast<uint64_t>(right_window));
  n->signature_ = CombineChildSignatures(h, n->children_);
  return n;
}

QueryNodePtr QueryNode::Sequence(QueryNodePtr left, QueryNodePtr right,
                                 ExprPtr predicate, int64_t window) {
  auto n = RUMOR_NEW_NODE();
  n->op_ = QueryOp::kSequence;
  n->output_schema_ =
      Schema::Concat(left->output_schema(), right->output_schema());
  n->predicate_ = std::move(predicate);
  n->window_ = window;
  n->children_ = {std::move(left), std::move(right)};
  uint64_t h = Mix64(static_cast<uint64_t>(n->op_));
  h = HashCombine(h, PredicateSignature(n->predicate_));
  h = HashCombine(h, static_cast<uint64_t>(window));
  n->signature_ = CombineChildSignatures(h, n->children_);
  return n;
}

QueryNodePtr QueryNode::Iterate(QueryNodePtr left, QueryNodePtr right,
                                ExprPtr predicate, int64_t window) {
  ExprPtr match, rebind;
  SplitIteratePredicate(predicate, left->output_schema().size(), &match,
                        &rebind);
  return IterateSplit(std::move(left), std::move(right), std::move(match),
                      std::move(rebind), window);
}

QueryNodePtr QueryNode::IterateSplit(QueryNodePtr left, QueryNodePtr right,
                                     ExprPtr match, ExprPtr rebind,
                                     int64_t window) {
  auto n = RUMOR_NEW_NODE();
  n->op_ = QueryOp::kIterate;
  n->output_schema_ = Schema::Concat(left->output_schema(),
                                     right->output_schema(), "l.", "last.");
  n->match_predicate_ = std::move(match);
  n->rebind_predicate_ = std::move(rebind);
  n->predicate_ = Expr::AndAll({n->match_predicate_, n->rebind_predicate_});
  n->window_ = window;
  n->children_ = {std::move(left), std::move(right)};
  uint64_t h = Mix64(static_cast<uint64_t>(n->op_));
  h = HashCombine(h, PredicateSignature(n->match_predicate_));
  h = HashCombine(h, PredicateSignature(n->rebind_predicate_));
  h = HashCombine(h, static_cast<uint64_t>(window));
  n->signature_ = CombineChildSignatures(h, n->children_);
  return n;
}

QueryNodePtr QueryNode::Zip(QueryNodePtr left, QueryNodePtr right) {
  auto n = RUMOR_NEW_NODE();
  n->op_ = QueryOp::kZip;
  n->output_schema_ =
      Schema::Concat(left->output_schema(), right->output_schema());
  n->children_ = {std::move(left), std::move(right)};
  n->signature_ = CombineChildSignatures(
      Mix64(static_cast<uint64_t>(n->op_)), n->children_);
  return n;
}

namespace {

void Render(const QueryNode& n, int indent, std::ostringstream& os) {
  os << std::string(indent * 2, ' ') << QueryOpName(n.op());
  switch (n.op()) {
    case QueryOp::kSource:
      os << "(" << n.source_name() << ")";
      break;
    case QueryOp::kSelect:
      os << "[" << (n.predicate() ? n.predicate()->ToString() : "true")
         << "]";
      break;
    case QueryOp::kProject:
      os << n.map().ToString();
      break;
    case QueryOp::kAggregate:
      os << "[" << AggFnName(n.agg_fn());
      if (n.agg_attr() >= 0) os << "(#" << n.agg_attr() << ")";
      os << " window=" << n.window() << " group_by={";
      for (size_t i = 0; i < n.group_by().size(); ++i) {
        if (i) os << ",";
        os << n.group_by()[i];
      }
      os << "}]";
      break;
    case QueryOp::kJoin:
      os << "[" << (n.predicate() ? n.predicate()->ToString() : "true")
         << " w=(" << n.window() << "," << n.right_window() << ")]";
      break;
    case QueryOp::kSequence:
    case QueryOp::kIterate:
      os << "[" << (n.predicate() ? n.predicate()->ToString() : "true")
         << " within=" << n.window() << "]";
      break;
    case QueryOp::kZip:
      break;
  }
  os << "\n";
  for (int i = 0; i < n.num_children(); ++i) {
    Render(*n.child(i), indent + 1, os);
  }
}

}  // namespace

std::string QueryNode::ToString() const {
  std::ostringstream os;
  Render(*this, 0, os);
  return os.str();
}

Status CheckQueryTypes(const QueryNode& node) {
  for (int i = 0; i < node.num_children(); ++i) {
    RUMOR_RETURN_IF_ERROR(CheckQueryTypes(*node.child(i)));
  }
  auto check = [](const ExprPtr& e, const Schema& left, const Schema* right,
                  bool predicate) {
    return e == nullptr ? Status::OK()
                        : e->CheckTypes(left, right, predicate);
  };
  switch (node.op()) {
    case QueryOp::kSource:
    case QueryOp::kZip:
      return Status::OK();
    case QueryOp::kSelect:
      return check(node.predicate(), node.child(0)->output_schema(), nullptr,
                   true);
    case QueryOp::kProject:
      for (const ExprPtr& e : node.map().exprs()) {
        RUMOR_RETURN_IF_ERROR(
            check(e, node.child(0)->output_schema(), nullptr, false));
      }
      return Status::OK();
    case QueryOp::kAggregate: {
      if (node.window() <= 0) {
        return Status::InvalidArgument(
            StrCat("an aggregate window must be positive, not ",
                   node.window()));
      }
      const Schema& in = node.child(0)->output_schema();
      const bool sum_or_avg =
          node.agg_fn() == AggFn::kSum || node.agg_fn() == AggFn::kAvg;
      if (sum_or_avg && (node.agg_attr() < 0 || node.agg_attr() >= in.size() ||
                         in.attribute(node.agg_attr()).type ==
                             ValueType::kString)) {
        return Status::InvalidArgument(
            StrCat(AggFnName(node.agg_fn()), " needs a numeric attribute"));
      }
      return Status::OK();
    }
    case QueryOp::kJoin:
      if (node.window() < 0 || node.right_window() < 0) {
        return Status::InvalidArgument(
            StrCat("a join window must not be negative, not ",
                   std::min(node.window(), node.right_window())));
      }
      [[fallthrough]];
    case QueryOp::kSequence:
      return check(node.predicate(), node.child(0)->output_schema(),
                   &node.child(1)->output_schema(), true);
    case QueryOp::kIterate: {
      // Over (left = the instance, start ⊕ last; right = the event).
      const Schema& event = node.child(1)->output_schema();
      RUMOR_RETURN_IF_ERROR(
          check(node.match_predicate(), node.output_schema(), &event, true));
      return check(node.rebind_predicate(), node.output_schema(), &event,
                   true);
    }
  }
  return Status::OK();
}

}  // namespace rumor
