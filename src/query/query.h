// Logical query algebra. A Query is a tree of QueryNodes:
//
//   Source     — a named input stream
//   Select     — σ predicate filter
//   Project    — π schema map (rename / project / computed attributes)
//   Aggregate  — sliding-window aggregate with optional group-by
//   Join       — sliding-window join
//   Sequence   — Cayuga ; : left event followed by a matching right event
//   Iterate    — Cayuga µ : left event followed by an unbounded run of
//                matching right events (e.g. monotonic sequences)
//
// Queries are what users express (via the builder or the RQL parser); the
// plan compiler (plan/compile.h) lowers each node to an m-op, and the rule
// engine then merges m-ops across queries.
//
// Pattern-operator predicate conventions (paper §4.2):
//  * Sequence: predicate context is (left = stored left tuple, right =
//    incoming right event); `window` bounds right.ts - left.ts.
//  * Iterate: the *instance* is the concatenation (start ⊕ last). Both the
//    match predicate (which conjuncts reference only the start part) and the
//    rebind predicate (conjuncts referencing the `last` part at offset
//    |start schema|) are expressed over (left = instance, right = event).
//    On a matching event the instance's last-part is replaced by the event
//    and the updated concatenation is emitted; a matching event that fails
//    the rebind predicate kills the instance (run broken); a non-matching
//    event leaves it untouched.
#ifndef RUMOR_QUERY_QUERY_H_
#define RUMOR_QUERY_QUERY_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/schema.h"
#include "common/status.h"
#include "expr/expr.h"
#include "expr/schema_map.h"

namespace rumor {

enum class QueryOp : uint8_t {
  kSource,
  kSelect,
  kProject,
  kAggregate,
  kJoin,
  kSequence,
  kIterate,
  kZip,
};

const char* QueryOpName(QueryOp op);

enum class AggFn : uint8_t { kCount, kSum, kAvg, kMin, kMax };

const char* AggFnName(AggFn fn);

// Result type of an aggregate over an input attribute type.
ValueType AggResultType(AggFn fn, ValueType input);

class QueryNode;
using QueryNodePtr = std::shared_ptr<const QueryNode>;

class QueryNode {
 public:
  // --- factories -----------------------------------------------------------
  static QueryNodePtr Source(std::string name, Schema schema,
                             int sharable_label = -1);
  static QueryNodePtr Select(QueryNodePtr child, ExprPtr predicate);
  static QueryNodePtr Project(QueryNodePtr child, SchemaMap map);
  // `agg_attr` is ignored (-1) for kCount. Emits (group attrs..., result)
  // per input tuple of the affected group.
  static QueryNodePtr Aggregate(QueryNodePtr child, AggFn fn, int agg_attr,
                                std::vector<int> group_by, int64_t window);
  static QueryNodePtr Join(QueryNodePtr left, QueryNodePtr right,
                           ExprPtr predicate, int64_t left_window,
                           int64_t right_window);
  static QueryNodePtr Sequence(QueryNodePtr left, QueryNodePtr right,
                               ExprPtr predicate, int64_t window);
  // `predicate` combines match and rebind conjuncts; they are split by
  // whether they reference the instance's last-part (see header comment).
  static QueryNodePtr Iterate(QueryNodePtr left, QueryNodePtr right,
                              ExprPtr predicate, int64_t window);
  // Iterate with pre-split match/rebind predicates (used by the Cayuga
  // automaton translator, whose edges carry them separately).
  static QueryNodePtr IterateSplit(QueryNodePtr left, QueryNodePtr right,
                                   ExprPtr match, ExprPtr rebind,
                                   int64_t window);
  // 1:1 pairing of two streams that emit in lockstep (each input tuple of
  // the common ancestor yields exactly one tuple on each side); the output
  // is the concatenation. The parser builds multi-aggregate SELECTs with it.
  static QueryNodePtr Zip(QueryNodePtr left, QueryNodePtr right);

  // --- accessors -----------------------------------------------------------
  QueryOp op() const { return op_; }
  const Schema& output_schema() const { return output_schema_; }
  int num_children() const { return static_cast<int>(children_.size()); }
  const QueryNodePtr& child(int i) const { return children_[i]; }

  const std::string& source_name() const { return source_name_; }
  int sharable_label() const { return sharable_label_; }
  const ExprPtr& predicate() const { return predicate_; }
  const SchemaMap& map() const { return map_; }
  AggFn agg_fn() const { return agg_fn_; }
  int agg_attr() const { return agg_attr_; }
  const std::vector<int>& group_by() const { return group_by_; }
  int64_t window() const { return window_; }
  int64_t right_window() const { return right_window_; }
  // Iterate only: predicate split into match / rebind parts.
  const ExprPtr& match_predicate() const { return match_predicate_; }
  const ExprPtr& rebind_predicate() const { return rebind_predicate_; }

  // Structural signature over the whole subtree (definition + children).
  uint64_t Signature() const { return signature_; }
  std::string ToString() const;  // multi-line tree rendering

 private:
  QueryNode() = default;

  QueryOp op_ = QueryOp::kSource;
  Schema output_schema_;
  std::vector<QueryNodePtr> children_;
  uint64_t signature_ = 0;

  std::string source_name_;
  int sharable_label_ = -1;
  ExprPtr predicate_;
  SchemaMap map_;
  AggFn agg_fn_ = AggFn::kCount;
  int agg_attr_ = -1;
  std::vector<int> group_by_;
  int64_t window_ = 0;
  int64_t right_window_ = 0;
  ExprPtr match_predicate_;
  ExprPtr rebind_predicate_;
};

// A named logical query; the plan compiler gives each query one output
// stream named after it (the paper's convention: "we use the query name to
// denote its output stream name").
struct Query {
  std::string name;
  QueryNodePtr root;
  // The catalog queries its RQL text named in FROM (filled by the parser,
  // which inlines their subtrees into `root`); empty for a query over
  // sources only.
  std::vector<std::string> reads = {};
};

// Splits an Iterate predicate into (match, rebind) conjunct groups: a
// conjunct referencing a left attribute with index >= start_size touches the
// instance's last-part and is a rebind conjunct. Exposed for tests.
void SplitIteratePredicate(const ExprPtr& predicate, int start_size,
                           ExprPtr* match, ExprPtr* rebind);

// Checks, before a query runs, that every expression in its tree can run
// over its input schemas (Expr::CheckTypes: predicates are boolean, AND,
// OR and NOT take booleans, arithmetic takes no strings), that SUM and AVG
// read a numeric attribute, that an aggregate window is positive and that a
// join window is not negative. StreamEngine adds only queries that pass.
Status CheckQueryTypes(const QueryNode& node);

}  // namespace rumor

#endif  // RUMOR_QUERY_QUERY_H_
