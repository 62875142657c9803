// Expression trees over a (left, right) pair of tuples.
//
// Selections and schema maps on a single stream use only the left side.
// Join, sequence (;) and iterate (µ) predicates reference both sides; for µ
// rebind predicates the left side is the partially-built automaton *instance*
// (the paper's `last`), the right side the incoming event.
//
// Expressions are immutable and shared (ExprPtr). Structural equality and
// 64-bit signatures implement the "same definition" tests that m-rule
// conditions rely on (paper §2.3, §3.2).
#ifndef RUMOR_EXPR_EXPR_H_
#define RUMOR_EXPR_EXPR_H_

#include <memory>
#include <string>
#include <vector>

#include "common/schema.h"
#include "common/status.h"
#include "common/tuple.h"
#include "common/value.h"

namespace rumor {

enum class Side : uint8_t { kLeft = 0, kRight = 1 };

enum class ExprKind : uint8_t {
  kConst,
  kAttr,   // attribute reference (side, index)
  kTs,     // timestamp reference (side)
  kArith,  // binary arithmetic
  kCmp,    // binary comparison -> bool
  kAnd,    // binary logical and (short-circuit)
  kOr,     // binary logical or (short-circuit)
  kNot,    // unary logical not
};

enum class ArithOp : uint8_t { kAdd, kSub, kMul, kDiv, kMod };
enum class CmpOp : uint8_t { kEq, kNe, kLt, kLe, kGt, kGe };

class Expr;
using ExprPtr = std::shared_ptr<const Expr>;

// Evaluation context: tuples may be null when a side is absent (e.g. a
// selection predicate only binds the left side).
struct ExprContext {
  const Tuple* left = nullptr;
  const Tuple* right = nullptr;
};

class Expr {
 public:
  // --- factories -----------------------------------------------------------
  static ExprPtr Const(Value v);
  static ExprPtr ConstInt(int64_t v) { return Const(Value(v)); }
  static ExprPtr ConstBool(bool v) { return Const(Value(v)); }
  // `name` is for display only; evaluation uses the index.
  static ExprPtr Attr(Side side, int index, std::string name = "");
  static ExprPtr Ts(Side side);
  static ExprPtr Arith(ArithOp op, ExprPtr l, ExprPtr r);
  static ExprPtr Cmp(CmpOp op, ExprPtr l, ExprPtr r);
  static ExprPtr And(ExprPtr l, ExprPtr r);
  static ExprPtr Or(ExprPtr l, ExprPtr r);
  static ExprPtr Not(ExprPtr e);
  // Conjunction of all `terms` (nullptr/"true" when empty).
  static ExprPtr AndAll(const std::vector<ExprPtr>& terms);

  // --- accessors -----------------------------------------------------------
  ExprKind kind() const { return kind_; }
  const Value& const_value() const { return const_; }
  Side side() const { return side_; }
  int attr_index() const { return attr_index_; }
  const std::string& attr_name() const { return attr_name_; }
  ArithOp arith_op() const { return arith_op_; }
  CmpOp cmp_op() const { return cmp_op_; }
  int num_children() const { return static_cast<int>(children_.size()); }
  const ExprPtr& child(int i) const { return children_[i]; }

  // --- evaluation ----------------------------------------------------------
  // Tree-walking evaluation (the reference semantics; see Program for the
  // compiled form used on hot paths). AND/OR short-circuit.
  Value Eval(const ExprContext& ctx) const;
  // Evaluates and coerces to bool: null reads as false, other non-bool
  // results CHECK (CheckTypes rules them out).
  bool EvalBool(const ExprContext& ctx) const;

  // --- structure -----------------------------------------------------------
  // Deep structural equality (definition identity for m-rules).
  bool Equals(const Expr& other) const;
  // Hash consistent with Equals, computed once by the factory (expressions
  // are immutable).
  uint64_t Signature() const { return signature_; }
  // Result type given the input schemas (`right` may be null).
  ValueType InferType(const Schema& left, const Schema* right) const;
  // What makes the expression safe to run over (left, right): every
  // attribute exists, arithmetic takes no string operand, AND, OR and NOT
  // take boolean operands, and with `predicate` the result is boolean.
  // InvalidArgument names the first violation.
  Status CheckTypes(const Schema& left, const Schema* right,
                    bool predicate) const;
  // e.g. "(l.a0 = 5 AND r.a1 > l.a2)".
  std::string ToString() const;

  // True for a null or constant-true predicate (used for residuals).
  static bool IsTrivallyTrue(const ExprPtr& e);

 private:
  Expr() = default;
  // Hashes the node and its children's cached signatures; each factory ends
  // with it.
  static ExprPtr Seal(std::shared_ptr<Expr> e);

  ExprKind kind_ = ExprKind::kConst;
  Value const_;
  Side side_ = Side::kLeft;
  int attr_index_ = -1;
  std::string attr_name_;
  ArithOp arith_op_ = ArithOp::kAdd;
  CmpOp cmp_op_ = CmpOp::kEq;
  std::vector<ExprPtr> children_;
  uint64_t signature_ = 0;
};

// Evaluates a possibly-null predicate: null means "true".
inline bool EvalPredicate(const ExprPtr& pred, const ExprContext& ctx) {
  return pred == nullptr || pred->EvalBool(ctx);
}

// Signature of a possibly-null predicate (0 for null).
inline uint64_t PredicateSignature(const ExprPtr& pred) {
  return pred ? pred->Signature() : 0;
}

// Deep equality of possibly-null predicates.
bool ExprEquals(const ExprPtr& a, const ExprPtr& b);

}  // namespace rumor

#endif  // RUMOR_EXPR_EXPR_H_
