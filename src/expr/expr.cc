#include "expr/expr.h"

#include <sstream>

#include "common/hash.h"
#include "common/str_util.h"

namespace rumor {

namespace {

const char* ArithOpName(ArithOp op) {
  switch (op) {
    case ArithOp::kAdd: return "+";
    case ArithOp::kSub: return "-";
    case ArithOp::kMul: return "*";
    case ArithOp::kDiv: return "/";
    case ArithOp::kMod: return "%";
  }
  return "?";
}

const char* CmpOpName(CmpOp op) {
  switch (op) {
    case CmpOp::kEq: return "=";
    case CmpOp::kNe: return "!=";
    case CmpOp::kLt: return "<";
    case CmpOp::kLe: return "<=";
    case CmpOp::kGt: return ">";
    case CmpOp::kGe: return ">=";
  }
  return "?";
}

}  // namespace

// Allocation happens inside the static factories, which may access the
// private constructor.
#define RUMOR_NEW_EXPR() std::shared_ptr<Expr>(new Expr())

ExprPtr Expr::Const(Value v) {
  auto e = RUMOR_NEW_EXPR();
  e->kind_ = ExprKind::kConst;
  e->const_ = std::move(v);
  return Seal(std::move(e));
}

ExprPtr Expr::Attr(Side side, int index, std::string name) {
  auto e = RUMOR_NEW_EXPR();
  e->kind_ = ExprKind::kAttr;
  e->side_ = side;
  e->attr_index_ = index;
  e->attr_name_ = std::move(name);
  return Seal(std::move(e));
}

ExprPtr Expr::Ts(Side side) {
  auto e = RUMOR_NEW_EXPR();
  e->kind_ = ExprKind::kTs;
  e->side_ = side;
  return Seal(std::move(e));
}

ExprPtr Expr::Arith(ArithOp op, ExprPtr l, ExprPtr r) {
  auto e = RUMOR_NEW_EXPR();
  e->kind_ = ExprKind::kArith;
  e->arith_op_ = op;
  e->children_ = {std::move(l), std::move(r)};
  return Seal(std::move(e));
}

ExprPtr Expr::Cmp(CmpOp op, ExprPtr l, ExprPtr r) {
  auto e = RUMOR_NEW_EXPR();
  e->kind_ = ExprKind::kCmp;
  e->cmp_op_ = op;
  e->children_ = {std::move(l), std::move(r)};
  return Seal(std::move(e));
}

ExprPtr Expr::And(ExprPtr l, ExprPtr r) {
  auto e = RUMOR_NEW_EXPR();
  e->kind_ = ExprKind::kAnd;
  e->children_ = {std::move(l), std::move(r)};
  return Seal(std::move(e));
}

ExprPtr Expr::Or(ExprPtr l, ExprPtr r) {
  auto e = RUMOR_NEW_EXPR();
  e->kind_ = ExprKind::kOr;
  e->children_ = {std::move(l), std::move(r)};
  return Seal(std::move(e));
}

ExprPtr Expr::Not(ExprPtr c) {
  auto e = RUMOR_NEW_EXPR();
  e->kind_ = ExprKind::kNot;
  e->children_ = {std::move(c)};
  return Seal(std::move(e));
}

ExprPtr Expr::AndAll(const std::vector<ExprPtr>& terms) {
  ExprPtr acc;
  for (const ExprPtr& t : terms) {
    if (t == nullptr) continue;
    acc = acc ? And(acc, t) : t;
  }
  return acc;
}

bool Expr::IsTrivallyTrue(const ExprPtr& e) {
  if (e == nullptr) return true;
  return e->kind_ == ExprKind::kConst &&
         e->const_.type() == ValueType::kBool && e->const_.AsBool();
}

Value Expr::Eval(const ExprContext& ctx) const {
  switch (kind_) {
    case ExprKind::kConst:
      return const_;
    case ExprKind::kAttr: {
      const Tuple* t = side_ == Side::kLeft ? ctx.left : ctx.right;
      RUMOR_DCHECK(t != nullptr) << "unbound side in " << ToString();
      return t->at(attr_index_);
    }
    case ExprKind::kTs: {
      const Tuple* t = side_ == Side::kLeft ? ctx.left : ctx.right;
      RUMOR_DCHECK(t != nullptr) << "unbound side in " << ToString();
      return Value(t->ts());
    }
    case ExprKind::kArith: {
      Value l = children_[0]->Eval(ctx);
      Value r = children_[1]->Eval(ctx);
      switch (arith_op_) {
        case ArithOp::kAdd: return ValueAdd(l, r);
        case ArithOp::kSub: return ValueSub(l, r);
        case ArithOp::kMul: return ValueMul(l, r);
        case ArithOp::kDiv: return ValueDiv(l, r);
        case ArithOp::kMod: return ValueMod(l, r);
      }
      return Value();
    }
    case ExprKind::kCmp: {
      Value l = children_[0]->Eval(ctx);
      Value r = children_[1]->Eval(ctx);
      if (l.is_null() || r.is_null()) return Value(false);
      int c = l.Compare(r);
      switch (cmp_op_) {
        case CmpOp::kEq: return Value(c == 0);
        case CmpOp::kNe: return Value(c != 0);
        case CmpOp::kLt: return Value(c < 0);
        case CmpOp::kLe: return Value(c <= 0);
        case CmpOp::kGt: return Value(c > 0);
        case CmpOp::kGe: return Value(c >= 0);
      }
      return Value();
    }
    case ExprKind::kAnd:
      if (!children_[0]->EvalBool(ctx)) return Value(false);
      return Value(children_[1]->EvalBool(ctx));
    case ExprKind::kOr:
      if (children_[0]->EvalBool(ctx)) return Value(true);
      return Value(children_[1]->EvalBool(ctx));
    case ExprKind::kNot:
      return Value(!children_[0]->EvalBool(ctx));
  }
  return Value();
}

bool Expr::EvalBool(const ExprContext& ctx) const {
  Value v = Eval(ctx);
  if (v.is_null()) return false;
  RUMOR_CHECK(v.type() == ValueType::kBool)
      << "predicate did not evaluate to bool: " << ToString();
  return v.AsBool();
}

bool Expr::Equals(const Expr& other) const {
  if (this == &other) return true;
  if (signature_ != other.signature_ || kind_ != other.kind_) return false;
  switch (kind_) {
    case ExprKind::kConst:
      if (const_.type() != other.const_.type()) return false;
      if (const_ != other.const_) return false;
      break;
    case ExprKind::kAttr:
      if (side_ != other.side_ || attr_index_ != other.attr_index_)
        return false;
      break;
    case ExprKind::kTs:
      if (side_ != other.side_) return false;
      break;
    case ExprKind::kArith:
      if (arith_op_ != other.arith_op_) return false;
      break;
    case ExprKind::kCmp:
      if (cmp_op_ != other.cmp_op_) return false;
      break;
    default:
      break;
  }
  if (children_.size() != other.children_.size()) return false;
  for (size_t i = 0; i < children_.size(); ++i) {
    if (!children_[i]->Equals(*other.children_[i])) return false;
  }
  return true;
}

ExprPtr Expr::Seal(std::shared_ptr<Expr> e) {
  uint64_t h = Mix64(static_cast<uint64_t>(e->kind_));
  switch (e->kind_) {
    case ExprKind::kConst:
      h = HashCombine(h, static_cast<uint64_t>(e->const_.type()));
      h = HashCombine(h, e->const_.Hash());
      break;
    case ExprKind::kAttr:
      h = HashCombine(h, static_cast<uint64_t>(e->side_));
      h = HashCombine(h, static_cast<uint64_t>(e->attr_index_));
      break;
    case ExprKind::kTs:
      h = HashCombine(h, static_cast<uint64_t>(e->side_));
      break;
    case ExprKind::kArith:
      h = HashCombine(h, static_cast<uint64_t>(e->arith_op_));
      break;
    case ExprKind::kCmp:
      h = HashCombine(h, static_cast<uint64_t>(e->cmp_op_));
      break;
    default:
      break;
  }
  for (const ExprPtr& c : e->children_) h = HashCombine(h, c->signature_);
  e->signature_ = h;
  return e;
}

ValueType Expr::InferType(const Schema& left, const Schema* right) const {
  switch (kind_) {
    case ExprKind::kConst:
      return const_.type();
    case ExprKind::kAttr: {
      const Schema* s = side_ == Side::kLeft ? &left : right;
      RUMOR_CHECK(s != nullptr) << "no schema for side in " << ToString();
      RUMOR_CHECK(attr_index_ >= 0 && attr_index_ < s->size())
          << "attribute index out of range in " << ToString();
      return s->attribute(attr_index_).type;
    }
    case ExprKind::kTs:
      return ValueType::kInt;
    case ExprKind::kArith: {
      ValueType a = children_[0]->InferType(left, right);
      ValueType b = children_[1]->InferType(left, right);
      if (a == ValueType::kInt && b == ValueType::kInt) return ValueType::kInt;
      return ValueType::kDouble;
    }
    case ExprKind::kCmp:
    case ExprKind::kAnd:
    case ExprKind::kOr:
    case ExprKind::kNot:
      return ValueType::kBool;
  }
  return ValueType::kNull;
}

Status Expr::CheckTypes(const Schema& left, const Schema* right,
                        bool predicate) const {
  if (kind_ == ExprKind::kAttr || kind_ == ExprKind::kTs) {
    const Schema* s = side_ == Side::kLeft ? &left : right;
    if (s == nullptr ||
        (kind_ == ExprKind::kAttr &&
         (attr_index_ < 0 || attr_index_ >= s->size()))) {
      return Status::InvalidArgument(
          StrCat("no attribute ", ToString(), " on its side"));
    }
  }
  for (const ExprPtr& c : children_) {
    RUMOR_RETURN_IF_ERROR(c->CheckTypes(left, right, /*predicate=*/false));
    const ValueType t = c->InferType(left, right);
    if (kind_ == ExprKind::kArith && t == ValueType::kString) {
      return Status::InvalidArgument(
          StrCat("string operand of arithmetic in ", ToString()));
    }
    if ((kind_ == ExprKind::kAnd || kind_ == ExprKind::kOr ||
         kind_ == ExprKind::kNot) &&
        t != ValueType::kBool) {
      return Status::InvalidArgument(
          StrCat("non-boolean operand ", c->ToString(), " in ", ToString()));
    }
  }
  if (predicate && InferType(left, right) != ValueType::kBool) {
    return Status::InvalidArgument(
        StrCat("predicate ", ToString(), " is not boolean"));
  }
  return Status::OK();
}

std::string Expr::ToString() const {
  std::ostringstream os;
  switch (kind_) {
    case ExprKind::kConst:
      os << const_.ToString();
      break;
    case ExprKind::kAttr:
      os << (side_ == Side::kLeft ? "l." : "r.");
      if (!attr_name_.empty()) {
        os << attr_name_;
      } else {
        os << "a" << attr_index_;
      }
      break;
    case ExprKind::kTs:
      os << (side_ == Side::kLeft ? "l.ts" : "r.ts");
      break;
    case ExprKind::kArith:
      os << "(" << children_[0]->ToString() << " " << ArithOpName(arith_op_)
         << " " << children_[1]->ToString() << ")";
      break;
    case ExprKind::kCmp:
      os << "(" << children_[0]->ToString() << " " << CmpOpName(cmp_op_)
         << " " << children_[1]->ToString() << ")";
      break;
    case ExprKind::kAnd:
      os << "(" << children_[0]->ToString() << " AND "
         << children_[1]->ToString() << ")";
      break;
    case ExprKind::kOr:
      os << "(" << children_[0]->ToString() << " OR "
         << children_[1]->ToString() << ")";
      break;
    case ExprKind::kNot:
      os << "(NOT " << children_[0]->ToString() << ")";
      break;
  }
  return os.str();
}

bool ExprEquals(const ExprPtr& a, const ExprPtr& b) {
  if (a == b) return true;
  if (a == nullptr || b == nullptr) {
    return Expr::IsTrivallyTrue(a) && Expr::IsTrivallyTrue(b);
  }
  return a->Equals(*b);
}

}  // namespace rumor
