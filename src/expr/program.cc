#include "expr/program.h"

#include <sstream>

namespace rumor {

namespace {

EvalScratch& ThreadScratch() {
  static thread_local EvalScratch scratch;
  return scratch;
}

}  // namespace

Program Program::Compile(const ExprPtr& expr) {
  Program p;
  if (expr == nullptr) {
    p.constants_.push_back(Value(true));
    p.code_.push_back({OpCode::kPushConst, Side::kLeft, 0});
  } else {
    p.Emit(expr);
  }
  p.Specialize();
  return p;
}

void Program::Emit(const ExprPtr& e) {
  switch (e->kind()) {
    case ExprKind::kConst: {
      constants_.push_back(e->const_value());
      code_.push_back({OpCode::kPushConst, Side::kLeft,
                       static_cast<int32_t>(constants_.size() - 1)});
      return;
    }
    case ExprKind::kAttr:
      code_.push_back({OpCode::kPushAttr, e->side(),
                       static_cast<int32_t>(e->attr_index())});
      return;
    case ExprKind::kTs:
      code_.push_back({OpCode::kPushTs, e->side(), 0});
      return;
    case ExprKind::kArith: {
      Emit(e->child(0));
      Emit(e->child(1));
      OpCode op = OpCode::kAdd;
      switch (e->arith_op()) {
        case ArithOp::kAdd: op = OpCode::kAdd; break;
        case ArithOp::kSub: op = OpCode::kSub; break;
        case ArithOp::kMul: op = OpCode::kMul; break;
        case ArithOp::kDiv: op = OpCode::kDiv; break;
        case ArithOp::kMod: op = OpCode::kMod; break;
      }
      code_.push_back({op, Side::kLeft, 0});
      return;
    }
    case ExprKind::kCmp: {
      Emit(e->child(0));
      Emit(e->child(1));
      OpCode op = OpCode::kAdd;
      switch (e->cmp_op()) {
        case CmpOp::kEq: op = OpCode::kEq; break;
        case CmpOp::kNe: op = OpCode::kNe; break;
        case CmpOp::kLt: op = OpCode::kLt; break;
        case CmpOp::kLe: op = OpCode::kLe; break;
        case CmpOp::kGt: op = OpCode::kGt; break;
        case CmpOp::kGe: op = OpCode::kGe; break;
      }
      code_.push_back({op, Side::kLeft, 0});
      return;
    }
    case ExprKind::kAnd:
    case ExprKind::kOr: {
      Emit(e->child(0));
      OpCode jmp = e->kind() == ExprKind::kAnd ? OpCode::kJumpIfFalsePeek
                                               : OpCode::kJumpIfTruePeek;
      size_t patch = code_.size();
      code_.push_back({jmp, Side::kLeft, 0});
      Emit(e->child(1));
      code_[patch].arg = static_cast<int32_t>(code_.size());
      return;
    }
    case ExprKind::kNot:
      Emit(e->child(0));
      code_.push_back({OpCode::kNot, Side::kLeft, 0});
      return;
  }
}

void Program::Specialize() {
  // Abstract kinds for the compile-time type simulation. Bools are lowered
  // to int64 0/1 at runtime; the simulation only tracks bool-ness where the
  // generic evaluator enforces it (kNot, jumps, and the final EvalBool
  // coercion all CHECK for kBool).
  enum class Kind : uint8_t { kInt, kBool };
  struct Join {  // expected stack state at a jump target
    int depth;
  };

  int_constants_.clear();
  int_constants_.reserve(constants_.size());
  for (const Value& c : constants_) {
    if (c.type() == ValueType::kInt) {
      int_constants_.push_back(c.AsInt());
    } else if (c.type() == ValueType::kBool) {
      int_constants_.push_back(c.AsBool() ? 1 : 0);
    } else {
      return;  // double/string/null constant: stay generic
    }
  }

  std::vector<Kind> sim;
  // One expected-join record per pc (depth, -1 = none). Join points arise
  // only from short-circuit jumps; both paths arrive with the same depth and
  // a bool on top, which the simulation verifies.
  std::vector<int> join_depth(code_.size() + 1, -1);
  for (size_t pc = 0; pc < code_.size(); ++pc) {
    if (join_depth[pc] >= 0) {
      if (static_cast<int>(sim.size()) != join_depth[pc]) return;
      if (sim.empty() || sim.back() != Kind::kBool) return;
    }
    const Instruction& ins = code_[pc];
    switch (ins.op) {
      case OpCode::kPushConst:
        sim.push_back(constants_[ins.arg].type() == ValueType::kBool
                          ? Kind::kBool
                          : Kind::kInt);
        break;
      case OpCode::kPushAttr:  // int assumed; guarded per tuple at runtime
      case OpCode::kPushTs:
        sim.push_back(Kind::kInt);
        break;
      case OpCode::kAdd:
      case OpCode::kSub:
      case OpCode::kMul:
      case OpCode::kDiv:
      case OpCode::kMod: {
        // Generic semantics keep int op int in int64; a bool operand would
        // promote to double, which the typed path cannot represent.
        if (sim.size() < 2) return;
        Kind b = sim.back();
        sim.pop_back();
        Kind a = sim.back();
        if (a != Kind::kInt || b != Kind::kInt) return;
        sim.back() = Kind::kInt;
        break;
      }
      case OpCode::kEq:
      case OpCode::kNe:
      case OpCode::kLt:
      case OpCode::kLe:
      case OpCode::kGt:
      case OpCode::kGe:
        // int/bool operands in any mix compare numerically; lowering bools
        // to 0/1 int64 preserves the ordering exactly.
        if (sim.size() < 2) return;
        sim.pop_back();
        sim.back() = Kind::kBool;
        break;
      case OpCode::kNot:
        if (sim.empty() || sim.back() != Kind::kBool) return;
        break;
      case OpCode::kJumpIfFalsePeek:
      case OpCode::kJumpIfTruePeek: {
        if (sim.empty() || sim.back() != Kind::kBool) return;
        const size_t target = static_cast<size_t>(ins.arg);
        if (target <= pc || target > code_.size()) return;
        // Taken path keeps the bool top; record the expected join state.
        if (target < join_depth.size()) {
          join_depth[target] = static_cast<int>(sim.size());
        }
        sim.pop_back();  // fall-through pops
        break;
      }
    }
    if (static_cast<int>(sim.size()) > kMaxTypedDepth) return;
  }
  if (sim.size() != 1 || sim.back() != Kind::kBool) return;
  int_specialized_ = true;

  // Fused shape: exactly [PushAttr(left), PushConst, cmp].
  if (code_.size() == 3 && code_[0].op == OpCode::kPushAttr &&
      code_[0].side == Side::kLeft && code_[1].op == OpCode::kPushConst &&
      code_[2].op >= OpCode::kEq && code_[2].op <= OpCode::kGe) {
    fused_ = FusedCompare{code_[0].arg, code_[2].op,
                          int_constants_[code_[1].arg]};
  }
}

Value Program::Eval(const ExprContext& ctx, EvalScratch& scratch) const {
  return EvalGeneric(ctx, scratch);
}

Value Program::Eval(const ExprContext& ctx) const {
  return EvalGeneric(ctx, ThreadScratch());
}

Value Program::EvalGeneric(const ExprContext& ctx,
                           EvalScratch& scratch) const {
  std::vector<Value>& st = scratch.stack;
  st.clear();
  size_t pc = 0;
  const size_t n = code_.size();
  while (pc < n) {
    const Instruction& ins = code_[pc];
    switch (ins.op) {
      case OpCode::kPushConst:
        st.push_back(constants_[ins.arg]);
        ++pc;
        break;
      case OpCode::kPushAttr: {
        const Tuple* t = ins.side == Side::kLeft ? ctx.left : ctx.right;
        RUMOR_DCHECK(t != nullptr);
        st.push_back(t->at(ins.arg));
        ++pc;
        break;
      }
      case OpCode::kPushTs: {
        const Tuple* t = ins.side == Side::kLeft ? ctx.left : ctx.right;
        RUMOR_DCHECK(t != nullptr);
        st.push_back(Value(t->ts()));
        ++pc;
        break;
      }
      case OpCode::kJumpIfFalsePeek: {
        RUMOR_DCHECK(!st.empty());
        const Value& top = st.back();
        RUMOR_CHECK(top.type() == ValueType::kBool);
        if (!top.AsBool()) {
          pc = static_cast<size_t>(ins.arg);
        } else {
          st.pop_back();
          ++pc;
        }
        break;
      }
      case OpCode::kJumpIfTruePeek: {
        RUMOR_DCHECK(!st.empty());
        const Value& top = st.back();
        RUMOR_CHECK(top.type() == ValueType::kBool);
        if (top.AsBool()) {
          pc = static_cast<size_t>(ins.arg);
        } else {
          st.pop_back();
          ++pc;
        }
        break;
      }
      case OpCode::kNot: {
        RUMOR_DCHECK(!st.empty());
        Value v = st.back();
        st.pop_back();
        RUMOR_CHECK(v.type() == ValueType::kBool);
        st.push_back(Value(!v.AsBool()));
        ++pc;
        break;
      }
      default: {
        RUMOR_DCHECK(st.size() >= 2);
        Value b = st.back();
        st.pop_back();
        Value a = st.back();
        st.pop_back();
        switch (ins.op) {
          case OpCode::kAdd: st.push_back(ValueAdd(a, b)); break;
          case OpCode::kSub: st.push_back(ValueSub(a, b)); break;
          case OpCode::kMul: st.push_back(ValueMul(a, b)); break;
          case OpCode::kDiv: st.push_back(ValueDiv(a, b)); break;
          case OpCode::kMod: st.push_back(ValueMod(a, b)); break;
          case OpCode::kEq: st.push_back(Value(a.Compare(b) == 0)); break;
          case OpCode::kNe: st.push_back(Value(a.Compare(b) != 0)); break;
          case OpCode::kLt: st.push_back(Value(a.Compare(b) < 0)); break;
          case OpCode::kLe: st.push_back(Value(a.Compare(b) <= 0)); break;
          case OpCode::kGt: st.push_back(Value(a.Compare(b) > 0)); break;
          case OpCode::kGe: st.push_back(Value(a.Compare(b) >= 0)); break;
          default: RUMOR_CHECK(false) << "bad opcode";
        }
        ++pc;
        break;
      }
    }
  }
  RUMOR_CHECK(st.size() == 1) << "program left " << st.size() << " values";
  return st.back();
}

bool Program::EvalBoolGeneric(const ExprContext& ctx) const {
  RUMOR_METRIC(++internal::tl_program_counters.generic);
  Value v = EvalGeneric(ctx, ThreadScratch());
  RUMOR_CHECK(v.type() == ValueType::kBool) << "program result not bool";
  return v.AsBool();
}

bool Program::EvalBoolTyped(const Tuple* left, const Tuple* right,
                            bool* result) const {
  int64_t st[kMaxTypedDepth];
  int sp = 0;
  size_t pc = 0;
  const size_t n = code_.size();
  const Instruction* code = code_.data();
  while (pc < n) {
    const Instruction& ins = code[pc];
    switch (ins.op) {
      case OpCode::kPushConst:
        st[sp++] = int_constants_[ins.arg];
        ++pc;
        break;
      case OpCode::kPushAttr: {
        const Tuple* t = ins.side == Side::kLeft ? left : right;
        RUMOR_DCHECK(t != nullptr);
        const Value& v = t->at(ins.arg);
        if (v.type() != ValueType::kInt) {
          RUMOR_METRIC(++internal::tl_program_counters.typed_fallbacks);
          return false;  // generic fallback
        }
        st[sp++] = v.AsIntUnchecked();
        ++pc;
        break;
      }
      case OpCode::kPushTs: {
        const Tuple* t = ins.side == Side::kLeft ? left : right;
        RUMOR_DCHECK(t != nullptr);
        st[sp++] = t->ts();
        ++pc;
        break;
      }
      case OpCode::kJumpIfFalsePeek:
        if (st[sp - 1] == 0) {
          pc = static_cast<size_t>(ins.arg);
        } else {
          --sp;
          ++pc;
        }
        break;
      case OpCode::kJumpIfTruePeek:
        if (st[sp - 1] != 0) {
          pc = static_cast<size_t>(ins.arg);
        } else {
          --sp;
          ++pc;
        }
        break;
      case OpCode::kNot:
        st[sp - 1] = st[sp - 1] == 0 ? 1 : 0;
        ++pc;
        break;
      default: {
        const int64_t b = st[--sp];
        int64_t& a = st[sp - 1];
        switch (ins.op) {
          case OpCode::kAdd: a = a + b; break;
          case OpCode::kSub: a = a - b; break;
          case OpCode::kMul: a = a * b; break;
          case OpCode::kDiv:
            RUMOR_CHECK(b != 0) << "integer division by zero";
            a = a / b;
            break;
          case OpCode::kMod:
            RUMOR_CHECK(b != 0) << "modulo by zero";
            a = a % b;
            break;
          case OpCode::kEq: a = a == b ? 1 : 0; break;
          case OpCode::kNe: a = a != b ? 1 : 0; break;
          case OpCode::kLt: a = a < b ? 1 : 0; break;
          case OpCode::kLe: a = a <= b ? 1 : 0; break;
          case OpCode::kGt: a = a > b ? 1 : 0; break;
          case OpCode::kGe: a = a >= b ? 1 : 0; break;
          default: RUMOR_CHECK(false) << "bad opcode";
        }
        ++pc;
        break;
      }
    }
  }
  *result = st[sp - 1] != 0;
  RUMOR_METRIC(++internal::tl_program_counters.typed);
  return true;
}

void Program::EvalBoolBatch(const ChannelTuple* tuples, size_t n,
                            BitVector& matches) const {
  matches.AssignZero(static_cast<int>(n));
  if (fused_) {
    const FusedCompare cmp = *fused_;
    for (size_t i = 0; i < n; ++i) {
      const Value& v = tuples[i].tuple.at(cmp.attr);
      bool m;
      if (v.type() == ValueType::kInt) {
        RUMOR_METRIC(++internal::tl_program_counters.fused);
        m = CompareInts(cmp.op, v.AsIntUnchecked(), cmp.constant);
      } else {
        m = EvalBoolGeneric(ExprContext{&tuples[i].tuple, nullptr});
      }
      if (m) matches.Set(static_cast<int>(i));
    }
    return;
  }
  if (int_specialized_) {
    for (size_t i = 0; i < n; ++i) {
      bool m;
      if (!EvalBoolTyped(&tuples[i].tuple, nullptr, &m)) {
        m = EvalBoolGeneric(ExprContext{&tuples[i].tuple, nullptr});
      }
      if (m) matches.Set(static_cast<int>(i));
    }
    return;
  }
  for (size_t i = 0; i < n; ++i) {
    if (EvalBoolGeneric(ExprContext{&tuples[i].tuple, nullptr})) {
      matches.Set(static_cast<int>(i));
    }
  }
}

void Program::EvalBoolBatchGated(const ChannelTuple* tuples, size_t n,
                                 int slot, BitVector& matches) const {
  matches.AssignZero(static_cast<int>(n));
  for (size_t i = 0; i < n; ++i) {
    if (!tuples[i].membership.Test(slot)) continue;
    if (EvalBool(ExprContext{&tuples[i].tuple, nullptr})) {
      matches.Set(static_cast<int>(i));
    }
  }
}

std::string Program::ToString() const {
  std::ostringstream os;
  for (size_t i = 0; i < code_.size(); ++i) {
    const Instruction& ins = code_[i];
    os << i << ": op=" << static_cast<int>(ins.op)
       << " side=" << static_cast<int>(ins.side) << " arg=" << ins.arg
       << "\n";
  }
  return os.str();
}

}  // namespace rumor
