// Program: expressions compiled to a flat postfix instruction sequence with
// short-circuit jumps. Hot operators (predicate index residuals, join and
// pattern predicates) evaluate Programs instead of walking trees; both forms
// have identical semantics (property-tested).
//
// Threading contract: a Program is immutable after Compile and carries no
// mutable state — one Program may be shared by any number of threads. Each
// evaluation needs scratch space; callers either pass an explicit
// EvalScratch (parallel executors: one per thread) or use the convenience
// overloads, which borrow a thread_local scratch.
//
// Fast paths (selected automatically at Compile):
//  * int-typed register evaluation — when the program provably computes a
//    boolean over int attributes and int/bool constants (type-simulated at
//    compile time), EvalBool runs on a raw int64 stack with no Value
//    boxing. A per-attribute runtime tag check guards the proof (the shape
//    analysis cannot see schemas); a non-int attribute or a zero divisor
//    falls back to the generic evaluator for that tuple, so semantics are
//    byte-identical.
//  * fused single-comparison — programs of the shape `attr <op> const-int`
//    skip interpreter dispatch entirely in EvalBool and EvalBoolBatch.
//    `fused()` exposes that form, so a predicate index can store it inline
//    in its probe buckets and run the Program only when the attribute is
//    not an int.
#ifndef RUMOR_EXPR_PROGRAM_H_
#define RUMOR_EXPR_PROGRAM_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/bitvector.h"
#include "common/metrics.h"
#include "expr/expr.h"
#include "stream/channel.h"

namespace rumor {

// Fast-path efficacy counters for boolean predicate evaluation, summed over
// every Program on the thread (Programs are immutable and shared, so the
// counters live beside the thread's EvalScratch rather than in the Program).
// `typed_fallbacks` counts typed evaluations that bailed to the generic
// evaluator on a non-int attribute or a zero divisor (those evals are also
// in `generic`).
struct ProgramCounters {
  int64_t fused = 0;    // fused attr-op-const comparisons
  int64_t typed = 0;    // int64-register evaluations that completed
  int64_t generic = 0;  // Value-stack boolean evaluations
  int64_t typed_fallbacks = 0;

  int64_t total() const { return fused + typed + generic; }
  // Share of boolean evaluations served without Value boxing.
  double vectorized_share() const {
    const int64_t t = total();
    return t > 0 ? static_cast<double>(fused + typed) / t : 0.0;
  }
};

namespace internal {
inline thread_local ProgramCounters tl_program_counters;
}  // namespace internal

enum class OpCode : uint8_t {
  kPushConst,   // push constants_[arg]
  kPushAttr,    // push tuple(side)[arg]
  kPushTs,      // push tuple(side).ts
  kAdd, kSub, kMul, kDiv, kMod,
  kEq, kNe, kLt, kLe, kGt, kGe,
  kNot,
  // Short-circuit jumps: if top of stack is false/true, jump to arg (keeping
  // the top as the result); otherwise pop and fall through.
  kJumpIfFalsePeek,
  kJumpIfTruePeek,
};

struct Instruction {
  OpCode op;
  Side side = Side::kLeft;
  int32_t arg = 0;
};

// `a <op> b` for a comparison opcode (kEq..kGe).
inline bool CompareInts(OpCode op, int64_t a, int64_t b) {
  switch (op) {
    case OpCode::kEq: return a == b;
    case OpCode::kNe: return a != b;
    case OpCode::kLt: return a < b;
    case OpCode::kLe: return a <= b;
    case OpCode::kGt: return a > b;
    default: return a >= b;
  }
}

// The fused form `left.attr <op> constant` of a single int comparison.
struct FusedCompare {
  int attr = 0;
  OpCode op = OpCode::kEq;
  int64_t constant = 0;
};

// Reusable evaluation scratch; one per evaluating thread.
struct EvalScratch {
  std::vector<Value> stack;
};

class Program {
 public:
  Program() = default;

  // Compiles `expr`; a null expr compiles to a constant-true program.
  static Program Compile(const ExprPtr& expr);

  // Evaluates against `ctx` using the caller's scratch.
  Value Eval(const ExprContext& ctx, EvalScratch& scratch) const;
  // Convenience overload borrowing a thread_local scratch.
  Value Eval(const ExprContext& ctx) const;

  // Evaluates and coerces to bool (null reads as false; other non-bool
  // results CHECK). Takes the fused-comparison or typed int register path
  // when the program is int-specialized and the referenced attributes are
  // ints at runtime.
  bool EvalBool(const ExprContext& ctx) const {
    if (fused_) {
      const Value& v = ctx.left->at(fused_->attr);
      if (v.type() == ValueType::kInt) {
        RUMOR_METRIC(++internal::tl_program_counters.fused);
        return CompareInts(fused_->op, v.AsIntUnchecked(), fused_->constant);
      }
    } else if (int_specialized_) {
      bool result;
      if (EvalBoolTyped(ctx.left, ctx.right, &result)) return result;
    }
    return EvalBoolGeneric(ctx);
  }

  // Batch evaluation of a left-side (selection-style) predicate: sets
  // matches bit i iff the program is true for tuples[i].tuple. `matches` is
  // resized to n and cleared first.
  void EvalBoolBatch(const ChannelTuple* tuples, size_t n,
                     BitVector& matches) const;
  // As above, but tuples whose membership bit `slot` is unset are skipped
  // (bit stays 0) without evaluating — exactly the per-tuple gating of the
  // scalar m-op paths.
  void EvalBoolBatchGated(const ChannelTuple* tuples, size_t n, int slot,
                          BitVector& matches) const;

  // True when the typed int fast path is compiled in (observability/tests).
  bool int_specialized() const { return int_specialized_; }
  // The fused single-comparison form, when Compile found one. A caller that
  // evaluates it inline must fall back to EvalBool on a non-int attribute
  // and count the inline evaluation in ProgramCounters::fused.
  const std::optional<FusedCompare>& fused() const { return fused_; }
  // Heap bytes owned by the code and constant vectors (memory accounting).
  int64_t ApproxBytes() const {
    return static_cast<int64_t>(code_.capacity() * sizeof(Instruction) +
                                constants_.capacity() * sizeof(Value) +
                                int_constants_.capacity() * sizeof(int64_t));
  }

  // This thread's fast-path efficacy counters (see ProgramCounters).
  static const ProgramCounters& counters() {
    return internal::tl_program_counters;
  }
  static void ResetCounters() { internal::tl_program_counters = {}; }

  int size() const { return static_cast<int>(code_.size()); }
  bool empty() const { return code_.empty(); }
  std::string ToString() const;

 private:
  void Emit(const ExprPtr& expr);
  // Type-simulates the code over (attrs: int, ts: int) and records the
  // int-typed plan if the simulation proves a bool result; also detects the
  // fused single-comparison shape.
  void Specialize();

  Value EvalGeneric(const ExprContext& ctx, EvalScratch& scratch) const;
  bool EvalBoolGeneric(const ExprContext& ctx) const;
  // Typed evaluation; returns false (caller must fall back) when a
  // referenced attribute is not an int at runtime.
  bool EvalBoolTyped(const Tuple* left, const Tuple* right,
                     bool* result) const;

  std::vector<Instruction> code_;
  std::vector<Value> constants_;

  // --- typed fast path (immutable after Compile) ---------------------------
  static constexpr int kMaxTypedDepth = 32;
  bool int_specialized_ = false;
  std::vector<int64_t> int_constants_;  // constants_ lowered; bools as 0/1

  // Fused `attr <op> const` form (implies int_specialized_).
  std::optional<FusedCompare> fused_;
};

}  // namespace rumor

#endif  // RUMOR_EXPR_PROGRAM_H_
