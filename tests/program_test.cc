#include "expr/program.h"

#include <gtest/gtest.h>

#include <bit>
#include <limits>
#include <string>

#include "common/rng.h"

namespace rumor {
namespace {

TEST(ProgramTest, NullCompilesToTrue) {
  Program p = Program::Compile(nullptr);
  ExprContext ctx;
  EXPECT_TRUE(p.EvalBool(ctx));
}

TEST(ProgramTest, SimplePredicate) {
  auto e = Expr::Cmp(CmpOp::kEq, Expr::Attr(Side::kLeft, 0),
                     Expr::ConstInt(5));
  Program p = Program::Compile(e);
  Tuple yes = Tuple::MakeInts({5}, 0), no = Tuple::MakeInts({6}, 0);
  ExprContext cy{&yes, nullptr}, cn{&no, nullptr};
  EXPECT_TRUE(p.EvalBool(cy));
  EXPECT_FALSE(p.EvalBool(cn));
}

TEST(ProgramTest, ShortCircuitAnd) {
  // The right side divides by zero: null, so false, were it evaluated.
  auto div = Expr::Cmp(
      CmpOp::kGt,
      Expr::Arith(ArithOp::kDiv, Expr::ConstInt(1), Expr::ConstInt(0)),
      Expr::ConstInt(0));
  Program p = Program::Compile(Expr::And(Expr::ConstBool(false), div));
  ExprContext ctx;
  EXPECT_FALSE(p.EvalBool(ctx));
}

TEST(ProgramTest, ShortCircuitOr) {
  auto div = Expr::Cmp(
      CmpOp::kGt,
      Expr::Arith(ArithOp::kDiv, Expr::ConstInt(1), Expr::ConstInt(0)),
      Expr::ConstInt(0));
  Program p = Program::Compile(Expr::Or(Expr::ConstBool(true), div));
  ExprContext ctx;
  EXPECT_TRUE(p.EvalBool(ctx));
}

TEST(ProgramTest, ArithmeticChain) {
  // ((l.a0 + 3) * r.a1) % 7
  auto e = Expr::Arith(
      ArithOp::kMod,
      Expr::Arith(ArithOp::kMul,
                  Expr::Arith(ArithOp::kAdd, Expr::Attr(Side::kLeft, 0),
                              Expr::ConstInt(3)),
                  Expr::Attr(Side::kRight, 1)),
      Expr::ConstInt(7));
  Program p = Program::Compile(e);
  Tuple l = Tuple::MakeInts({4}, 0), r = Tuple::MakeInts({0, 5}, 0);
  ExprContext ctx{&l, &r};
  EXPECT_EQ(p.Eval(ctx).AsInt(), ((4 + 3) * 5) % 7);
}

// A value's type and exact bits, so equal renderings of different values
// cannot hide a mismatch.
std::string Bits(const Value& v) {
  std::string out = std::to_string(static_cast<int>(v.type())) + ":";
  if (v.type() == ValueType::kDouble) {
    return out + std::to_string(std::bit_cast<uint64_t>(v.AsDouble()));
  }
  return out + v.ToString();
}

// The arithmetic semantics, each case through the tree, the generic
// program and (as `case <op> expected`, which the typed path runs when the
// operands are ints) the typed one: int64 + - * wrap, INT64_MIN / -1 wraps,
// INT64_MIN % -1 is 0, / and % by zero and % of a non-int are null, null
// propagates, and a comparison with null is false.
TEST(ProgramTest, ArithmeticEdgeCases) {
  constexpr int64_t kMin = std::numeric_limits<int64_t>::min();
  constexpr int64_t kMax = std::numeric_limits<int64_t>::max();
  struct Case {
    Value a;
    ArithOp op;
    Value b;
    Value want;  // null: the result is null
  };
  const std::vector<Case> cases = {
      {Value(kMax), ArithOp::kAdd, Value(int64_t{1}), Value(kMin)},
      {Value(kMin), ArithOp::kSub, Value(int64_t{1}), Value(kMax)},
      {Value(kMin), ArithOp::kMul, Value(int64_t{-1}), Value(kMin)},
      {Value(kMax), ArithOp::kMul, Value(int64_t{2}), Value(int64_t{-2})},
      {Value(kMin), ArithOp::kDiv, Value(int64_t{-1}), Value(kMin)},
      {Value(kMin), ArithOp::kMod, Value(int64_t{-1}), Value(int64_t{0})},
      {Value(int64_t{-7}), ArithOp::kDiv, Value(int64_t{2}),
       Value(int64_t{-3})},
      {Value(int64_t{-7}), ArithOp::kMod, Value(int64_t{2}),
       Value(int64_t{-1})},
      {Value(int64_t{7}), ArithOp::kDiv, Value(int64_t{0}), Value()},
      {Value(int64_t{7}), ArithOp::kMod, Value(int64_t{0}), Value()},
      {Value(7.5), ArithOp::kDiv, Value(int64_t{0}), Value()},
      {Value(7.5), ArithOp::kDiv, Value(0.0), Value()},
      {Value(7.5), ArithOp::kMod, Value(int64_t{2}), Value()},
      {Value(int64_t{7}), ArithOp::kMod, Value(2.0), Value()},
      {Value(7.5), ArithOp::kDiv, Value(int64_t{2}), Value(3.75)},
  };
  for (const Case& c : cases) {
    // Attributes, so no constant folding or fused form hides a path.
    const Tuple t = Tuple::Make({c.a, c.b}, 0);
    const ExprContext ctx{&t, nullptr};
    const ExprPtr e = Expr::Arith(c.op, Expr::Attr(Side::kLeft, 0),
                                  Expr::Attr(Side::kLeft, 1));
    const std::string label = e->ToString() + " over " + t.ToString();
    EXPECT_EQ(Bits(e->Eval(ctx)), Bits(c.want)) << label;
    EXPECT_EQ(Bits(Program::Compile(e).Eval(ctx)), Bits(c.want)) << label;
    // Null propagates through further arithmetic, and no comparison with
    // null holds.
    const ExprPtr plus = Expr::Arith(ArithOp::kAdd, e, Expr::ConstInt(1));
    EXPECT_EQ(plus->Eval(ctx).is_null(), c.want.is_null()) << label;
    for (int op = 0; op <= static_cast<int>(CmpOp::kGe); ++op) {
      const ExprPtr cmp = Expr::Cmp(static_cast<CmpOp>(op), e,
                                    Expr::Const(c.want.is_null()
                                                    ? Value(int64_t{0})
                                                    : c.want));
      const bool want =
          !c.want.is_null() && (op == static_cast<int>(CmpOp::kEq) ||
                                op == static_cast<int>(CmpOp::kLe) ||
                                op == static_cast<int>(CmpOp::kGe));
      EXPECT_EQ(cmp->EvalBool(ctx), want) << cmp->ToString();
      EXPECT_EQ(Program::Compile(cmp).EvalBool(ctx), want)
          << cmp->ToString();
    }
  }
}

// ---------------------------------------------------------------------------
// Property sweep: random expression trees evaluate identically as trees and
// as compiled programs.

// Generates random boolean/numeric expressions over two 4-int-attr tuples.
class RandomExprGen {
 public:
  explicit RandomExprGen(uint64_t seed) : rng_(seed) {}

  ExprPtr Bool(int depth) {
    int pick = static_cast<int>(rng_.UniformInt(0, depth <= 0 ? 1 : 5));
    switch (pick) {
      case 0: {
        CmpOp op = static_cast<CmpOp>(rng_.UniformInt(0, 5));
        return Expr::Cmp(op, Num(depth - 1), Num(depth - 1));
      }
      case 1:
        return Expr::ConstBool(rng_.Bernoulli(0.5));
      case 2:
        return Expr::And(Bool(depth - 1), Bool(depth - 1));
      case 3:
        return Expr::Or(Bool(depth - 1), Bool(depth - 1));
      default:
        return Expr::Not(Bool(depth - 1));
    }
  }

  ExprPtr Num(int depth) {
    int pick = static_cast<int>(rng_.UniformInt(0, depth <= 0 ? 2 : 4));
    switch (pick) {
      case 0:
        return Expr::ConstInt(rng_.UniformInt(-20, 20));
      case 1:
        return Expr::Attr(rng_.Bernoulli(0.5) ? Side::kLeft : Side::kRight,
                          static_cast<int>(rng_.UniformInt(0, 3)));
      case 2:
        return Expr::Ts(rng_.Bernoulli(0.5) ? Side::kLeft : Side::kRight);
      case 3: {
        // Division and modulo, by zero and -1 too.
        ArithOp op = static_cast<ArithOp>(rng_.UniformInt(3, 4));
        return Expr::Arith(op, Num(depth - 1),
                           rng_.Bernoulli(0.5)
                               ? Expr::ConstInt(rng_.UniformInt(-1, 3))
                               : Num(depth - 1));
      }
      default: {
        ArithOp op = static_cast<ArithOp>(rng_.UniformInt(0, 2));
        return Expr::Arith(op, Num(depth - 1), Num(depth - 1));
      }
    }
  }

  // Ints in [-10, 10], with INT64_MIN and INT64_MAX mixed in, so + - *
  // wrap and INT64_MIN / -1 comes up.
  Tuple RandomTuple() {
    std::vector<int64_t> vals;
    for (int i = 0; i < 4; ++i) vals.push_back(Int());
    return Tuple::MakeInts(vals, rng_.UniformInt(0, 1000));
  }

  // A left-side (selection-style) predicate. Single `attr <op> int`
  // comparisons, the shape Compile fuses, are drawn often, also at the top;
  // a double constant keeps a subtree off the typed path.
  ExprPtr LeftBool(int depth) {
    int pick = static_cast<int>(rng_.UniformInt(0, depth <= 0 ? 2 : 5));
    switch (pick) {
      case 0:
      case 1:
        return Expr::Cmp(static_cast<CmpOp>(rng_.UniformInt(0, 5)),
                         LeftAttr(), Expr::ConstInt(rng_.UniformInt(-5, 5)));
      case 2: {
        CmpOp op = static_cast<CmpOp>(rng_.UniformInt(0, 5));
        ExprPtr rhs = rng_.Bernoulli(0.2)
                          ? Expr::Const(Value(
                                0.5 + static_cast<double>(
                                          rng_.UniformInt(-5, 5))))
                          : LeftNum(depth - 1);
        return Expr::Cmp(op, LeftNum(depth - 1), rhs);
      }
      case 3:
        return Expr::And(LeftBool(depth - 1), LeftBool(depth - 1));
      case 4:
        return Expr::Or(LeftBool(depth - 1), LeftBool(depth - 1));
      default:
        return Expr::Not(LeftBool(depth - 1));
    }
  }

  // Division and modulo by anything, zero included; modulo meets doubles
  // (attributes may hold them) and yields null there.
  ExprPtr LeftNum(int depth) {
    int pick = static_cast<int>(rng_.UniformInt(0, depth <= 0 ? 2 : 4));
    switch (pick) {
      case 0:
        return Expr::ConstInt(rng_.UniformInt(-5, 5));
      case 1:
        return LeftAttr();
      case 2:
        return Expr::Ts(Side::kLeft);
      case 3:
        return Expr::Arith(static_cast<ArithOp>(rng_.UniformInt(3, 4)),
                           LeftNum(depth - 1),
                           rng_.Bernoulli(0.5)
                               ? Expr::ConstInt(rng_.UniformInt(-1, 4))
                               : LeftNum(depth - 1));
      default: {
        ArithOp op = static_cast<ArithOp>(rng_.UniformInt(0, 2));
        return Expr::Arith(op, LeftNum(depth - 1), LeftNum(depth - 1));
      }
    }
  }

  // Four int attributes, each holding an int (INT64_MIN and INT64_MAX
  // among them), an integral double (3.0) or a non-integral one (2.5) in
  // about a third of the tuples each.
  ChannelTuple MixedTuple(int membership_size) {
    std::vector<Value> vals;
    for (int i = 0; i < 4; ++i) {
      const int64_t v = Int();
      switch (rng_.UniformInt(0, 2)) {
        case 0: vals.push_back(Value(v)); break;
        case 1: vals.push_back(Value(static_cast<double>(v))); break;
        default: vals.push_back(Value(static_cast<double>(v) + 0.5)); break;
      }
    }
    ChannelTuple t{Tuple::Make(vals, rng_.UniformInt(0, 20)),
                   BitVector(membership_size)};
    for (int m = 0; m < membership_size; ++m) {
      if (rng_.Bernoulli(0.5)) t.membership.Set(m);
    }
    return t;
  }

  int64_t UniformInt(int64_t lo, int64_t hi) {
    return rng_.UniformInt(lo, hi);
  }

 private:
  int64_t Int() {
    switch (rng_.UniformInt(0, 19)) {
      case 0: return std::numeric_limits<int64_t>::min();
      case 1: return std::numeric_limits<int64_t>::max();
      default: return rng_.UniformInt(-5, 5);
    }
  }

  ExprPtr LeftAttr() {
    return Expr::Attr(Side::kLeft, static_cast<int>(rng_.UniformInt(0, 3)));
  }

  Rng rng_;
};

class ProgramEquivalenceTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ProgramEquivalenceTest, TreeAndProgramAgree) {
  RandomExprGen gen(GetParam());
  for (int trial = 0; trial < 50; ++trial) {
    ExprPtr e = gen.Bool(4);
    Program p = Program::Compile(e);
    ExprPtr num = gen.Num(4);
    Program pn = Program::Compile(num);
    for (int i = 0; i < 20; ++i) {
      Tuple l = gen.RandomTuple(), r = gen.RandomTuple();
      ExprContext ctx{&l, &r};
      EXPECT_EQ(e->EvalBool(ctx), p.EvalBool(ctx))
          << "expr: " << e->ToString();
      // Arithmetic values, null included, agree bit for bit.
      EXPECT_EQ(Bits(num->Eval(ctx)), Bits(pn.Eval(ctx)))
          << "expr: " << num->ToString();
    }
  }
  // Left-side predicates over batches with doubles in int attributes: the
  // scalar, batch and gated-batch evaluators (fused, typed and generic)
  // must each match the tree on every tuple.
  constexpr int kSlots = 3;
  for (int trial = 0; trial < 100; ++trial) {
    ExprPtr e = gen.LeftBool(3);
    Program p = Program::Compile(e);
    std::vector<ChannelTuple> batch;
    const int64_t n = gen.UniformInt(1, 40);
    for (int64_t i = 0; i < n; ++i) batch.push_back(gen.MixedTuple(kSlots));
    const int slot = static_cast<int>(gen.UniformInt(0, kSlots - 1));
    BitVector matches, gated;
    p.EvalBoolBatch(batch.data(), batch.size(), matches);
    p.EvalBoolBatchGated(batch.data(), batch.size(), slot, gated);
    ASSERT_EQ(matches.size(), n);
    ASSERT_EQ(gated.size(), n);
    for (int i = 0; i < n; ++i) {
      ExprContext ctx{&batch[i].tuple, nullptr};
      const bool want = e->EvalBool(ctx);
      EXPECT_EQ(p.EvalBool(ctx), want)
          << "expr: " << e->ToString() << " tuple " << batch[i].ToString();
      EXPECT_EQ(matches.Test(i), want)
          << "batch, expr: " << e->ToString() << " tuple " << i << " of "
          << n;
      EXPECT_EQ(gated.Test(i), want && batch[i].membership.Test(slot))
          << "gated, expr: " << e->ToString() << " tuple " << i << " of "
          << n;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ProgramEquivalenceTest,
                         ::testing::Range<uint64_t>(0, 10));

}  // namespace
}  // namespace rumor
