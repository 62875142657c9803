#include "expr/program.h"

#include <gtest/gtest.h>

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
  // Right side would CHECK-fail on div-by-zero if evaluated.
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
        // Division/modulo only by non-zero constants to keep both
        // evaluators total.
        ArithOp op = static_cast<ArithOp>(rng_.UniformInt(3, 4));
        int64_t d = rng_.UniformInt(1, 9);
        return Expr::Arith(op, Num(depth - 1), Expr::ConstInt(d));
      }
      default: {
        ArithOp op = static_cast<ArithOp>(rng_.UniformInt(0, 2));
        return Expr::Arith(op, Num(depth - 1), Num(depth - 1));
      }
    }
  }

  Tuple RandomTuple() {
    std::vector<int64_t> vals;
    for (int i = 0; i < 4; ++i) vals.push_back(rng_.UniformInt(-10, 10));
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

  // No modulo: it CHECKs on a double operand, and attributes may hold
  // doubles. Division is by non-zero constants only.
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
        return Expr::Arith(ArithOp::kDiv, LeftNum(depth - 1),
                           Expr::ConstInt(rng_.UniformInt(1, 4)));
      default: {
        ArithOp op = static_cast<ArithOp>(rng_.UniformInt(0, 2));
        return Expr::Arith(op, LeftNum(depth - 1), LeftNum(depth - 1));
      }
    }
  }

  // Four int attributes, each holding an int, an integral double (3.0) or
  // a non-integral one (2.5) in about a third of the tuples each.
  ChannelTuple MixedTuple(int membership_size) {
    std::vector<Value> vals;
    for (int i = 0; i < 4; ++i) {
      const int64_t v = rng_.UniformInt(-5, 5);
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
    for (int i = 0; i < 20; ++i) {
      Tuple l = gen.RandomTuple(), r = gen.RandomTuple();
      ExprContext ctx{&l, &r};
      EXPECT_EQ(e->EvalBool(ctx), p.EvalBool(ctx))
          << "expr: " << e->ToString();
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
