#include "expr/expr.h"

#include <gtest/gtest.h>

#include "expr/parser_expr.h"
#include "expr/schema_map.h"
#include "expr/shape.h"

namespace rumor {
namespace {

Tuple LeftTuple() { return Tuple::MakeInts({10, 20, 30}, 100); }
Tuple RightTuple() { return Tuple::MakeInts({1, 2, 3}, 200); }

ExprContext Ctx(const Tuple& l, const Tuple& r) {
  return ExprContext{&l, &r};
}

TEST(ExprTest, ConstEval) {
  ExprContext ctx;
  EXPECT_EQ(Expr::ConstInt(7)->Eval(ctx).AsInt(), 7);
  EXPECT_TRUE(Expr::ConstBool(true)->Eval(ctx).AsBool());
}

TEST(ExprTest, AttrEval) {
  Tuple l = LeftTuple(), r = RightTuple();
  auto ctx = Ctx(l, r);
  EXPECT_EQ(Expr::Attr(Side::kLeft, 1)->Eval(ctx).AsInt(), 20);
  EXPECT_EQ(Expr::Attr(Side::kRight, 2)->Eval(ctx).AsInt(), 3);
}

TEST(ExprTest, TsEval) {
  Tuple l = LeftTuple(), r = RightTuple();
  auto ctx = Ctx(l, r);
  EXPECT_EQ(Expr::Ts(Side::kLeft)->Eval(ctx).AsInt(), 100);
  EXPECT_EQ(Expr::Ts(Side::kRight)->Eval(ctx).AsInt(), 200);
}

TEST(ExprTest, ArithmeticEval) {
  Tuple l = LeftTuple(), r = RightTuple();
  auto ctx = Ctx(l, r);
  auto e = Expr::Arith(ArithOp::kAdd, Expr::Attr(Side::kLeft, 0),
                       Expr::Attr(Side::kRight, 0));
  EXPECT_EQ(e->Eval(ctx).AsInt(), 11);
  auto m = Expr::Arith(ArithOp::kMod, Expr::Attr(Side::kLeft, 2),
                       Expr::ConstInt(7));
  EXPECT_EQ(m->Eval(ctx).AsInt(), 2);
}

TEST(ExprTest, ComparisonsEval) {
  Tuple l = LeftTuple(), r = RightTuple();
  auto ctx = Ctx(l, r);
  auto lt = Expr::Cmp(CmpOp::kLt, Expr::Attr(Side::kRight, 0),
                      Expr::Attr(Side::kLeft, 0));
  EXPECT_TRUE(lt->EvalBool(ctx));
  auto eq = Expr::Cmp(CmpOp::kEq, Expr::Attr(Side::kLeft, 0),
                      Expr::ConstInt(10));
  EXPECT_TRUE(eq->EvalBool(ctx));
  auto ge = Expr::Cmp(CmpOp::kGe, Expr::ConstInt(1), Expr::ConstInt(2));
  EXPECT_FALSE(ge->EvalBool(ctx));
}

TEST(ExprTest, LogicalShortCircuit) {
  // The right operand would divide by zero; AND must not evaluate it.
  auto div = Expr::Cmp(
      CmpOp::kGt,
      Expr::Arith(ArithOp::kDiv, Expr::ConstInt(1), Expr::ConstInt(0)),
      Expr::ConstInt(0));
  auto e = Expr::And(Expr::ConstBool(false), div);
  ExprContext ctx;
  EXPECT_FALSE(e->EvalBool(ctx));
  auto o = Expr::Or(Expr::ConstBool(true), div);
  EXPECT_TRUE(o->EvalBool(ctx));
}

TEST(ExprTest, NotEval) {
  ExprContext ctx;
  EXPECT_FALSE(Expr::Not(Expr::ConstBool(true))->EvalBool(ctx));
}

TEST(ExprTest, AndAllEmptyIsNull) {
  EXPECT_EQ(Expr::AndAll({}), nullptr);
  EXPECT_TRUE(Expr::IsTrivallyTrue(nullptr));
}

TEST(ExprTest, EqualsAndSignature) {
  auto a = Expr::Cmp(CmpOp::kEq, Expr::Attr(Side::kLeft, 0),
                     Expr::ConstInt(5));
  auto b = Expr::Cmp(CmpOp::kEq, Expr::Attr(Side::kLeft, 0),
                     Expr::ConstInt(5));
  auto c = Expr::Cmp(CmpOp::kEq, Expr::Attr(Side::kLeft, 1),
                     Expr::ConstInt(5));
  EXPECT_TRUE(a->Equals(*b));
  EXPECT_EQ(a->Signature(), b->Signature());
  EXPECT_FALSE(a->Equals(*c));
  EXPECT_NE(a->Signature(), c->Signature());
}

TEST(ExprTest, SignatureDistinguishesSides) {
  auto l = Expr::Attr(Side::kLeft, 0);
  auto r = Expr::Attr(Side::kRight, 0);
  EXPECT_NE(l->Signature(), r->Signature());
  EXPECT_FALSE(l->Equals(*r));
}

TEST(ExprTest, InferType) {
  Schema li = Schema::MakeInts(2);
  Schema d({{"x", ValueType::kDouble}});
  auto add_ii = Expr::Arith(ArithOp::kAdd, Expr::Attr(Side::kLeft, 0),
                            Expr::Attr(Side::kLeft, 1));
  EXPECT_EQ(add_ii->InferType(li, nullptr), ValueType::kInt);
  auto add_id = Expr::Arith(ArithOp::kAdd, Expr::Attr(Side::kLeft, 0),
                            Expr::Attr(Side::kRight, 0));
  EXPECT_EQ(add_id->InferType(li, &d), ValueType::kDouble);
  auto cmp = Expr::Cmp(CmpOp::kLt, Expr::ConstInt(1), Expr::ConstInt(2));
  EXPECT_EQ(cmp->InferType(li, nullptr), ValueType::kBool);
}

// --- shape analysis -------------------------------------------------------

TEST(ShapeTest, SelectionConstEquality) {
  auto pred = Expr::Cmp(CmpOp::kEq, Expr::Attr(Side::kLeft, 3),
                        Expr::ConstInt(42));
  auto shape = AnalyzeSelection(pred);
  ASSERT_TRUE(shape.equality.has_value());
  EXPECT_EQ(shape.equality->attr, 3);
  EXPECT_EQ(shape.equality->constant.AsInt(), 42);
  EXPECT_EQ(shape.residual, nullptr);
}

TEST(ShapeTest, SelectionReversedOperands) {
  auto pred = Expr::Cmp(CmpOp::kEq, Expr::ConstInt(42),
                        Expr::Attr(Side::kLeft, 3));
  auto shape = AnalyzeSelection(pred);
  ASSERT_TRUE(shape.equality.has_value());
  EXPECT_EQ(shape.equality->attr, 3);
}

TEST(ShapeTest, SelectionWithResidual) {
  auto eq = Expr::Cmp(CmpOp::kEq, Expr::Attr(Side::kLeft, 0),
                      Expr::ConstInt(1));
  auto gt = Expr::Cmp(CmpOp::kGt, Expr::Attr(Side::kLeft, 1),
                      Expr::ConstInt(5));
  auto shape = AnalyzeSelection(Expr::And(gt, eq));
  ASSERT_TRUE(shape.equality.has_value());
  EXPECT_EQ(shape.equality->attr, 0);
  ASSERT_NE(shape.residual, nullptr);
  EXPECT_TRUE(shape.residual->Equals(*gt));
}

TEST(ShapeTest, SelectionNonIndexable) {
  auto gt = Expr::Cmp(CmpOp::kGt, Expr::Attr(Side::kLeft, 1),
                      Expr::ConstInt(5));
  auto shape = AnalyzeSelection(gt);
  EXPECT_FALSE(shape.equality.has_value());
  ASSERT_NE(shape.residual, nullptr);
  EXPECT_TRUE(shape.residual->Equals(*gt));
}

TEST(ShapeTest, SelectionNullPredicate) {
  auto shape = AnalyzeSelection(nullptr);
  EXPECT_FALSE(shape.equality.has_value());
  EXPECT_EQ(shape.residual, nullptr);
}

TEST(ShapeTest, JoinEquiPair) {
  auto pred = Expr::Cmp(CmpOp::kEq, Expr::Attr(Side::kLeft, 0),
                        Expr::Attr(Side::kRight, 2));
  auto shape = AnalyzeJoin(pred);
  ASSERT_EQ(shape.equi.size(), 1u);
  EXPECT_EQ(shape.equi[0].left_attr, 0);
  EXPECT_EQ(shape.equi[0].right_attr, 2);
  EXPECT_EQ(shape.residual, nullptr);
}

TEST(ShapeTest, JoinReversedEquiPair) {
  auto pred = Expr::Cmp(CmpOp::kEq, Expr::Attr(Side::kRight, 2),
                        Expr::Attr(Side::kLeft, 0));
  auto shape = AnalyzeJoin(pred);
  ASSERT_EQ(shape.equi.size(), 1u);
  EXPECT_EQ(shape.equi[0].left_attr, 0);
  EXPECT_EQ(shape.equi[0].right_attr, 2);
}

TEST(ShapeTest, JoinMixedConjunction) {
  auto equi = Expr::Cmp(CmpOp::kEq, Expr::Attr(Side::kLeft, 0),
                        Expr::Attr(Side::kRight, 0));
  auto resid = Expr::Cmp(CmpOp::kGt, Expr::Attr(Side::kRight, 1),
                         Expr::Attr(Side::kLeft, 1));
  auto shape = AnalyzeJoin(Expr::And(equi, resid));
  ASSERT_EQ(shape.equi.size(), 1u);
  ASSERT_NE(shape.residual, nullptr);
  EXPECT_TRUE(shape.residual->Equals(*resid));
}

TEST(ShapeTest, ReferencesSide) {
  auto l_only = Expr::Cmp(CmpOp::kGt, Expr::Attr(Side::kLeft, 0),
                          Expr::ConstInt(5));
  EXPECT_TRUE(ReferencesSide(l_only, Side::kLeft));
  EXPECT_FALSE(ReferencesSide(l_only, Side::kRight));
}

// --- schema maps -----------------------------------------------------------

TEST(SchemaMapTest, IdentityRoundTrip) {
  Schema s = Schema::MakeInts(3);
  SchemaMap map = SchemaMap::Identity(s);
  Tuple t = LeftTuple();
  ExprContext ctx{&t, nullptr};
  Tuple out = *map.Apply(ctx, t.ts());
  EXPECT_TRUE(out.ContentEquals(t));
  EXPECT_EQ(map.OutputSchema(s), s);
}

TEST(SchemaMapTest, Project) {
  Schema s = Schema::MakeInts(3);
  SchemaMap map = SchemaMap::Project(s, {2, 0});
  Tuple t = LeftTuple();
  ExprContext ctx{&t, nullptr};
  Tuple out = *map.Apply(ctx, 1);
  ASSERT_EQ(out.size(), 2);
  EXPECT_EQ(out.at(0).AsInt(), 30);
  EXPECT_EQ(out.at(1).AsInt(), 10);
  EXPECT_EQ(map.OutputSchema(s).attribute(0).name, "a2");
}

TEST(SchemaMapTest, ConcatSides) {
  Schema l = Schema::MakeInts(2), r = Schema::MakeInts(1, "b");
  SchemaMap map = SchemaMap::ConcatSides(l, r);
  Tuple lt = Tuple::MakeInts({4, 5}, 1), rt = Tuple::MakeInts({6}, 2);
  ExprContext ctx{&lt, &rt};
  Tuple out = *map.Apply(ctx, 2);
  ASSERT_EQ(out.size(), 3);
  EXPECT_EQ(out.at(2).AsInt(), 6);
  EXPECT_EQ(map.OutputSchema(l, &r).attribute(2).name, "r.b0");
}

TEST(SchemaMapTest, ComputedAttribute) {
  Schema s = Schema::MakeInts(2);
  SchemaMap map;
  map.Add("sum", Expr::Arith(ArithOp::kAdd, Expr::Attr(Side::kLeft, 0),
                             Expr::Attr(Side::kLeft, 1)));
  Tuple t = Tuple::MakeInts({3, 4}, 0);
  ExprContext ctx{&t, nullptr};
  EXPECT_EQ(map.Apply(ctx, 0)->at(0).AsInt(), 7);
  EXPECT_EQ(map.OutputSchema(s).attribute(0).type, ValueType::kInt);
}

TEST(SchemaMapTest, EqualsAndSignature) {
  Schema s = Schema::MakeInts(2);
  SchemaMap a = SchemaMap::Identity(s);
  SchemaMap b = SchemaMap::Identity(s);
  SchemaMap c = SchemaMap::Project(s, {0});
  EXPECT_TRUE(a.Equals(b));
  EXPECT_EQ(a.Signature(), b.Signature());
  EXPECT_FALSE(a.Equals(c));
  EXPECT_NE(a.Signature(), c.Signature());
}

// --- parser -----------------------------------------------------------------

class ParserTest : public ::testing::Test {
 protected:
  ParserTest() : left_(Schema::MakeInts(10)), right_(Schema::MakeInts(10)) {
    ctx_.left = &left_;
    ctx_.right = &right_;
    ctx_.left_aliases = {"S", "left", "last"};
    ctx_.right_aliases = {"T", "right"};
  }
  Schema left_, right_;
  ExprParseContext ctx_;
};

TEST_F(ParserTest, SimpleEquality) {
  auto e = ParseExpr("a0 = 5", ctx_);
  ASSERT_TRUE(e.ok()) << e.status().ToString();
  Tuple t = Tuple::MakeInts({5, 0, 0, 0, 0, 0, 0, 0, 0, 0}, 0);
  ExprContext ec{&t, nullptr};
  EXPECT_TRUE(e.value()->EvalBool(ec));
}

TEST_F(ParserTest, QualifiedBothSides) {
  auto e = ParseExpr("S.a0 = T.a0", ctx_);
  ASSERT_TRUE(e.ok()) << e.status().ToString();
  Tuple l = Tuple::MakeInts({7, 0, 0, 0, 0, 0, 0, 0, 0, 0}, 0);
  Tuple r = Tuple::MakeInts({7, 1, 0, 0, 0, 0, 0, 0, 0, 0}, 0);
  ExprContext ec{&l, &r};
  EXPECT_TRUE(e.value()->EvalBool(ec));
}

TEST_F(ParserTest, LastAliasForRebind) {
  auto e = ParseExpr("T.a1 > last.a1", ctx_);
  ASSERT_TRUE(e.ok()) << e.status().ToString();
  Tuple inst = Tuple::MakeInts({0, 5, 0, 0, 0, 0, 0, 0, 0, 0}, 0);
  Tuple ev = Tuple::MakeInts({0, 9, 0, 0, 0, 0, 0, 0, 0, 0}, 1);
  ExprContext ec{&inst, &ev};
  EXPECT_TRUE(e.value()->EvalBool(ec));
}

TEST_F(ParserTest, PrecedenceAndParens) {
  auto e = ParseExpr("a0 + a1 * 2 = 8", ctx_);
  ASSERT_TRUE(e.ok());
  Tuple t = Tuple::MakeInts({2, 3, 0, 0, 0, 0, 0, 0, 0, 0}, 0);
  ExprContext ec{&t, nullptr};
  EXPECT_TRUE(e.value()->EvalBool(ec));  // 2 + 3*2 = 8
  auto e2 = ParseExpr("(a0 + a1) * 2 = 10", ctx_);
  ASSERT_TRUE(e2.ok());
  EXPECT_TRUE(e2.value()->EvalBool(ec));
}

TEST_F(ParserTest, BooleanConnectives) {
  auto e = ParseExpr("a0 = 1 AND (a1 = 2 OR NOT a2 = 3)", ctx_);
  ASSERT_TRUE(e.ok()) << e.status().ToString();
  Tuple t = Tuple::MakeInts({1, 9, 4, 0, 0, 0, 0, 0, 0, 0}, 0);
  ExprContext ec{&t, nullptr};
  EXPECT_TRUE(e.value()->EvalBool(ec));
}

TEST_F(ParserTest, TsReference) {
  auto e = ParseExpr("T.ts - S.ts <= 100", ctx_);
  ASSERT_TRUE(e.ok()) << e.status().ToString();
  Tuple l = Tuple::MakeInts({0, 0, 0, 0, 0, 0, 0, 0, 0, 0}, 10);
  Tuple r = Tuple::MakeInts({0, 0, 0, 0, 0, 0, 0, 0, 0, 0}, 50);
  ExprContext ec{&l, &r};
  EXPECT_TRUE(e.value()->EvalBool(ec));
}

TEST_F(ParserTest, NotEqualSpellings) {
  for (const char* text : {"a0 != 1", "a0 <> 1"}) {
    auto e = ParseExpr(text, ctx_);
    ASSERT_TRUE(e.ok()) << text;
    Tuple t = Tuple::MakeInts({2, 0, 0, 0, 0, 0, 0, 0, 0, 0}, 0);
    ExprContext ec{&t, nullptr};
    EXPECT_TRUE(e.value()->EvalBool(ec));
  }
}

TEST_F(ParserTest, StringLiteral) {
  Schema named({{"name", ValueType::kString}});
  ExprParseContext c;
  c.left = &named;
  auto e = ParseExpr("name = 'chrome'", c);
  ASSERT_TRUE(e.ok()) << e.status().ToString();
  Tuple t = Tuple::Make({Value("chrome")}, 0);
  ExprContext ec{&t, nullptr};
  EXPECT_TRUE(e.value()->EvalBool(ec));
}

TEST_F(ParserTest, UnknownAttributeFails) {
  auto e = ParseExpr("zzz = 1", ctx_);
  EXPECT_FALSE(e.ok());
  EXPECT_EQ(e.status().code(), StatusCode::kNotFound);
}

TEST_F(ParserTest, UnknownQualifierFails) {
  auto e = ParseExpr("X.a0 = 1", ctx_);
  EXPECT_FALSE(e.ok());
}

TEST_F(ParserTest, TrailingInputFails) {
  auto e = ParseExpr("a0 = 1 garbage garbage", ctx_);
  EXPECT_FALSE(e.ok());
}

TEST_F(ParserTest, UnterminatedStringFails) {
  auto e = ParseExpr("name = 'oops", ctx_);
  EXPECT_FALSE(e.ok());
}

TEST_F(ParserTest, UnaryMinus) {
  auto e = ParseExpr("a0 = -5", ctx_);
  ASSERT_TRUE(e.ok()) << e.status().ToString();
  Tuple t = Tuple::MakeInts({-5, 0, 0, 0, 0, 0, 0, 0, 0, 0}, 0);
  ExprContext ec{&t, nullptr};
  EXPECT_TRUE(e.value()->EvalBool(ec));
}

TEST_F(ParserTest, FloatLiteral) {
  auto e = ParseExpr("a0 > 1.5", ctx_);
  ASSERT_TRUE(e.ok());
  Tuple t = Tuple::MakeInts({2, 0, 0, 0, 0, 0, 0, 0, 0, 0}, 0);
  ExprContext ec{&t, nullptr};
  EXPECT_TRUE(e.value()->EvalBool(ec));
}

}  // namespace
}  // namespace rumor
