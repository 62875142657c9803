// Micro-benchmarks for the hot data structures: membership bit vectors,
// expression evaluation (tree vs compiled program), predicate-index probes
// vs sequential evaluation, and keyed-buffer (AI-style) probes vs scans.
#include <benchmark/benchmark.h>

#include "common/bitvector.h"
#include "common/rng.h"
#include "expr/program.h"
#include "mop/predicate_index_mop.h"
#include "mop/keyed_buffer.h"

namespace rumor {
namespace {

void BM_BitVectorAnd(benchmark::State& state) {
  const int size = static_cast<int>(state.range(0));
  Rng rng(1);
  BitVector a(size), b(size);
  for (int i = 0; i < size; ++i) {
    if (rng.Bernoulli(0.5)) a.Set(i);
    if (rng.Bernoulli(0.5)) b.Set(i);
  }
  for (auto _ : state) {
    BitVector c = a & b;
    benchmark::DoNotOptimize(c);
  }
}
BENCHMARK(BM_BitVectorAnd)->Arg(64)->Arg(1024)->Arg(16384);

ExprPtr BuildPredicate() {
  // a0 = 5 AND a1 > 100 AND a2 + a3 < 900
  return Expr::AndAll(
      {Expr::Cmp(CmpOp::kEq, Expr::Attr(Side::kLeft, 0), Expr::ConstInt(5)),
       Expr::Cmp(CmpOp::kGt, Expr::Attr(Side::kLeft, 1),
                 Expr::ConstInt(100)),
       Expr::Cmp(CmpOp::kLt,
                 Expr::Arith(ArithOp::kAdd, Expr::Attr(Side::kLeft, 2),
                             Expr::Attr(Side::kLeft, 3)),
                 Expr::ConstInt(900))});
}

void BM_ExprTreeEval(benchmark::State& state) {
  ExprPtr e = BuildPredicate();
  Tuple t = Tuple::MakeInts({5, 200, 300, 400}, 0);
  ExprContext ctx{&t, nullptr};
  for (auto _ : state) {
    benchmark::DoNotOptimize(e->EvalBool(ctx));
  }
}
BENCHMARK(BM_ExprTreeEval);

void BM_ExprProgramEval(benchmark::State& state) {
  Program p = Program::Compile(BuildPredicate());
  Tuple t = Tuple::MakeInts({5, 200, 300, 400}, 0);
  ExprContext ctx{&t, nullptr};
  for (auto _ : state) {
    benchmark::DoNotOptimize(p.EvalBool(ctx));
  }
}
BENCHMARK(BM_ExprProgramEval);

// The sσ payoff: probing one hash index vs evaluating n predicates.
class NullEmitter : public Emitter {
 public:
  void Emit(int, ChannelTuple) override {}
};

void BM_PredicateIndexProbe(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  std::vector<SelectionDef> defs;
  for (int i = 0; i < n; ++i) {
    defs.push_back({Expr::Cmp(CmpOp::kEq, Expr::Attr(Side::kLeft, 0),
                              Expr::ConstInt(i))});
  }
  PredicateIndexMop mop(defs, OutputMode::kPerMemberPorts);
  NullEmitter sink;
  Rng rng(1);
  ChannelTuple ct{Tuple::MakeInts({rng.UniformInt(0, n - 1), 0}, 0),
                  BitVector::Singleton(0, 1)};
  for (auto _ : state) {
    mop.Process(0, ct, sink);
  }
}
BENCHMARK(BM_PredicateIndexProbe)->Arg(10)->Arg(1000)->Arg(100000);

void BM_SequentialSelections(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  std::vector<SelectionMop::Member> members;
  for (int i = 0; i < n; ++i) {
    members.push_back({0, {Expr::Cmp(CmpOp::kEq, Expr::Attr(Side::kLeft, 0),
                                     Expr::ConstInt(i))}});
  }
  SelectionMop mop(members, OutputMode::kPerMemberPorts);
  NullEmitter sink;
  Rng rng(1);
  ChannelTuple ct{Tuple::MakeInts({rng.UniformInt(0, n - 1), 0}, 0),
                  BitVector::Singleton(0, 1)};
  for (auto _ : state) {
    mop.Process(0, ct, sink);
  }
}
BENCHMARK(BM_SequentialSelections)->Arg(10)->Arg(1000);

void BM_KeyedBufferIndexedProbe(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  KeyedBuffer<int> buffer(/*indexed=*/true);
  Rng rng(1);
  for (int i = 0; i < n; ++i) {
    buffer.Add(i, Value(rng.UniformInt(0, 999)), i);
  }
  Value probe(int64_t{500});
  for (auto _ : state) {
    int64_t hits = 0;
    buffer.ForCandidates(&probe, [&](int64_t, auto&) { ++hits; });
    benchmark::DoNotOptimize(hits);
  }
}
BENCHMARK(BM_KeyedBufferIndexedProbe)->Arg(1000)->Arg(100000);

void BM_KeyedBufferScan(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  KeyedBuffer<int> buffer(/*indexed=*/false);
  Rng rng(1);
  for (int i = 0; i < n; ++i) {
    buffer.Add(i, Value(rng.UniformInt(0, 999)), i);
  }
  for (auto _ : state) {
    int64_t hits = 0;
    buffer.ForCandidates(nullptr, [&](int64_t, auto&) { ++hits; });
    benchmark::DoNotOptimize(hits);
  }
}
BENCHMARK(BM_KeyedBufferScan)->Arg(1000)->Arg(100000);

}  // namespace
}  // namespace rumor
