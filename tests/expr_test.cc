// Tests for the symbolic expression DAG and the concolic value types.

#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "src/sym/expr.h"
#include "src/sym/value.h"
#include "src/util/rng.h"

namespace dice::sym {
namespace {

TEST(ExprTest, ConstFolding) {
  auto e = Expr::Add(Expr::MakeConst(2, 32), Expr::MakeConst(3, 32));
  ASSERT_TRUE(e->IsConst());
  EXPECT_EQ(e->imm(), 5u);

  e = Expr::Mul(Expr::MakeConst(6, 32), Expr::MakeConst(7, 32));
  EXPECT_EQ(e->imm(), 42u);

  e = Expr::ULt(Expr::MakeConst(1, 32), Expr::MakeConst(2, 32));
  ASSERT_TRUE(e->IsConst());
  EXPECT_EQ(e->imm(), 1u);
  EXPECT_TRUE(e->IsBool());
}

TEST(ExprTest, MaskingToWidth) {
  auto e = Expr::Add(Expr::MakeConst(0xff, 8), Expr::MakeConst(1, 8));
  EXPECT_EQ(e->imm(), 0u) << "8-bit wraparound";
  EXPECT_EQ(Expr::MakeConst(0x1ff, 8)->imm(), 0xffu);
}

TEST(ExprTest, VarEval) {
  auto v = Expr::MakeVar(3, 32);
  Assignment a{{3, 41}};
  EXPECT_EQ(v->Eval(a), 41u);
  EXPECT_EQ(v->Eval({}), 0u) << "unassigned vars evaluate to 0";
}

TEST(ExprTest, EvalCompound) {
  // (x + 2) * 3 == 15  with x = 3
  auto x = Expr::MakeVar(0, 32);
  auto e = Expr::Eq(Expr::Mul(Expr::Add(x, Expr::MakeConst(2, 32)), Expr::MakeConst(3, 32)),
                    Expr::MakeConst(15, 32));
  EXPECT_EQ(e->Eval({{0, 3}}), 1u);
  EXPECT_EQ(e->Eval({{0, 4}}), 0u);
}

TEST(ExprTest, LAndLOrShortCircuitFolding) {
  auto x = Expr::MakeVar(0, 1);
  EXPECT_TRUE(Expr::Identical(Expr::LAnd(Expr::MakeConst(1, 1), x), x));
  EXPECT_EQ(Expr::LAnd(Expr::MakeConst(0, 1), x)->imm(), 0u);
  EXPECT_TRUE(Expr::Identical(Expr::LOr(Expr::MakeConst(0, 1), x), x));
  EXPECT_EQ(Expr::LOr(Expr::MakeConst(1, 1), x)->imm(), 1u);
}

TEST(ExprTest, NegateFlipsComparisons) {
  auto x = Expr::MakeVar(0, 32);
  auto c = Expr::MakeConst(5, 32);
  EXPECT_EQ(Expr::Negate(Expr::ULt(x, c))->op(), Op::kUGe);
  EXPECT_EQ(Expr::Negate(Expr::Eq(x, c))->op(), Op::kNe);
  EXPECT_EQ(Expr::Negate(Expr::UGe(x, c))->op(), Op::kULt);
  // Double negation via LNot collapses.
  EXPECT_TRUE(Expr::Identical(Expr::Negate(Expr::LNot(x)), x));
}

TEST(ExprTest, NegateDeMorgan) {
  auto a = Expr::ULt(Expr::MakeVar(0, 32), Expr::MakeConst(5, 32));
  auto b = Expr::UGt(Expr::MakeVar(1, 32), Expr::MakeConst(9, 32));
  auto neg = Expr::Negate(Expr::LAnd(a, b));
  EXPECT_EQ(neg->op(), Op::kLOr);
  EXPECT_EQ(neg->lhs()->op(), Op::kUGe);
  EXPECT_EQ(neg->rhs()->op(), Op::kULe);
}

// Property: Negate(e) always evaluates to the logical complement.
class NegateProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(NegateProperty, ComplementUnderRandomAssignments) {
  Rng rng(GetParam());
  // Random boolean expression over 3 variables.
  std::function<ExprPtr(int)> gen = [&](int depth) -> ExprPtr {
    auto var = [&] { return Expr::MakeVar(static_cast<VarId>(rng.NextBelow(3)), 16); };
    auto num = [&] { return Expr::MakeConst(rng.NextBelow(20), 16); };
    auto arith = [&]() -> ExprPtr {
      switch (rng.NextBelow(3)) {
        case 0: return var();
        case 1: return Expr::Add(var(), num());
        default: return Expr::Sub(var(), num());
      }
    };
    auto cmp = [&]() -> ExprPtr {
      switch (rng.NextBelow(6)) {
        case 0: return Expr::Eq(arith(), num());
        case 1: return Expr::Ne(arith(), num());
        case 2: return Expr::ULt(arith(), num());
        case 3: return Expr::ULe(arith(), num());
        case 4: return Expr::UGt(arith(), num());
        default: return Expr::UGe(arith(), num());
      }
    };
    if (depth == 0) {
      return cmp();
    }
    switch (rng.NextBelow(4)) {
      case 0: return Expr::LAnd(gen(depth - 1), gen(depth - 1));
      case 1: return Expr::LOr(gen(depth - 1), gen(depth - 1));
      case 2: return Expr::LNot(gen(depth - 1));
      default: return cmp();
    }
  };

  for (int iter = 0; iter < 200; ++iter) {
    ExprPtr e = gen(3);
    ExprPtr neg = Expr::Negate(e);
    for (int trial = 0; trial < 10; ++trial) {
      Assignment a{{0, rng.NextBelow(25)}, {1, rng.NextBelow(25)}, {2, rng.NextBelow(25)}};
      EXPECT_NE(e->Eval(a) != 0, neg->Eval(a) != 0)
          << e->ToString() << " vs " << neg->ToString();
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, NegateProperty, ::testing::Values(1, 2, 3));

// --- Hash-consing ------------------------------------------------------------

TEST(ExprInternTest, StructuralEqualityImpliesPointerEquality) {
  auto build = [] {
    return Expr::Eq(Expr::Add(Expr::MakeVar(0, 32), Expr::MakeConst(7, 32)),
                    Expr::MakeConst(15, 32));
  };
  ExprPtr a = build();
  ExprPtr b = build();
  EXPECT_EQ(a.get(), b.get()) << "structurally equal expressions must intern to one node";
  EXPECT_TRUE(Expr::Identical(a, b));
  // Shared subtrees are shared nodes too.
  EXPECT_EQ(a->lhs().get(), b->lhs().get());
  // Distinct structure stays distinct.
  ExprPtr c = Expr::Eq(Expr::Add(Expr::MakeVar(0, 32), Expr::MakeConst(8, 32)),
                       Expr::MakeConst(15, 32));
  EXPECT_NE(a.get(), c.get());
  // Width participates in identity: an 8-bit 7 is not a 32-bit 7.
  EXPECT_NE(Expr::MakeConst(7, 8).get(), Expr::MakeConst(7, 32).get());
}

TEST(ExprInternTest, HashAndIdStability) {
  ExprPtr a = Expr::ULt(Expr::MakeVar(3, 16), Expr::MakeConst(42, 16));
  uint64_t id = a->id();
  uint64_t hash = a->hash();
  EXPECT_NE(id, 0u);
  // Rebuilding the same expression yields the same node, id, and hash.
  ExprPtr b = Expr::ULt(Expr::MakeVar(3, 16), Expr::MakeConst(42, 16));
  EXPECT_EQ(b->id(), id);
  EXPECT_EQ(b->hash(), hash);
  // Different expressions get different ids (ids are never reused).
  ExprPtr c = Expr::ULt(Expr::MakeVar(3, 16), Expr::MakeConst(43, 16));
  EXPECT_NE(c->id(), id);
}

TEST(ExprInternTest, DeadNodesLeaveTheTable) {
  size_t before = Expr::InternTableSize();
  {
    ExprPtr tmp = Expr::Mul(Expr::MakeVar(900001, 32), Expr::MakeConst(12345, 32));
    EXPECT_GT(Expr::InternTableSize(), before);
  }
  EXPECT_EQ(Expr::InternTableSize(), before) << "released nodes must be evicted";
  // Re-creating after death re-interns under a fresh id.
  ExprPtr again = Expr::Mul(Expr::MakeVar(900001, 32), Expr::MakeConst(12345, 32));
  EXPECT_GT(Expr::InternTableSize(), before);
  (void)again;
}

TEST(ExprInternTest, SortedVariableSupport) {
  auto e = Expr::LAnd(Expr::Eq(Expr::MakeVar(7, 32), Expr::MakeConst(1, 32)),
                      Expr::ULt(Expr::MakeVar(2, 32), Expr::MakeVar(7, 32)));
  EXPECT_EQ(e->vars(), (std::vector<VarId>{2, 7})) << "sorted and deduplicated";
  EXPECT_TRUE(Expr::MakeConst(5, 32)->vars().empty());
}

TEST(ExprTest, CollectVars) {
  auto e = Expr::LAnd(Expr::Eq(Expr::MakeVar(2, 32), Expr::MakeConst(1, 32)),
                      Expr::ULt(Expr::MakeVar(7, 32), Expr::MakeVar(2, 32)));
  std::set<VarId> vars;
  e->CollectVars(vars);
  EXPECT_EQ(vars, (std::set<VarId>{2, 7}));
}

TEST(ExprTest, ToStringReadable) {
  auto e = Expr::Eq(Expr::Add(Expr::MakeVar(0, 32), Expr::MakeConst(1, 32)),
                    Expr::MakeConst(5, 32));
  EXPECT_EQ(e->ToString(), "((v0 + 1) == 5)");
}

// --- sym::Value / sym::Bool ----------------------------------------------------

TEST(ValueTest, ConcreteFastPathBuildsNoExpr) {
  Value a(3);
  Value b(4);
  Value c = a + b;
  EXPECT_EQ(c.concrete(), 7u);
  EXPECT_FALSE(c.symbolic());
  Bool t = a < b;
  EXPECT_TRUE(t.concrete());
  EXPECT_FALSE(t.symbolic());
}

TEST(ValueTest, SymbolicPropagates) {
  Value x(10, Expr::MakeVar(0, 32));
  Value c = x + Value(5);
  EXPECT_EQ(c.concrete(), 15u);
  ASSERT_TRUE(c.symbolic());
  EXPECT_EQ(c.expr()->Eval({{0, 10}}), 15u);

  Bool b = c < Value(100);
  EXPECT_TRUE(b.concrete());
  ASSERT_TRUE(b.symbolic());
  EXPECT_EQ(b.expr()->Eval({{0, 10}}), 1u);
  EXPECT_EQ(b.expr()->Eval({{0, 96}}), 0u);
}

TEST(ValueTest, BoolConnectives) {
  Bool concrete_true(true);
  Bool symbolic(false, Expr::Eq(Expr::MakeVar(0, 32), Expr::MakeConst(1, 32)));
  Bool both = concrete_true && symbolic;
  EXPECT_FALSE(both.concrete());
  EXPECT_TRUE(both.symbolic());
  Bool either = concrete_true || symbolic;
  EXPECT_TRUE(either.concrete());
  Bool negated = !symbolic;
  EXPECT_TRUE(negated.concrete());
  ASSERT_TRUE(negated.symbolic());
  EXPECT_EQ(negated.expr()->op(), Op::kNe);
}

TEST(ValueTest, BitwiseOps) {
  Value x(0b1100, Expr::MakeVar(0, 32));
  Value m = x & Value(0b1010);
  EXPECT_EQ(m.concrete(), 0b1000u);
  EXPECT_EQ((x | Value(1)).concrete(), 0b1101u);
  EXPECT_EQ((x ^ Value(0b1111)).concrete(), 0b0011u);
}

// --- Concurrent interning (the lock-striped table) ----------------------------

TEST(ExprInternTest, ConcurrentInterningAgreesOnPointerIdentity) {
  // N threads interning the same overlapping value universe must converge on
  // one node per distinct value — no lost entries (a thread observing a
  // different pointer) and no duplicates (the table growing past the
  // distinct-value count). Width 29 keeps this universe disjoint from every
  // other test's nodes.
  constexpr size_t kThreads = 8;
  constexpr uint64_t kValues = 200;
  constexpr uint64_t kVars = 16;
  const size_t before = Expr::InternTableSize();
  std::vector<std::vector<ExprPtr>> built(kThreads);
  {
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (size_t t = 0; t < kThreads; ++t) {
      threads.emplace_back([t, &built] {
        built[t].reserve(kValues);
        for (uint64_t v = 0; v < kValues; ++v) {
          ExprPtr var = Expr::MakeVar(static_cast<VarId>(v % kVars), 29);
          built[t].push_back(Expr::ULt(var, Expr::MakeConst(v, 29)));
        }
      });
    }
    for (std::thread& th : threads) {
      th.join();
    }
  }
  for (size_t t = 1; t < kThreads; ++t) {
    ASSERT_EQ(built[t].size(), kValues);
    for (uint64_t v = 0; v < kValues; ++v) {
      EXPECT_EQ(built[0][v].get(), built[t][v].get())
          << "thread " << t << " value " << v << " must share the interned node";
    }
  }
  // Exactly kVars var nodes + kValues const nodes + kValues comparisons.
  EXPECT_EQ(Expr::InternTableSize(), before + kVars + 2 * kValues);
  built.clear();
  EXPECT_EQ(Expr::InternTableSize(), before) << "released nodes must be evicted";
}

TEST(ExprInternTest, ConcurrentChurnLeavesNoResidue) {
  // Threads repeatedly intern and immediately release overlapping nodes,
  // hammering the expired-entry/deleter race: a node can die on one thread
  // while another interns the same value. The table must end exactly where
  // it started. (Run under TSan in CI.)
  constexpr size_t kThreads = 8;
  const size_t before = Expr::InternTableSize();
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([] {
      for (uint64_t i = 0; i < 400; ++i) {
        ExprPtr transient =
            Expr::Eq(Expr::MakeVar(static_cast<VarId>(i % 8), 27),
                     Expr::MakeConst(i % 32, 27));
        (void)transient;  // dropped immediately: exercises the deleter path
      }
    });
  }
  for (std::thread& th : threads) {
    th.join();
  }
  EXPECT_EQ(Expr::InternTableSize(), before);
}

}  // namespace
}  // namespace dice::sym
