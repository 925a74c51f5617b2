// White-box tests of solver internals: interval propagation and the helper
// arithmetic, complementing the black-box SAT/UNSAT suite in solver_test.cc.

#include <gtest/gtest.h>

#include "src/sym/solver.h"

namespace dice::sym {
namespace {

using solver_internal::Interval;
using solver_internal::LinCmp;
using solver_internal::LinearAtom;
using solver_internal::LinearTerm;
using solver_internal::PropagateIntervals;

std::vector<VarInfo> TwoVars() {
  std::vector<VarInfo> vars(2);
  vars[0] = VarInfo{0, "x", 32, 0, 0, 1000};
  vars[1] = VarInfo{1, "y", 32, 0, 0, 1000};
  return vars;
}

std::vector<Interval> Domains(std::initializer_list<std::pair<uint64_t, uint64_t>> ds) {
  std::vector<Interval> out;
  for (auto [lo, hi] : ds) {
    out.push_back(Interval{lo, hi});
  }
  return out;
}

TEST(PropagateIntervalsTest, SingleVarLe) {
  LinearAtom atom;
  atom.terms = {LinearTerm{0, 1}};
  atom.cmp = LinCmp::kLe;
  atom.rhs = 42;
  auto domains = Domains({{0, 1000}, {0, 1000}});
  ASSERT_TRUE(PropagateIntervals({atom}, domains, TwoVars()));
  EXPECT_EQ(domains[0].hi, 42u);
  EXPECT_EQ(domains[0].lo, 0u);
  EXPECT_EQ(domains[1].hi, 1000u) << "unrelated variable untouched";
}

TEST(PropagateIntervalsTest, SingleVarGeWithCoefficient) {
  // 3x >= 10  =>  x >= 4 (ceil)
  LinearAtom atom;
  atom.terms = {LinearTerm{0, 3}};
  atom.cmp = LinCmp::kGe;
  atom.rhs = 10;
  auto domains = Domains({{0, 1000}, {0, 1000}});
  ASSERT_TRUE(PropagateIntervals({atom}, domains, TwoVars()));
  EXPECT_EQ(domains[0].lo, 4u);
}

TEST(PropagateIntervalsTest, NegativeCoefficientFlips) {
  // -x <= -5  =>  x >= 5
  LinearAtom atom;
  atom.terms = {LinearTerm{0, -1}};
  atom.cmp = LinCmp::kLe;
  atom.rhs = -5;
  auto domains = Domains({{0, 1000}, {0, 1000}});
  ASSERT_TRUE(PropagateIntervals({atom}, domains, TwoVars()));
  EXPECT_EQ(domains[0].lo, 5u);
}

TEST(PropagateIntervalsTest, EqualityPinsPoint) {
  LinearAtom atom;
  atom.terms = {LinearTerm{0, 2}};
  atom.cmp = LinCmp::kEq;
  atom.rhs = 14;
  auto domains = Domains({{0, 1000}, {0, 1000}});
  ASSERT_TRUE(PropagateIntervals({atom}, domains, TwoVars()));
  EXPECT_EQ(domains[0].lo, 7u);
  EXPECT_EQ(domains[0].hi, 7u);
}

TEST(PropagateIntervalsTest, DetectsEmptyDomain) {
  LinearAtom ge;
  ge.terms = {LinearTerm{0, 1}};
  ge.cmp = LinCmp::kGe;
  ge.rhs = 100;
  LinearAtom le;
  le.terms = {LinearTerm{0, 1}};
  le.cmp = LinCmp::kLe;
  le.rhs = 50;
  auto domains = Domains({{0, 1000}, {0, 1000}});
  EXPECT_FALSE(PropagateIntervals({ge, le}, domains, TwoVars()));
}

TEST(PropagateIntervalsTest, CrossVariableTightening) {
  // x + y <= 10 with y >= 8  =>  x <= 2
  LinearAtom sum;
  sum.terms = {LinearTerm{0, 1}, LinearTerm{1, 1}};
  sum.cmp = LinCmp::kLe;
  sum.rhs = 10;
  LinearAtom y_ge;
  y_ge.terms = {LinearTerm{1, 1}};
  y_ge.cmp = LinCmp::kGe;
  y_ge.rhs = 8;
  auto domains = Domains({{0, 1000}, {0, 1000}});
  ASSERT_TRUE(PropagateIntervals({sum, y_ge}, domains, TwoVars()));
  EXPECT_EQ(domains[0].hi, 2u);
  EXPECT_EQ(domains[1].lo, 8u);
  EXPECT_LE(domains[1].hi, 10u);
}

TEST(PropagateIntervalsTest, DifferenceConstraintChain) {
  // x - y >= 3 and x <= 5  =>  y <= 2
  LinearAtom diff;
  diff.terms = {LinearTerm{0, 1}, LinearTerm{1, -1}};
  diff.cmp = LinCmp::kGe;
  diff.rhs = 3;
  LinearAtom x_le;
  x_le.terms = {LinearTerm{0, 1}};
  x_le.cmp = LinCmp::kLe;
  x_le.rhs = 5;
  auto domains = Domains({{0, 1000}, {0, 1000}});
  ASSERT_TRUE(PropagateIntervals({diff, x_le}, domains, TwoVars()));
  EXPECT_EQ(domains[1].hi, 2u);
  EXPECT_GE(domains[0].lo, 3u);
}

TEST(PropagateIntervalsTest, NeDoesNotTighten) {
  LinearAtom atom;
  atom.terms = {LinearTerm{0, 1}};
  atom.cmp = LinCmp::kNe;
  atom.rhs = 5;
  auto domains = Domains({{0, 10}, {0, 10}});
  ASSERT_TRUE(PropagateIntervals({atom}, domains, TwoVars()));
  EXPECT_EQ(domains[0].lo, 0u);
  EXPECT_EQ(domains[0].hi, 10u);
}

// --- Constraint-independence slicing -----------------------------------------

using solver_internal::SliceConstraints;
using solver_internal::SliceResult;

ExprPtr V(VarId id, uint8_t bits = 32) { return Expr::MakeVar(id, bits); }
ExprPtr C(uint64_t v, uint8_t bits = 32) { return Expr::MakeConst(v, bits); }

TEST(SliceConstraintsTest, DropsSatisfiedIndependentComponents) {
  // Components: {v0}, {v1}, {v2, v3} (linked by a shared atom). Base satisfies
  // the v1 and v2/v3 components but violates the v0 constraint.
  std::vector<ExprPtr> constraints = {
      Expr::Eq(V(0), C(5)),                       // violated (base v0 = 1)
      Expr::ULt(V(1), C(10)),                     // satisfied
      Expr::UGe(Expr::Add(V(2), V(3)), C(3)),     // satisfied
      Expr::ULe(V(3), C(9)),                      // satisfied, same component
  };
  std::vector<uint64_t> base = {1, 2, 2, 2};
  SliceResult slice = SliceConstraints(constraints, base);
  EXPECT_FALSE(slice.trivially_unsat);
  ASSERT_EQ(slice.active.size(), 1u);
  EXPECT_TRUE(Expr::Identical(slice.active[0], constraints[0]));
  EXPECT_EQ(slice.sliced_away, 3u);
}

TEST(SliceConstraintsTest, KeepsWholeComponentOfViolatedConstraint) {
  // v0 and v1 are linked through the sum atom; violating the v1 bound must
  // keep the sum atom too, even though the base satisfies it.
  std::vector<ExprPtr> constraints = {
      Expr::ULe(Expr::Add(V(0), V(1)), C(10)),  // satisfied, shares v1
      Expr::UGe(V(1), C(9)),                    // violated (base v1 = 2)
      Expr::ULt(V(2), C(100)),                  // satisfied, independent
  };
  std::vector<uint64_t> base = {1, 2, 3};
  SliceResult slice = SliceConstraints(constraints, base);
  ASSERT_EQ(slice.active.size(), 2u);
  EXPECT_EQ(slice.sliced_away, 1u);
}

TEST(SliceConstraintsTest, ConstantFalseIsTriviallyUnsat) {
  std::vector<ExprPtr> constraints = {Expr::ULt(V(0), C(10)), C(0, 1)};
  std::vector<uint64_t> base = {50};
  SliceResult slice = SliceConstraints(constraints, base);
  EXPECT_TRUE(slice.trivially_unsat);
}

TEST(SliceConstraintsTest, AllSatisfiedSlicesEverything) {
  std::vector<ExprPtr> constraints = {Expr::ULt(V(0), C(10)), Expr::UGt(V(1), C(1))};
  std::vector<uint64_t> base = {5, 7};
  SliceResult slice = SliceConstraints(constraints, base);
  EXPECT_TRUE(slice.active.empty());
  EXPECT_EQ(slice.sliced_away, 2u);
}

// --- Cross-run query cache ----------------------------------------------------

std::vector<VarInfo> CacheVars() {
  std::vector<VarInfo> vars(2);
  vars[0] = VarInfo{0, "x", 32, 0, 0, 1000};
  vars[1] = VarInfo{1, "y", 32, 0, 0, 1000};
  return vars;
}

TEST(SolverCacheTest, ExactHitServesRepeatedQuery) {
  Solver solver;
  auto vars = CacheVars();
  Assignment hint{{0, 1}, {1, 1}};
  std::vector<ExprPtr> query = {Expr::Eq(V(0), C(500))};
  auto first = solver.Solve(query, vars, hint);
  ASSERT_EQ(first.kind, SolveKind::kSat);
  EXPECT_EQ(solver.stats().cache_hits, 0u);
  EXPECT_EQ(solver.stats().cache_misses, 1u);
  auto second = solver.Solve(query, vars, hint);
  ASSERT_EQ(second.kind, SolveKind::kSat);
  EXPECT_EQ(second.model.at(0), first.model.at(0));
  EXPECT_EQ(solver.stats().cache_hits, 1u);
  EXPECT_EQ(solver.stats().cache_misses, 1u);
}

TEST(SolverCacheTest, UnsatSupersetShortcut) {
  Solver solver;
  auto vars = CacheVars();
  Assignment hint{{0, 1}, {1, 1}};
  // x >= 100 && x <= 50 is interval-refuted.
  ExprPtr ge = Expr::UGe(V(0), C(100));
  ExprPtr le = Expr::ULe(V(0), C(50));
  auto first = solver.Solve({ge, le}, vars, hint);
  ASSERT_EQ(first.kind, SolveKind::kUnsat);
  // A strict superset (extra y constraint the hint violates, so it is not
  // sliced away) must be served by the UNSAT-superset rule without a solve.
  uint64_t misses_before = solver.stats().cache_misses;
  auto superset = solver.Solve({ge, le, Expr::UGe(V(1), C(7))}, vars, hint);
  EXPECT_EQ(superset.kind, SolveKind::kUnsat);
  EXPECT_GT(solver.stats().cache_unsat_shortcuts, 0u);
  EXPECT_EQ(solver.stats().cache_misses, misses_before);
}

TEST(SolverCacheTest, DisabledCacheNeverCounts) {
  SolverOptions options;
  options.enable_cache = false;
  Solver solver(options);
  auto vars = CacheVars();
  Assignment hint{{0, 1}, {1, 1}};
  std::vector<ExprPtr> query = {Expr::Eq(V(0), C(500))};
  solver.Solve(query, vars, hint);
  solver.Solve(query, vars, hint);
  EXPECT_EQ(solver.stats().cache_hits, 0u);
  EXPECT_EQ(solver.stats().cache_misses, 0u);
}

TEST(SolverSlicingTest, SlicedVarsKeepHintValues) {
  SolverOptions options;
  Solver solver(options);
  auto vars = CacheVars();
  // Hint satisfies the y constraint; only x needs solving, and y must carry
  // the hint value into the model untouched.
  Assignment hint{{0, 1}, {1, 321}};
  auto result = solver.Solve({Expr::Eq(V(0), C(77)), Expr::UGe(V(1), C(300))}, vars, hint);
  ASSERT_EQ(result.kind, SolveKind::kSat);
  EXPECT_EQ(result.model.at(0), 77u);
  EXPECT_EQ(result.model.at(1), 321u);
  EXPECT_GT(solver.stats().atoms_sliced, 0u);
}

// Property: propagation is sound — it never removes an actual solution.
class PropagationSoundness : public ::testing::TestWithParam<uint64_t> {};

TEST_P(PropagationSoundness, NeverRemovesSolutions) {
  Rng rng(GetParam());
  for (int iter = 0; iter < 300; ++iter) {
    // Small random system over x,y in [0,30].
    std::vector<LinearAtom> atoms;
    size_t n = 1 + rng.NextBelow(3);
    for (size_t i = 0; i < n; ++i) {
      LinearAtom atom;
      atom.terms.push_back(LinearTerm{0, static_cast<int64_t>(rng.NextInRange(-3, 3))});
      if (rng.NextBool(0.6)) {
        atom.terms.push_back(LinearTerm{1, static_cast<int64_t>(rng.NextInRange(-3, 3))});
      }
      // Drop zero-coefficient terms (Linearize never produces them).
      std::vector<LinearTerm> cleaned;
      for (const LinearTerm& t : atom.terms) {
        if (t.coef != 0) {
          cleaned.push_back(t);
        }
      }
      if (cleaned.empty()) {
        continue;
      }
      atom.terms = cleaned;
      atom.cmp = rng.NextBool(0.5) ? LinCmp::kLe : LinCmp::kGe;
      atom.rhs = rng.NextInRange(-40, 80);
      atoms.push_back(atom);
    }

    std::vector<VarInfo> vars(2);
    vars[0] = VarInfo{0, "x", 32, 0, 0, 30};
    vars[1] = VarInfo{1, "y", 32, 0, 0, 30};
    auto domains = Domains({{0, 30}, {0, 30}});
    bool feasible_after = PropagateIntervals(atoms, domains, vars);

    // Brute force all (x, y).
    for (uint64_t x = 0; x <= 30; ++x) {
      for (uint64_t y = 0; y <= 30; ++y) {
        bool sat = true;
        for (const LinearAtom& atom : atoms) {
          int64_t sum = 0;
          for (const LinearTerm& t : atom.terms) {
            sum += t.coef * static_cast<int64_t>(t.var == 0 ? x : y);
          }
          bool ok = atom.cmp == LinCmp::kLe ? sum <= atom.rhs : sum >= atom.rhs;
          if (!ok) {
            sat = false;
            break;
          }
        }
        if (sat) {
          ASSERT_TRUE(feasible_after) << "propagation refuted a satisfiable system";
          EXPECT_GE(x, domains[0].lo);
          EXPECT_LE(x, domains[0].hi);
          EXPECT_GE(y, domains[1].lo);
          EXPECT_LE(y, domains[1].hi);
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PropagationSoundness, ::testing::Values(1, 2, 3, 4));

}  // namespace
}  // namespace dice::sym
