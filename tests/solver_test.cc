// Unit and property tests for the LP simplex and MILP branch-and-bound.

#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/rng.h"
#include "src/solver/certify.h"
#include "src/solver/milp.h"
#include "src/solver/model.h"
#include "src/solver/simplex.h"

namespace tetrisched {
namespace {

TEST(LpSolverTest, SimpleTwoVarMax) {
  // max 3x + 2y s.t. x + y <= 4, x + 3y <= 6, x,y >= 0  -> x=4, y=0, obj=12.
  MilpModel model;
  VarId x = model.AddContinuousVar(0, kInfinity, "x");
  VarId y = model.AddContinuousVar(0, kInfinity, "y");
  model.AddObjectiveTerm(x, 3.0);
  model.AddObjectiveTerm(y, 2.0);
  model.AddConstraint({{x, 1}, {y, 1}}, ConstraintSense::kLessEqual, 4);
  model.AddConstraint({{x, 1}, {y, 3}}, ConstraintSense::kLessEqual, 6);

  LpSolver solver(model);
  LpResult result = solver.Solve();
  ASSERT_EQ(result.status, LpStatus::kOptimal);
  EXPECT_NEAR(result.objective, 12.0, 1e-6);
  EXPECT_NEAR(result.values[x], 4.0, 1e-6);
  EXPECT_NEAR(result.values[y], 0.0, 1e-6);
}

TEST(LpSolverTest, InteriorOptimum) {
  // max x + y s.t. 2x + y <= 4, x + 2y <= 4 -> x=y=4/3, obj=8/3.
  MilpModel model;
  VarId x = model.AddContinuousVar(0, kInfinity, "x");
  VarId y = model.AddContinuousVar(0, kInfinity, "y");
  model.AddObjectiveTerm(x, 1.0);
  model.AddObjectiveTerm(y, 1.0);
  model.AddConstraint({{x, 2}, {y, 1}}, ConstraintSense::kLessEqual, 4);
  model.AddConstraint({{x, 1}, {y, 2}}, ConstraintSense::kLessEqual, 4);

  LpResult result = LpSolver(model).Solve();
  ASSERT_EQ(result.status, LpStatus::kOptimal);
  EXPECT_NEAR(result.objective, 8.0 / 3.0, 1e-6);
  EXPECT_NEAR(result.values[x], 4.0 / 3.0, 1e-6);
  EXPECT_NEAR(result.values[y], 4.0 / 3.0, 1e-6);
}

TEST(LpSolverTest, UpperBoundsRespected) {
  // max x + y with x <= 1.5, y <= 2.5 and x + y <= 3 -> obj = 3.
  MilpModel model;
  VarId x = model.AddContinuousVar(0, 1.5, "x");
  VarId y = model.AddContinuousVar(0, 2.5, "y");
  model.AddObjectiveTerm(x, 1.0);
  model.AddObjectiveTerm(y, 1.0);
  model.AddConstraint({{x, 1}, {y, 1}}, ConstraintSense::kLessEqual, 3);

  LpResult result = LpSolver(model).Solve();
  ASSERT_EQ(result.status, LpStatus::kOptimal);
  EXPECT_NEAR(result.objective, 3.0, 1e-6);
  EXPECT_LE(result.values[x], 1.5 + 1e-9);
  EXPECT_LE(result.values[y], 2.5 + 1e-9);
}

TEST(LpSolverTest, EqualityConstraintNeedsPhase1) {
  // max x + 2y s.t. x + y == 5, y <= 3 -> x=2, y=3, obj=8.
  MilpModel model;
  VarId x = model.AddContinuousVar(0, kInfinity, "x");
  VarId y = model.AddContinuousVar(0, 3, "y");
  model.AddObjectiveTerm(x, 1.0);
  model.AddObjectiveTerm(y, 2.0);
  model.AddConstraint({{x, 1}, {y, 1}}, ConstraintSense::kEqual, 5);

  LpResult result = LpSolver(model).Solve();
  ASSERT_EQ(result.status, LpStatus::kOptimal);
  EXPECT_NEAR(result.objective, 8.0, 1e-6);
  EXPECT_NEAR(result.values[x], 2.0, 1e-6);
  EXPECT_NEAR(result.values[y], 3.0, 1e-6);
}

TEST(LpSolverTest, GreaterEqualConstraint) {
  // max -x (i.e. minimize x) s.t. x >= 2 -> x=2.
  MilpModel model;
  VarId x = model.AddContinuousVar(0, kInfinity, "x");
  model.AddObjectiveTerm(x, -1.0);
  model.AddConstraint({{x, 1}}, ConstraintSense::kGreaterEqual, 2);

  LpResult result = LpSolver(model).Solve();
  ASSERT_EQ(result.status, LpStatus::kOptimal);
  EXPECT_NEAR(result.values[x], 2.0, 1e-6);
  EXPECT_NEAR(result.objective, -2.0, 1e-6);
}

TEST(LpSolverTest, DetectsInfeasible) {
  MilpModel model;
  VarId x = model.AddContinuousVar(0, 1, "x");
  model.AddObjectiveTerm(x, 1.0);
  model.AddConstraint({{x, 1}}, ConstraintSense::kGreaterEqual, 2);

  LpResult result = LpSolver(model).Solve();
  EXPECT_EQ(result.status, LpStatus::kInfeasible);
}

TEST(LpSolverTest, DetectsUnbounded) {
  MilpModel model;
  VarId x = model.AddContinuousVar(0, kInfinity, "x");
  VarId y = model.AddContinuousVar(0, kInfinity, "y");
  model.AddObjectiveTerm(x, 1.0);
  model.AddConstraint({{x, 1}, {y, -1}}, ConstraintSense::kLessEqual, 1);

  LpResult result = LpSolver(model).Solve();
  EXPECT_EQ(result.status, LpStatus::kUnbounded);
}

TEST(LpSolverTest, FreeVariable) {
  // max -|x| style: max -x + y, y <= 2, x >= -3 (free var with negative lb)
  // x + y <= 1 -> push x to -3, y to 2? x + y = -1 <= 1 ok. obj = 3 + 2 = 5.
  MilpModel model;
  VarId x = model.AddContinuousVar(-3, kInfinity, "x");
  VarId y = model.AddContinuousVar(0, 2, "y");
  model.AddObjectiveTerm(x, -1.0);
  model.AddObjectiveTerm(y, 1.0);
  model.AddConstraint({{x, 1}, {y, 1}}, ConstraintSense::kLessEqual, 1);

  LpResult result = LpSolver(model).Solve();
  ASSERT_EQ(result.status, LpStatus::kOptimal);
  EXPECT_NEAR(result.objective, 5.0, 1e-6);
}

TEST(LpSolverTest, DuplicateTermsAreSummed) {
  // x appears twice with coeff 0.5 each -> effectively x <= 3.
  MilpModel model;
  VarId x = model.AddContinuousVar(0, kInfinity, "x");
  model.AddObjectiveTerm(x, 1.0);
  model.AddConstraint({{x, 0.5}, {x, 0.5}}, ConstraintSense::kLessEqual, 3);

  LpResult result = LpSolver(model).Solve();
  ASSERT_EQ(result.status, LpStatus::kOptimal);
  EXPECT_NEAR(result.values[x], 3.0, 1e-6);
}

TEST(LpSolverTest, DegenerateProblemTerminates) {
  // Many redundant constraints through the same vertex.
  MilpModel model;
  VarId x = model.AddContinuousVar(0, kInfinity, "x");
  VarId y = model.AddContinuousVar(0, kInfinity, "y");
  model.AddObjectiveTerm(x, 1.0);
  model.AddObjectiveTerm(y, 1.0);
  for (int i = 0; i < 20; ++i) {
    model.AddConstraint({{x, 1.0 + 0.0 * i}, {y, 1.0}},
                        ConstraintSense::kLessEqual, 2);
  }
  LpResult result = LpSolver(model).Solve();
  ASSERT_EQ(result.status, LpStatus::kOptimal);
  EXPECT_NEAR(result.objective, 2.0, 1e-6);
}

TEST(MilpSolverTest, Knapsack) {
  // values {10,13,7}, weights {3,4,2}, cap 6 -> best {13,7} = 20.
  MilpModel model;
  std::vector<VarId> pick;
  const double values[] = {10, 13, 7};
  const double weights[] = {3, 4, 2};
  std::vector<LinTerm> row;
  for (int i = 0; i < 3; ++i) {
    VarId v = model.AddBinaryVar("pick" + std::to_string(i));
    model.AddObjectiveTerm(v, values[i]);
    row.push_back({v, weights[i]});
    pick.push_back(v);
  }
  model.AddConstraint(row, ConstraintSense::kLessEqual, 6);

  MilpOptions options;
  options.rel_gap = 0.0;
  MilpResult result = MilpSolver(model, options).Solve();
  ASSERT_TRUE(result.HasSolution());
  EXPECT_EQ(result.status, SolveStatus::kOptimal);
  EXPECT_NEAR(result.objective, 20.0, 1e-6);
  EXPECT_NEAR(result.values[pick[0]], 0.0, 1e-6);
  EXPECT_NEAR(result.values[pick[1]], 1.0, 1e-6);
  EXPECT_NEAR(result.values[pick[2]], 1.0, 1e-6);
}

TEST(MilpSolverTest, IntegerVariableRounding) {
  // max x s.t. 2x <= 7, x integer -> x = 3.
  MilpModel model;
  VarId x = model.AddIntegerVar(0, kInfinity, "x");
  model.AddObjectiveTerm(x, 1.0);
  model.AddConstraint({{x, 2}}, ConstraintSense::kLessEqual, 7);

  MilpOptions options;
  options.rel_gap = 0.0;
  MilpResult result = MilpSolver(model, options).Solve();
  ASSERT_TRUE(result.HasSolution());
  EXPECT_NEAR(result.objective, 3.0, 1e-6);
}

TEST(MilpSolverTest, InfeasibleIntegerProblem) {
  // 0.4 <= x <= 0.6, x binary -> infeasible.
  MilpModel model;
  VarId x = model.AddBinaryVar("x");
  model.AddObjectiveTerm(x, 1.0);
  model.AddConstraint({{x, 1}}, ConstraintSense::kGreaterEqual, 0.4);
  model.AddConstraint({{x, 1}}, ConstraintSense::kLessEqual, 0.6);

  MilpResult result = MilpSolver(model).Solve();
  EXPECT_EQ(result.status, SolveStatus::kInfeasible);
}

TEST(MilpSolverTest, WarmStartAccepted) {
  MilpModel model;
  VarId x = model.AddBinaryVar("x");
  VarId y = model.AddBinaryVar("y");
  model.AddObjectiveTerm(x, 2.0);
  model.AddObjectiveTerm(y, 3.0);
  model.AddConstraint({{x, 1}, {y, 1}}, ConstraintSense::kLessEqual, 1);

  std::vector<double> warm = {1.0, 0.0};  // feasible but suboptimal
  MilpOptions options;
  options.rel_gap = 0.0;
  MilpResult result = MilpSolver(model, options).Solve(warm);
  ASSERT_TRUE(result.HasSolution());
  EXPECT_NEAR(result.objective, 3.0, 1e-6);  // improves past the warm start
}

TEST(MilpSolverTest, GapLimitStopsEarly) {
  // A problem with optimum 100; an incumbent of >= 91 satisfies a 10% gap.
  MilpModel model;
  std::vector<LinTerm> row;
  for (int i = 0; i < 10; ++i) {
    VarId v = model.AddBinaryVar("v" + std::to_string(i));
    model.AddObjectiveTerm(v, 10.0);
    row.push_back({v, 1.0});
  }
  model.AddConstraint(row, ConstraintSense::kLessEqual, 10);

  MilpOptions options;
  options.rel_gap = 0.10;
  MilpResult result = MilpSolver(model, options).Solve();
  ASSERT_TRUE(result.HasSolution());
  EXPECT_GE(result.objective, 90.0 - 1e-6);
}

// Property test: on random small MILPs, branch-and-bound must match
// exhaustive enumeration of the binary assignments.
class MilpRandomTest : public ::testing::TestWithParam<int> {};

TEST_P(MilpRandomTest, MatchesBruteForce) {
  Rng rng(1234 + GetParam());
  const int num_vars = static_cast<int>(rng.UniformInt(2, 8));
  const int num_cons = static_cast<int>(rng.UniformInt(1, 6));

  MilpModel model;
  std::vector<double> objective(num_vars);
  for (int v = 0; v < num_vars; ++v) {
    model.AddBinaryVar("b" + std::to_string(v));
    objective[v] = rng.UniformReal(-5.0, 10.0);
    model.AddObjectiveTerm(v, objective[v]);
  }
  struct Row {
    std::vector<double> coeffs;
    ConstraintSense sense;
    double rhs;
  };
  std::vector<Row> rows;
  for (int c = 0; c < num_cons; ++c) {
    Row row;
    row.coeffs.resize(num_vars);
    std::vector<LinTerm> terms;
    for (int v = 0; v < num_vars; ++v) {
      row.coeffs[v] = rng.Bernoulli(0.6) ? rng.UniformReal(-3.0, 5.0) : 0.0;
      if (row.coeffs[v] != 0.0) {
        terms.push_back({v, row.coeffs[v]});
      }
    }
    row.sense = ConstraintSense::kLessEqual;
    row.rhs = rng.UniformReal(0.0, 6.0);
    rows.push_back(row);
    if (!terms.empty()) {
      model.AddConstraint(terms, row.sense, row.rhs);
    }
  }

  // Brute force over all 2^n assignments.
  double best = -kInfinity;
  for (int mask = 0; mask < (1 << num_vars); ++mask) {
    bool feasible = true;
    for (const Row& row : rows) {
      double lhs = 0.0;
      for (int v = 0; v < num_vars; ++v) {
        if (mask & (1 << v)) {
          lhs += row.coeffs[v];
        }
      }
      if (lhs > row.rhs + 1e-9) {
        feasible = false;
        break;
      }
    }
    if (!feasible) {
      continue;
    }
    double obj = 0.0;
    for (int v = 0; v < num_vars; ++v) {
      if (mask & (1 << v)) {
        obj += objective[v];
      }
    }
    best = std::max(best, obj);
  }

  MilpOptions options;
  options.rel_gap = 0.0;
  MilpResult result = MilpSolver(model, options).Solve();
  if (best == -kInfinity) {
    EXPECT_EQ(result.status, SolveStatus::kInfeasible);
  } else {
    ASSERT_TRUE(result.HasSolution()) << "seed " << GetParam();
    EXPECT_EQ(result.status, SolveStatus::kOptimal) << "seed " << GetParam();
    EXPECT_NEAR(result.objective, best, 1e-5) << "seed " << GetParam();
    EXPECT_TRUE(model.IsFeasible(result.values));
  }
}

INSTANTIATE_TEST_SUITE_P(RandomInstances, MilpRandomTest,
                         ::testing::Range(0, 40));

// Property test: random LPs where x=0 is feasible must report an objective
// at least 0 and a feasible solution.
class LpRandomTest : public ::testing::TestWithParam<int> {};

TEST_P(LpRandomTest, FeasibleAndBoundConsistent) {
  Rng rng(99 + GetParam());
  const int num_vars = static_cast<int>(rng.UniformInt(2, 12));
  const int num_cons = static_cast<int>(rng.UniformInt(1, 10));

  MilpModel model;
  for (int v = 0; v < num_vars; ++v) {
    model.AddContinuousVar(0.0, rng.UniformReal(0.5, 4.0));
    model.AddObjectiveTerm(v, rng.UniformReal(-2.0, 5.0));
  }
  for (int c = 0; c < num_cons; ++c) {
    std::vector<LinTerm> terms;
    for (int v = 0; v < num_vars; ++v) {
      if (rng.Bernoulli(0.5)) {
        terms.push_back({v, rng.UniformReal(0.1, 3.0)});
      }
    }
    if (!terms.empty()) {
      model.AddConstraint(terms, ConstraintSense::kLessEqual,
                          rng.UniformReal(0.5, 8.0));
    }
  }

  LpResult result = LpSolver(model).Solve();
  ASSERT_EQ(result.status, LpStatus::kOptimal) << "seed " << GetParam();
  EXPECT_GE(result.objective, -1e-9);
  EXPECT_TRUE(model.IsFeasible(result.values, 1e-5));
}

INSTANTIATE_TEST_SUITE_P(RandomInstances, LpRandomTest,
                         ::testing::Range(0, 40));

TEST(MilpModelTest, FeasibilityChecker) {
  MilpModel model;
  VarId x = model.AddBinaryVar("x");
  VarId y = model.AddContinuousVar(0, 2, "y");
  model.AddConstraint({{x, 1}, {y, 1}}, ConstraintSense::kLessEqual, 2);

  EXPECT_TRUE(model.IsFeasible(std::vector<double>{1.0, 1.0}));
  EXPECT_FALSE(model.IsFeasible(std::vector<double>{0.5, 1.0}));  // frac bin
  EXPECT_FALSE(model.IsFeasible(std::vector<double>{1.0, 1.5}));  // row viol
  EXPECT_FALSE(model.IsFeasible(std::vector<double>{1.0, 3.0}));  // bound
}

TEST(MilpModelTest, DebugStringMentionsPieces) {
  MilpModel model;
  VarId x = model.AddBinaryVar("choose");
  model.AddObjectiveTerm(x, 4.0);
  model.AddConstraint({{x, 1}}, ConstraintSense::kLessEqual, 1, "cap");
  std::string dump = model.DebugString();
  EXPECT_NE(dump.find("maximize"), std::string::npos);
  EXPECT_NE(dump.find("cap"), std::string::npos);
  EXPECT_NE(dump.find("choose"), std::string::npos);
}

// max 10a + b + 8c + 19d + 10e  s.t.  a + 7b + 8c + 2d + 7e <= 12, binary.
MilpModel SmallKnapsack() {
  MilpModel model;
  const double value[] = {10, 1, 8, 19, 10};
  const double weight[] = {1, 7, 8, 2, 7};
  std::vector<LinTerm> row;
  for (int v = 0; v < 5; ++v) {
    model.AddBinaryVar();
    model.AddObjectiveTerm(v, value[v]);
    row.push_back({v, weight[v]});
  }
  model.AddConstraint(row, ConstraintSense::kLessEqual, 12);
  return model;
}

TEST(MilpBoundTest, LeftoverNodesBelowIncumbentDoNotLowerTheBound) {
  // Six nodes into this search the incumbent (39) already beats the bound of
  // every node still queued (38.43): pruning is lazy, so they are still
  // open when the search stops. The reported bound must not drop below the
  // incumbent, or the certifier rejects an honest plan.
  MilpModel model = SmallKnapsack();
  MilpOptions options;
  options.num_threads = 1;
  options.rel_gap = 0.0;
  options.max_nodes = 6;
  options.enable_presolve = false;
  options.enable_decomposition = false;
  options.enable_diving = false;
  MilpResult result = MilpSolver(model, options).Solve();
  ASSERT_TRUE(result.HasSolution());
  EXPECT_NEAR(result.objective, 39.0, 1e-9);
  EXPECT_GE(result.best_bound, result.objective);
  CertifyReport report = CertifyPlan(model, result, options);
  EXPECT_TRUE(report.ok) << report.failure;
}

TEST(MilpBoundTest, RootIterationLimitClaimsNoBound) {
  // Every LP stops after one pivot, so no relaxation finishes: the root's
  // objective bounds nothing, and nothing can be proven optimal.
  MilpModel model = SmallKnapsack();
  MilpOptions options;
  options.num_threads = 1;
  options.lp.max_iterations = 1;
  MilpResult result = MilpSolver(model, options).Solve();
  ASSERT_TRUE(result.HasSolution());
  EXPECT_GE(result.best_bound, result.objective);
  EXPECT_NE(result.status, SolveStatus::kOptimal);
  EXPECT_NE(result.status, SolveStatus::kGapMet);
  CertifyReport report = CertifyPlan(model, result, options);
  EXPECT_TRUE(report.ok) << report.failure;

  // With a covering row the slack basis is infeasible, so the root is cut
  // off in phase 1 with no values: infeasibility is not proven either.
  model.AddConstraint({{0, 1}, {1, 1}, {2, 1}, {3, 1}, {4, 1}},
                      ConstraintSense::kGreaterEqual, 1);
  MilpResult cut = MilpSolver(model, options).Solve();
  EXPECT_EQ(cut.status, SolveStatus::kNoIncumbent);
}

}  // namespace
}  // namespace tetrisched
