// Differential tests for warm LP re-solves: a warm-started solve after bound
// tightenings (the dual simplex path) must agree with a cold primal solve of
// the same tightened LP — same status, same objective, feasible values — and
// the fallback paths (basis not dual feasible, singular snapshot, cancelled
// mid-dual) must stay honest.

#include <algorithm>
#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/budget.h"
#include "src/common/metrics.h"
#include "src/common/rng.h"
#include "src/solver/model.h"
#include "src/solver/simplex.h"

namespace tetrisched {
namespace {

int64_t CounterValue(const char* name) {
  return GlobalMetrics().GetCounter(name)->value();
}

// A random LP with at most 40 variables and mixed row senses. Most variables
// are boxed; a few are one-sided, so some instances are unbounded. Row
// right-hand sides are built around a random point inside the bounds, so the
// LP is feasible unless `infeasible` adds a contradictory pair of rows.
MilpModel RandomLp(Rng& rng, bool infeasible) {
  MilpModel model;
  const int n = static_cast<int>(rng.UniformInt(2, 40));
  const int m = static_cast<int>(rng.UniformInt(1, 30));
  std::vector<double> point(n);
  for (int v = 0; v < n; ++v) {
    const double lower = rng.Bernoulli(0.2) ? rng.UniformInt(-5, 0) : 0.0;
    const double upper =
        rng.Bernoulli(0.1) ? kInfinity : lower + rng.UniformInt(1, 8);
    model.AddContinuousVar(lower, upper);
    model.AddObjectiveTerm(v, rng.UniformInt(-6, 10));
    point[v] = lower + rng.UniformReal(0.0, std::min(upper - lower, 8.0));
  }
  for (int c = 0; c < m; ++c) {
    std::vector<LinTerm> terms;
    double activity = 0.0;
    for (int v = 0; v < n; ++v) {
      if (!rng.Bernoulli(0.3)) {
        continue;
      }
      const double coeff = static_cast<double>(rng.UniformInt(-5, 5));
      terms.push_back({v, coeff});
      activity += coeff * point[v];
    }
    if (terms.empty()) {
      terms.push_back({static_cast<VarId>(rng.UniformInt(0, n - 1)), 1.0});
      activity += point[terms[0].var];
    }
    switch (rng.UniformInt(0, 4)) {
      case 0:
        model.AddConstraint(terms, ConstraintSense::kEqual, activity);
        break;
      case 1:
        model.AddConstraint(terms, ConstraintSense::kGreaterEqual,
                            activity - rng.UniformReal(0.0, 4.0));
        break;
      default:
        model.AddConstraint(terms, ConstraintSense::kLessEqual,
                            activity + rng.UniformReal(0.0, 4.0));
        break;
    }
  }
  if (infeasible) {
    model.AddConstraint({{0, 1.0}, {n - 1, 1.0}}, ConstraintSense::kLessEqual,
                        -20.0);
    model.AddConstraint({{0, 1.0}, {n - 1, 1.0}},
                        ConstraintSense::kGreaterEqual, 20.0);
  }
  return model;
}

// Largest violation of a row or a variable bound, each scaled by the size of
// the terms involved.
double MaxViolation(const MilpModel& model, const std::vector<double>& x,
                    const std::vector<double>& lower,
                    const std::vector<double>& upper) {
  double worst = 0.0;
  for (int v = 0; v < model.num_vars(); ++v) {
    worst = std::max({worst, lower[v] - x[v], x[v] - upper[v]});
  }
  for (int c = 0; c < model.num_constraints(); ++c) {
    double lhs = 0.0;
    double scale = 1.0;
    for (const LinTerm& term : model.constraint_terms(c)) {
      lhs += term.coeff * x[term.var];
      scale = std::max(scale, std::abs(term.coeff * x[term.var]));
    }
    const double rhs = model.constraint_rhs(c);
    double viol = 0.0;
    switch (model.constraint_sense(c)) {
      case ConstraintSense::kLessEqual:
        viol = lhs - rhs;
        break;
      case ConstraintSense::kGreaterEqual:
        viol = rhs - lhs;
        break;
      case ConstraintSense::kEqual:
        viol = std::abs(lhs - rhs);
        break;
    }
    worst = std::max(worst, viol / std::max(scale, std::abs(rhs)));
  }
  return worst;
}

// Warm result vs. cold result of the same LP under the same bounds.
void ExpectAgree(const MilpModel& model, const LpResult& warm,
                 const LpResult& cold, const std::vector<double>& lower,
                 const std::vector<double>& upper, const LpOptions& options) {
  ASSERT_EQ(warm.status, cold.status);
  if (cold.status != LpStatus::kOptimal) {
    return;
  }
  EXPECT_NEAR(warm.objective, cold.objective,
              1e-6 * std::max(1.0, std::abs(cold.objective)));
  ASSERT_EQ(warm.values.size(), static_cast<size_t>(model.num_vars()));
  EXPECT_LE(MaxViolation(model, warm.values, lower, upper), options.feas_tol);
  EXPECT_LE(MaxViolation(model, cold.values, lower, upper), options.feas_tol);
}

// Random bound tightenings around the current optimum, the shape of a
// branching decision (and of several stacked ones).
void Tighten(Rng& rng, const std::vector<double>& values,
             std::vector<double>& lower, std::vector<double>& upper) {
  const int changes = static_cast<int>(rng.UniformInt(1, 3));
  const int n = static_cast<int>(lower.size());
  for (int k = 0; k < changes; ++k) {
    const int v = static_cast<int>(rng.UniformInt(0, n - 1));
    const double x = values.empty() ? lower[v] : values[v];
    if (rng.Bernoulli(0.5)) {
      upper[v] = std::max(lower[v], std::floor(x - rng.UniformReal(0.0, 1.0)));
    } else {
      lower[v] = std::min(upper[v], std::ceil(x + rng.UniformReal(0.0, 1.0)));
    }
  }
}

class LpDifferentialTest : public ::testing::TestWithParam<int> {};

TEST_P(LpDifferentialTest, WarmDualResolveMatchesColdSolve) {
  LpOptions options;
  options.refactor_every = GetParam();
  Rng rng(20240417 + GetParam());
  const int64_t dual_before = CounterValue("tetrisched_solver_dual_pivots_total");
  int warm_solves = 0;
  for (int instance = 0; instance < 150; ++instance) {
    SCOPED_TRACE(instance);
    MilpModel model = RandomLp(rng, /*infeasible=*/instance % 10 == 9);
    const int n = model.num_vars();
    std::vector<double> lower(n), upper(n);
    for (int v = 0; v < n; ++v) {
      lower[v] = model.lower_bound(v);
      upper[v] = model.upper_bound(v);
    }
    LpSolver warm_solver(model, options);
    LpResult result = warm_solver.Solve(lower, upper, nullptr);
    ExpectAgree(model, result, LpSolver(model, options).Solve(lower, upper),
                lower, upper, options);
    if (result.status != LpStatus::kOptimal) {
      continue;
    }
    // A chain of tightenings, each warm-started from the previous basis, as
    // a dive does.
    for (int round = 0; round < 6; ++round) {
      SCOPED_TRACE(round);
      Tighten(rng, result.values, lower, upper);
      LpBasis basis = warm_solver.BasisSnapshot();
      LpResult warm = warm_solver.Solve(lower, upper, &basis);
      LpResult cold = LpSolver(model, options).Solve(lower, upper);
      ++warm_solves;
      ExpectAgree(model, warm, cold, lower, upper, options);
      if (warm.status != LpStatus::kOptimal) {
        break;
      }
      result = warm;
    }
  }
  EXPECT_GT(warm_solves, 300);
  EXPECT_GT(CounterValue("tetrisched_solver_dual_pivots_total"), dual_before);
}

INSTANTIATE_TEST_SUITE_P(RefactorEvery, LpDifferentialTest,
                         ::testing::Values(1, LpOptions{}.refactor_every));

TEST(LpDifferentialFallbackTest, DualInfeasibleWarmBasisFallsBackToPrimal) {
  // The optimal basis for c is, in general, not dual feasible for -c: a
  // nonbasic one-sided slack then prices the wrong way and the solve must
  // take the primal path — and still agree with a cold solve.
  Rng rng(99);
  const int64_t fallbacks_before =
      CounterValue("tetrisched_solver_dual_fallbacks_total");
  int compared = 0;
  for (int instance = 0; instance < 60; ++instance) {
    SCOPED_TRACE(instance);
    MilpModel model = RandomLp(rng, /*infeasible=*/false);
    MilpModel negated = model;
    for (int v = 0; v < model.num_vars(); ++v) {
      negated.AddObjectiveTerm(v, -2.0 * model.objective_coeff(v));
    }
    LpSolver solver(model);
    if (solver.Solve().status != LpStatus::kOptimal) {
      continue;
    }
    LpBasis basis = solver.BasisSnapshot();
    std::vector<double> lower(model.num_vars()), upper(model.num_vars());
    for (int v = 0; v < model.num_vars(); ++v) {
      lower[v] = model.lower_bound(v);
      upper[v] = model.upper_bound(v);
    }
    LpOptions options;
    LpResult warm = LpSolver(negated, options).Solve(lower, upper, &basis);
    LpResult cold = LpSolver(negated, options).Solve(lower, upper);
    ExpectAgree(negated, warm, cold, lower, upper, options);
    ++compared;
  }
  EXPECT_GT(compared, 30);
  EXPECT_GT(CounterValue("tetrisched_solver_dual_fallbacks_total"),
            fallbacks_before);
}

TEST(LpDifferentialFallbackTest, SingularSnapshotFallsBackToSlackBasis) {
  // x0 and x1 have identical columns, so a basis holding both is singular.
  // max x0 + 2 x1 + x2, x0 + x1 + x2 <= 4, 2 x0 + 2 x1 - x2 <= 3, x in [0, 3].
  MilpModel model;
  for (int v = 0; v < 3; ++v) {
    model.AddContinuousVar(0.0, 3.0);
    model.AddObjectiveTerm(v, v == 1 ? 2.0 : 1.0);
  }
  model.AddConstraint({{0, 1.0}, {1, 1.0}, {2, 1.0}},
                      ConstraintSense::kLessEqual, 4.0);
  model.AddConstraint({{0, 2.0}, {1, 2.0}, {2, -1.0}},
                      ConstraintSense::kLessEqual, 3.0);
  LpBasis singular;
  singular.basic = {0, 1};
  // Structural x2 and both slacks nonbasic at their lower bounds.
  singular.status = {0, 0, 1, 1, 1};
  std::vector<double> lower(3, 0.0), upper(3, 3.0);

  const int64_t dual_before = CounterValue("tetrisched_solver_dual_pivots_total");
  const int64_t refactors_before =
      CounterValue("tetrisched_solver_refactorizations_total");
  LpResult warm = LpSolver(model).Solve(lower, upper, &singular);
  LpResult cold = LpSolver(model).Solve(lower, upper);
  EXPECT_GT(CounterValue("tetrisched_solver_refactorizations_total"),
            refactors_before);
  EXPECT_EQ(CounterValue("tetrisched_solver_dual_pivots_total"), dual_before);
  ExpectAgree(model, warm, cold, lower, upper, LpOptions{});
  EXPECT_EQ(warm.status, LpStatus::kOptimal);
}

TEST(LpDifferentialFallbackTest, ExpiredTokenMidDualReturnsCancelled) {
  // Solve cold with a live token, tighten a bound the optimum violates so
  // the warm re-solve must pivot in the dual loop, then expire the token.
  Rng rng(7);
  int cancelled = 0;
  for (int instance = 0; instance < 40; ++instance) {
    SCOPED_TRACE(instance);
    MilpModel model = RandomLp(rng, /*infeasible=*/false);
    CancelToken token;
    LpOptions options;
    options.cancel = &token;
    LpSolver solver(model, options);
    LpResult first = solver.Solve();
    if (first.status != LpStatus::kOptimal) {
      continue;
    }
    std::vector<double> lower(model.num_vars()), upper(model.num_vars());
    for (int v = 0; v < model.num_vars(); ++v) {
      lower[v] = model.lower_bound(v);
      upper[v] = model.upper_bound(v);
    }
    // Cut off the optimum: clamp its largest-magnitude interior value.
    int var = -1;
    for (int v = 0; v < model.num_vars(); ++v) {
      if (first.values[v] > lower[v] + 0.5 && first.values[v] < upper[v] &&
          (var < 0 || first.values[v] - lower[v] >
                          first.values[var] - lower[var])) {
        var = v;
      }
    }
    if (var < 0) {
      continue;
    }
    upper[var] = lower[var];
    LpBasis basis = solver.BasisSnapshot();
    token.Cancel();
    LpResult result = solver.Solve(lower, upper, &basis);
    EXPECT_EQ(result.status, LpStatus::kCancelled);
    EXPECT_TRUE(result.values.empty());
    ++cancelled;
  }
  EXPECT_GT(cancelled, 10);
}

}  // namespace
}  // namespace tetrisched
