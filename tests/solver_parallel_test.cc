// Tests for the parallel branch-and-bound search (MilpOptions::num_threads).
//
// The contract under test: any worker count yields an incumbent within the
// configured gap of the same optimum; num_threads = 1 is bit-for-bit
// deterministic; and limits (time) are respected by the worker pool. The
// randomized stress case hammers the shared queue / incumbent locks and is
// the case the CI ThreadSanitizer build runs.

#include <cmath>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/rng.h"
#include "src/solver/milp.h"

namespace tetrisched {
namespace {

// The STRL compiler's demand/supply shape (see solver_stress_test.cc):
// P_j == 2 I_j per job plus one shared supply row. Optimum schedules
// floor(supply / 2) jobs.
MilpModel MakeDemandSupplyModel(int jobs, double supply) {
  MilpModel model;
  std::vector<LinTerm> supply_row;
  for (int j = 0; j < jobs; ++j) {
    VarId indicator = model.AddBinaryVar();
    VarId count = model.AddIntegerVar(0.0, 2.0);
    model.AddObjectiveTerm(indicator, 1.0);
    model.AddConstraint({{count, 1.0}, {indicator, -2.0}},
                        ConstraintSense::kEqual, 0.0);
    supply_row.push_back({count, 1.0});
  }
  model.AddConstraint(std::move(supply_row), ConstraintSense::kLessEqual,
                      supply);
  return model;
}

// Random binary packing instances in the style of solver_test's
// MilpRandomTest generator, sized to force a real tree search.
MilpModel MakeRandomPackingModel(Rng& rng, int num_vars, int num_cons) {
  MilpModel model;
  for (int v = 0; v < num_vars; ++v) {
    model.AddBinaryVar("b" + std::to_string(v));
    model.AddObjectiveTerm(v, rng.UniformReal(-5.0, 10.0));
  }
  for (int c = 0; c < num_cons; ++c) {
    std::vector<LinTerm> terms;
    for (int v = 0; v < num_vars; ++v) {
      if (rng.Bernoulli(0.6)) {
        terms.push_back({v, rng.UniformReal(-3.0, 5.0)});
      }
    }
    if (!terms.empty()) {
      model.AddConstraint(std::move(terms), ConstraintSense::kLessEqual,
                          rng.UniformReal(0.0, 6.0));
    }
  }
  return model;
}

TEST(SolverParallelTest, ExactObjectiveMatchesAcrossThreadCounts) {
  MilpModel model = MakeDemandSupplyModel(40, 26.0);
  MilpOptions options;
  options.rel_gap = 0.0;
  options.time_limit_seconds = 30.0;

  double reference = 0.0;
  for (int threads : {1, 2, 8}) {
    options.num_threads = threads;
    MilpResult result = MilpSolver(model, options).Solve();
    ASSERT_TRUE(result.HasSolution()) << "threads=" << threads;
    EXPECT_EQ(result.threads_used, threads);
    EXPECT_TRUE(model.IsFeasible(result.values)) << "threads=" << threads;
    if (threads == 1) {
      reference = result.objective;
      EXPECT_NEAR(reference, 13.0, 1e-6);  // floor(26 / 2)
    } else {
      // rel_gap = 0: every worker count must prove the same optimum.
      EXPECT_NEAR(result.objective, reference, 1e-6)
          << "threads=" << threads;
    }
  }
}

TEST(SolverParallelTest, ObjectivesAgreeWithinRelGap) {
  MilpModel model = MakeDemandSupplyModel(48, 30.0);
  MilpOptions options;
  options.rel_gap = 0.10;
  options.time_limit_seconds = 30.0;

  options.num_threads = 1;
  MilpResult single = MilpSolver(model, options).Solve();
  ASSERT_TRUE(single.HasSolution());

  for (int threads : {2, 8}) {
    options.num_threads = threads;
    MilpResult parallel = MilpSolver(model, options).Solve();
    ASSERT_TRUE(parallel.HasSolution()) << "threads=" << threads;
    // Both incumbents are proven within rel_gap of the same optimum, so they
    // can differ by at most rel_gap * the larger objective.
    double tolerance =
        options.rel_gap *
            std::max(std::abs(single.objective), std::abs(parallel.objective)) +
        1e-6;
    EXPECT_NEAR(parallel.objective, single.objective, tolerance)
        << "threads=" << threads;
  }
}

TEST(SolverParallelTest, RespectsTimeLimit) {
  // Symmetric knapsack: 40 identical items, odd capacity. The LP bound stays
  // at 10.5 while the integer optimum is 10, so a zero-gap search can never
  // close and must run until the clock stops it.
  MilpModel model;
  std::vector<LinTerm> row;
  for (int i = 0; i < 40; ++i) {
    VarId v = model.AddBinaryVar();
    model.AddObjectiveTerm(v, 1.0);
    row.push_back({v, 2.0});
  }
  model.AddConstraint(std::move(row), ConstraintSense::kLessEqual, 21.0);

  MilpOptions options;
  options.rel_gap = 0.0;
  options.abs_gap = 0.0;
  options.max_nodes = 100000000;
  options.stall_node_limit = 0;
  options.enable_presolve = false;
  options.time_limit_seconds = 0.3;
  options.num_threads = 4;

  MilpResult result = MilpSolver(model, options).Solve();
  // The zero incumbent guarantees a solution even on timeout...
  ASSERT_TRUE(result.HasSolution());
  // ...and the pool must notice the deadline within one LP solve per worker.
  EXPECT_LE(result.solve_seconds, 2.0);
}

TEST(SolverParallelTest, SingleThreadIsDeterministic) {
  MilpModel model = MakeDemandSupplyModel(32, 18.0);
  MilpOptions options;
  options.rel_gap = 0.0;
  options.num_threads = 1;

  MilpResult first = MilpSolver(model, options).Solve();
  MilpResult second = MilpSolver(model, options).Solve();
  ASSERT_TRUE(first.HasSolution());
  ASSERT_TRUE(second.HasSolution());
  EXPECT_EQ(first.nodes, second.nodes);
  EXPECT_EQ(first.lp_iterations, second.lp_iterations);
  EXPECT_EQ(first.objective, second.objective);
  EXPECT_EQ(first.best_bound, second.best_bound);
  EXPECT_EQ(first.values, second.values);
}

// ThreadSanitizer stress: many small randomized models, each solved with a
// worker pool wider than the machine, checked against the single-threaded
// answer. Models are small enough that TSan's ~10x slowdown stays cheap.
TEST(SolverParallelTest, StressRandomizedModelsMatchSingleThread) {
  for (int seed = 0; seed < 12; ++seed) {
    Rng rng(7000 + seed);
    const int num_vars = 10 + static_cast<int>(rng.UniformInt(0, 5));
    const int num_cons = 4 + static_cast<int>(rng.UniformInt(0, 5));
    MilpModel model = MakeRandomPackingModel(rng, num_vars, num_cons);

    MilpOptions options;
    options.rel_gap = 0.0;
    options.time_limit_seconds = 20.0;

    options.num_threads = 1;
    MilpResult single = MilpSolver(model, options).Solve();
    options.num_threads = 8;
    MilpResult parallel = MilpSolver(model, options).Solve();

    ASSERT_TRUE(single.HasSolution()) << "seed " << seed;
    ASSERT_TRUE(parallel.HasSolution()) << "seed " << seed;
    EXPECT_EQ(single.status, SolveStatus::kOptimal) << "seed " << seed;
    EXPECT_EQ(parallel.status, SolveStatus::kOptimal) << "seed " << seed;
    EXPECT_NEAR(parallel.objective, single.objective, 1e-6)
        << "seed " << seed;
    EXPECT_TRUE(model.IsFeasible(parallel.values)) << "seed " << seed;
  }
}

}  // namespace
}  // namespace tetrisched
