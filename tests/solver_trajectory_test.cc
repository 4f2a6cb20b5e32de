// Trajectory pins for the MILP solver: the branch-and-bound node count, the
// LP iteration count and the objective of single-threaded solves whose time
// limit never binds, on a fixed set of models.
//
// These numbers move whenever a floating-point operation on the LP path
// changes its operands or its order (a different refactorization period, a
// reordered dot product, a new pricing tie-break), even when every answer
// stays correct. The churn benchmark (perfbench sim_churn_exact) is chaotic in
// exactly that round-off: its decisions, SLO attainment and best-effort
// latency follow the solver's pivot sequence. A change that alters these
// pins changes the churn trajectory, and must say so in CHANGES.md when it
// updates them.

#include <cstdio>
#include <optional>
#include <vector>

#include <gtest/gtest.h>

#include "src/cluster/availability.h"
#include "src/cluster/cluster.h"
#include "src/common/rng.h"
#include "src/compiler/compiler.h"
#include "src/core/scheduler.h"
#include "src/core/strl_gen.h"
#include "src/solver/milp.h"
#include "src/strl/strl.h"
#include "src/workload/workload.h"

namespace tetrisched {
namespace {

struct Pin {
  int nodes;
  long lp_iterations;
  double objective;
};

// The scheduler's MILP options with the wall clock taken out of the
// picture: one thread, and a time limit that never binds, so the gap, node
// and stall limits alone end every solve.
MilpOptions PinnedOptions() {
  MilpOptions options = TetriSchedConfig::DefaultMilpOptions();
  options.num_threads = 1;
  options.max_nodes = 1500;
  options.time_limit_seconds = 3600.0;
  return options;
}

void ExpectPinned(const MilpModel& model, const Pin& pin, const char* what) {
  const MilpResult result = MilpSolver(model, PinnedOptions()).Solve();
  std::printf("%s: nodes %d lp_iterations %ld objective %a\n", what,
              result.nodes, result.lp_iterations, result.objective);
  ASSERT_TRUE(result.HasSolution()) << what;
  EXPECT_EQ(result.nodes, pin.nodes) << what;
  EXPECT_EQ(result.lp_iterations, pin.lp_iterations) << what;
  EXPECT_EQ(result.objective, pin.objective) << what;
}

// One GS MIX scheduling cycle as TetriScheduler compiles it: jobs
// [first, first + count) of a seeded GS MIX workload, all pending at t = 0
// on an 8x4 cluster with two GPU racks, under the default 96 s plan-ahead in
// 8 s slices. Running jobs hold `busy` nodes of every partition until
// `busy_until`, which is what makes the cycle contended enough to branch.
CompiledStrl GsMixCycle(int first, int count, int busy, SimTime busy_until) {
  const Cluster cluster = MakeUniformCluster(8, 4, 2);
  WorkloadParams params;
  params.kind = WorkloadKind::kGsMix;
  params.seed = 1000;
  params.num_jobs = first + count;
  const std::vector<Job> jobs = GenerateWorkload(cluster, params);
  StrlGenerator generator(cluster, StrlGenOptions{});
  OptionRegistry registry;
  std::vector<StrlExpr> exprs;
  for (int j = first; j < first + count; ++j) {
    std::optional<StrlExpr> expr =
        generator.GenerateJobExpr(jobs[j], 0, &registry);
    if (expr.has_value()) {
      exprs.push_back(std::move(*expr));
    }
  }
  const TimeGrid grid{.start = 0, .quantum = 8, .num_slices = 12};
  AvailabilityGrid availability(cluster, grid);
  for (PartitionId p = 0; p < availability.num_partitions(); ++p) {
    availability.Reduce(p, {0, busy_until}, busy);
  }
  return StrlCompiler(availability).Compile(Sum(std::move(exprs)));
}

// A seeded multi-dimensional knapsack with general-integer columns.
MilpModel RandomKnapsack(uint64_t seed) {
  Rng rng(seed);
  MilpModel model;
  const int n = 24;
  for (int v = 0; v < n; ++v) {
    if (v % 3 == 0) {
      model.AddIntegerVar(0.0, 3.0);
    } else {
      model.AddBinaryVar();
    }
    model.AddObjectiveTerm(v, static_cast<double>(rng.UniformInt(1, 20)));
  }
  for (int c = 0; c < 6; ++c) {
    std::vector<LinTerm> row;
    for (int v = 0; v < n; ++v) {
      if (rng.Bernoulli(0.6)) {
        row.push_back({v, static_cast<double>(rng.UniformInt(1, 9))});
      }
    }
    model.AddConstraint(std::move(row), ConstraintSense::kLessEqual,
                        static_cast<double>(rng.UniformInt(15, 30)));
  }
  return model;
}

TEST(SolverTrajectoryTest, GsMixCyclesArePinned) {
  // An idle cluster: the root relaxation and its dive settle the cycle.
  ExpectPinned(GsMixCycle(0, 6, 0, 0).model(), {1, 95, 0x1.55329b3f69abp+2},
               "idle [0,6)");
  // Contended cycles that branch.
  ExpectPinned(GsMixCycle(36, 3, 3, 24).model(),
               {11, 379, 0x1.276544d85d5fep+2},
               "busy 3 until 24 [36,39)");
  ExpectPinned(GsMixCycle(45, 5, 2, 72).model(),
               {16, 1715, 0x1.0d2ce43f8dbd2p+3},
               "busy 2 until 72 [45,50)");
  ExpectPinned(GsMixCycle(6, 5, 3, 72).model(),
               {64, 5253, 0x1.27a305c3161d6p+2},
               "busy 3 until 72 [6,11)");
}

TEST(SolverTrajectoryTest, RandomKnapsackIsPinned) {
  ExpectPinned(RandomKnapsack(7), {8, 61, 0x1.0ep+7}, "knapsack(7)");
}

}  // namespace
}  // namespace tetrisched
