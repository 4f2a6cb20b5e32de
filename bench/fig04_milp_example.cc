// Reproduces the paper's §5.1 / Fig 4 worked MILP example: 3 jobs on a
// 3-machine cluster where only global scheduling with plan-ahead meets every
// deadline. Prints the generated MILP and the resulting schedule, which must
// be: job 1 at t=0, job 3 at t=10, job 2 at t=20.

#include <cstdio>

#include "bench/exp_common.h"
#include "src/compiler/compiler.h"
#include "src/solver/milp.h"

namespace tetrisched {
namespace {

int Main() {
  Cluster cluster = MakeUniformCluster(1, 3, 0);
  TimeGrid grid{.start = 0, .quantum = 10, .num_slices = 5};
  AvailabilityGrid availability(cluster, grid);
  PrintHeader("Fig 4 / S5.1: worked MILP example (3 jobs, 3 machines)",
              "hand-built", cluster);

  PartitionSet all = cluster.AllPartitions();
  // Job 1: short urgent — 2 machines x 10 s, deadline 10.
  StrlExpr job1 = NCk(all, 2, 0, 10, 1.0, 100);
  // Job 2: long small — 1 machine x 20 s, deadline 40.
  StrlExpr job2 = Max({NCk(all, 1, 0, 20, 1.0, 200),
                       NCk(all, 1, 10, 20, 1.0, 201),
                       NCk(all, 1, 20, 20, 1.0, 202)});
  // Job 3: short large — 3 machines x 10 s, deadline 20.
  StrlExpr job3 =
      Max({NCk(all, 3, 0, 10, 1.0, 300), NCk(all, 3, 10, 10, 1.0, 301)});
  StrlExpr root = Sum({std::move(job1), std::move(job2), std::move(job3)});

  std::printf("STRL: %s\n\n", ToString(root).c_str());

  CompiledStrl compiled = StrlCompiler(availability).Compile(root);
  std::printf("Generated MILP: %d variables, %d constraints\n",
              compiled.model().num_vars(), compiled.model().num_constraints());
  std::printf("%s\n", compiled.DebugString().c_str());

  MilpOptions options;
  options.rel_gap = 0.0;
  MilpResult result = MilpSolver(compiled.model(), options).Solve();
  std::printf("Solved: objective=%.1f (all 3 deadlines met), %d B&B nodes, "
              "%ld LP iterations\n\n",
              result.objective, result.nodes, result.lp_iterations);

  std::printf("Schedule (paper Fig 4 expects job1@0, job3@10, job2@20):\n");
  for (const StrlAllocation& alloc :
       compiled.ExtractAllocations(result.values)) {
    std::printf("  job %lld starts t=%lld for %lld s on %d machines\n",
                static_cast<long long>(alloc.tag / 100),
                static_cast<long long>(alloc.start),
                static_cast<long long>(alloc.duration), alloc.total_nodes());
  }
  return 0;
}

}  // namespace
}  // namespace tetrisched

int main() { return tetrisched::Main(); }
