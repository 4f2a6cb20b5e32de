// STRL inspection tool: builds the paper's canonical STRL expressions,
// pretty-prints them, compiles each to MILP, and shows the solved schedule.
// Handy for understanding how each operator lowers into variables and
// constraints (Algorithm 1).
//
// Usage: strl_tool [expr]
//   expr: one of soft | gang | antiaffinity | barrier | global (default all)

#include <cstdio>
#include <cstring>

#include "src/cluster/availability.h"
#include "src/compiler/compiler.h"
#include "src/solver/milp.h"
#include "src/strl/strl.h"

using namespace tetrisched;

namespace {

void Show(const char* name, const char* comment, const Cluster& cluster,
          const StrlExpr& expr) {
  std::printf("=== %s ===\n%s\n\nSTRL:  %s\n", name, comment,
              ToString(expr).c_str());
  TimeGrid grid{.start = 0, .quantum = 1, .num_slices = 8};
  AvailabilityGrid availability(cluster, grid);
  CompiledStrl compiled = StrlCompiler(availability).Compile(expr);
  std::printf("MILP:  %d vars, %d constraints\n",
              compiled.model().num_vars(),
              compiled.model().num_constraints());
  MilpOptions options;
  options.rel_gap = 0.0;
  MilpResult result = MilpSolver(compiled.model(), options).Solve();
  std::printf("Solve: objective %.2f, status %s\n", result.objective,
              ToString(result.status));
  for (const StrlAllocation& alloc :
       compiled.ExtractAllocations(result.values)) {
    std::printf("  leaf tag %lld: start=%lld dur=%lld nodes={",
                (long long)alloc.tag, (long long)alloc.start,
                (long long)alloc.duration);
    for (const auto& [partition, count] : alloc.counts) {
      std::printf(" p%d x%d", partition, count);
    }
    std::printf(" } value=%.2f\n", alloc.value);
  }
  std::printf("\n");
}

bool Wanted(const char* name, int argc, char** argv) {
  return argc < 2 || std::strcmp(argv[1], name) == 0;
}

}  // namespace

int main(int argc, char** argv) {
  // The Fig 1 cluster: 2 racks x 2 nodes, rack 0 GPU-enabled.
  Cluster cluster = MakeUniformCluster(2, 2, 1);
  PartitionSet all = cluster.AllPartitions();
  PartitionSet gpu = cluster.GpuPartitions();

  if (Wanted("soft", argc, argv)) {
    Show("soft constraint (paper Fig 3)",
         "A GPU job: 2 GPU nodes for 2 time units (value 4) OR any 2 nodes\n"
         "for 3 time units (value 3). MAX picks the better satisfiable arm.",
         cluster,
         Max({NCk(gpu, 2, 0, 2, 4.0, 1), NCk(all, 2, 0, 3, 3.0, 2)}));
  }
  if (Wanted("gang", argc, argv)) {
    Show("gang with start-time choices (paper S4.4)",
         "All feasible start times for a 2-gang within deadline 3, as the\n"
         "STRL generator derives from a Rayon RDL Window/Atom.",
         cluster,
         Max({NCk(all, 2, 0, 3, 1.0, 1), NCk(gpu, 2, 0, 2, 1.0, 2),
              NCk(gpu, 2, 1, 2, 1.0, 3)}));
  }
  if (Wanted("antiaffinity", argc, argv)) {
    Show("anti-affinity via MIN (paper Fig 1 'Availability' job)",
         "One task on each rack, both required: MIN is satisfied only when\n"
         "every child is.",
         cluster,
         Min({NCk(cluster.RackPartitions(0), 1, 0, 3, 2.0, 1),
              NCk(cluster.RackPartitions(1), 1, 0, 3, 2.0, 2)}));
  }
  if (Wanted("barrier", argc, argv)) {
    Show("barrier + scale (priority gating)",
         "SCALE amplifies a subtree's value; BARRIER forwards value only if\n"
         "the subtree reaches the threshold (used for k-of-n placement).",
         cluster,
         Barrier(Scale(NCk(all, 2, 0, 2, 1.0, 1), 3.0), 3.0));
  }
  if (Wanted("global", argc, argv)) {
    Show("global aggregation via SUM (paper S5.1)",
         "Three jobs contending on 4 machines, batched into one MILP: the\n"
         "solver trades them off simultaneously instead of greedily.",
         cluster,
         Sum({NCk(all, 2, 0, 2, 1.0, 1),
              Max({NCk(all, 2, 0, 2, 1.0, 2), NCk(all, 2, 2, 2, 1.0, 3)}),
              Max({NCk(gpu, 2, 0, 2, 2.0, 4), NCk(gpu, 2, 2, 2, 1.5, 5)})}));
  }
  return 0;
}
