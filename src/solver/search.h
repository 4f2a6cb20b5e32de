// The branch-and-bound search stage of MilpSolver::Solve (milp.h), shared
// with the component layer (decompose.h); not for callers outside
// src/solver. A search reports facts, not a status: Solve() searches the
// whole model or each of its components (SearchComponents stitches those
// into facts about the whole model), restores presolve's fixings, and only
// then derives the result's one SolveStatus from the final facts
// (DESIGN.md §8).

#ifndef TETRISCHED_SOLVER_SEARCH_H_
#define TETRISCHED_SOLVER_SEARCH_H_

#include <span>
#include <vector>

#include "src/common/budget.h"
#include "src/solver/milp.h"
#include "src/solver/model.h"

namespace tetrisched {

// What one branch-and-bound search established, before any status is
// derived from it.
struct SearchFacts {
  bool held = false;           // an incumbent is held in `values`
  std::vector<double> values;  // the incumbent
  double objective = 0.0;      // of `values`
  double bound = kInfinity;    // proven upper bound on the optimum
  // `values` came from the warm start or the search, not from the all-zero
  // fallback.
  bool found = false;
  bool infeasible = false;  // proven: no feasible assignment exists
  bool unbounded = false;   // a relaxation has an improving ray
  bool stalled = false;     // stall_node_limit stopped the search
  int nodes = 0;
  long lp_iterations = 0;
};

// Branch-and-bound workers `options` asks for (0 = one per hardware
// thread), at least 1.
int WorkerCount(const MilpOptions& options);

// One branch-and-bound search of `model`, under `options`' gap, node,
// stall, diving, thread and LP settings, cut off at `deadline`. Presolve,
// decomposition and the time limit are Solve()'s; this ignores them.
SearchFacts SearchTree(const MilpModel& model, const MilpOptions& options,
                       std::span<const double> warm_start,
                       const CancelToken& deadline);

}  // namespace tetrisched

#endif  // TETRISCHED_SOLVER_SEARCH_H_
