// Component decomposition of the cycle MILP (DESIGN.md §12).
//
// TetriSched's aggregate objective is a top-level SUM of per-job STRL
// expressions, so jobs are coupled only through shared space-time supply
// rows: whenever jobs prefer disjoint equivalence sets or non-overlapping
// plan-ahead slots, the compiled model is block-diagonal. Solving k
// independent sub-MILPs is exponentially cheaper than one monolithic branch
// and bound over their union, and the component solves parallelize on the
// existing thread pool independently of (and multiplicatively with) the
// per-solve worker count of DESIGN.md §8.
//
// The layer has three stages, all exact:
//   1. DetectComponents: union-find over the variable-constraint incidence
//      graph, O(num_vars + nonzeros). Runs after presolve, whose variable
//      fixings fold fixed columns out of the remaining rows and thereby
//      sever couplings (a culled job splits away from the supply rows it can
//      no longer touch).
//   2. Sub-model extraction with index remapping (original variable order is
//      preserved inside each component, so extraction is deterministic).
//   3. One branch-and-bound search per component (SearchTree) — global
//      node/stall budgets and the absolute gap are apportioned by variable
//      share, wall-clock by a DeadlinePool, the warm-start vector is sliced
//      per component — followed by stitching the incumbents, bounds and
//      counters into facts about the whole model. The status is derived
//      from those facts afterwards, once, by MilpSolver::Solve.
//
// MilpSolver::Solve consults this layer when MilpOptions::enable_decomposition
// is set (the default): single-component models bypass it entirely and are
// bit-identical to the monolithic search.

#ifndef TETRISCHED_SOLVER_DECOMPOSE_H_
#define TETRISCHED_SOLVER_DECOMPOSE_H_

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "src/solver/milp.h"
#include "src/solver/model.h"
#include "src/solver/search.h"

namespace tetrisched {

// Connected components of a model's variable-constraint incidence graph.
struct Decomposition {
  // Number of row-induced components. Variables that appear in no constraint
  // are not counted: they are "free" and stitched analytically.
  int num_components = 0;
  // Per variable: component index, or -1 for a free variable.
  std::vector<int32_t> var_component;
  // Per constraint row: component index.
  std::vector<int32_t> row_component;
  // Per component: variable / row counts (budget apportionment weights).
  std::vector<int> component_vars;
  std::vector<int> component_rows;
  // Set when the model contains a shape the splitter refuses to reason
  // about (currently: a constraint with no terms); callers must fall back
  // to the monolithic solve.
  bool bypass = false;

  int largest_component_vars() const {
    int largest = 0;
    for (int vars : component_vars) {
      largest = std::max(largest, vars);
    }
    return largest;
  }

  // True when the model genuinely splits and SearchComponents applies.
  bool Splits() const { return !bypass && num_components >= 2; }
};

// Builds the incidence-graph components of `model`. O(num_vars + nonzeros);
// no sub-models are built (extraction happens inside SearchComponents only
// when the model actually splits).
Decomposition DetectComponents(const MilpModel& model);

// Searches the components of `decomp` (which must satisfy Splits()) on a
// thread pool and stitches what they found into facts about `model`: the
// bound is the sum of the component bounds plus the free variables' best
// values; an incumbent is held only when every component holds one (free
// variables sit at their objective-maximizing bound), and it is real if any
// component found a real one; any component's infeasibility or
// unboundedness is the model's. `warm_start`, when sized to the model, is
// sliced per component. Records the component count, decompose_ms
// (`detect_ms` plus extraction) and the slowest component in `result`.
SearchFacts SearchComponents(const MilpModel& model,
                             const Decomposition& decomp,
                             const MilpOptions& options,
                             std::span<const double> warm_start,
                             const CancelToken& deadline, double detect_ms,
                             MilpResult& result);

}  // namespace tetrisched

#endif  // TETRISCHED_SOLVER_DECOMPOSE_H_
