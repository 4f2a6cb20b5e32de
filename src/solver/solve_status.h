// The outcome of a MILP solve (milp.h). It is one value, set in one place:
// the classifier at the end of MilpSolver::Solve, which reads the final
// objective and bound in the caller's model space (DESIGN.md §8). Each value
// is one claim a reader can check against the model.
//
// kNoIncumbent makes the former implicit "empty plan means timeout"
// convention explicit, so the scheduler drops to its greedy degradation path
// instead of silently scheduling nothing for a cycle.
//
// Values are ordered best-to-worst so a cycle that runs several solves
// (the per-job greedy path) can keep the worst outcome with a max().

#ifndef TETRISCHED_SOLVER_SOLVE_STATUS_H_
#define TETRISCHED_SOLVER_SOLVE_STATUS_H_

namespace tetrisched {

enum class SolveStatus {
  kOptimal = 0,      // proven within abs_gap of the optimum
  kGapMet = 1,       // proven within rel_gap of the optimum
  kTimeLimit = 2,    // real incumbent, gap unproven: a node, time or cancel
                     // limit stopped the search first
  kStall = 3,        // real incumbent, gap unproven: stall_node_limit
  kNoIncumbent = 4,  // no real incumbent (at most the trivial all-zero
                     // fallback) — degrade, don't trust
  kInfeasible = 5,   // proven: no feasible assignment exists
  kUnbounded = 6,    // proven: a relaxation has an improving ray
};

inline const char* ToString(SolveStatus status) {
  switch (status) {
    case SolveStatus::kOptimal:
      return "optimal";
    case SolveStatus::kGapMet:
      return "gap-met";
    case SolveStatus::kTimeLimit:
      return "time-limit";
    case SolveStatus::kStall:
      return "stall";
    case SolveStatus::kNoIncumbent:
      return "no-incumbent";
    case SolveStatus::kInfeasible:
      return "infeasible";
    case SolveStatus::kUnbounded:
      return "unbounded";
  }
  return "?";
}

// True when the status carries a plan the caller may commit.
inline bool HasIncumbent(SolveStatus status) {
  return status <= SolveStatus::kStall;
}

// Worse-of for aggregating several solves into one per-cycle status.
inline SolveStatus WorstStatus(SolveStatus a, SolveStatus b) {
  return a >= b ? a : b;
}

}  // namespace tetrisched

#endif  // TETRISCHED_SOLVER_SOLVE_STATUS_H_
