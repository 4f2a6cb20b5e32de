// Independent plan certifier (DESIGN.md §13).
//
// Re-checks a solver incumbent against the *original pre-presolve* model: a
// cheap correctness oracle (one pass over the model) that is independent of
// every transformation the solve pipeline applied — presolve substitutions,
// component decomposition and stitching, warm-start projection, parallel
// incumbent races, and mid-LP cancellation. The scheduler runs it as part of
// the pre-commit ValidatePlan gate: a rejected incumbent is treated like a
// solver failure and drops the cycle down the degradation ladder instead of
// committing a corrupt plan.

#ifndef TETRISCHED_SOLVER_CERTIFY_H_
#define TETRISCHED_SOLVER_CERTIFY_H_

#include <string>

#include "src/solver/milp.h"
#include "src/solver/model.h"

namespace tetrisched {

struct CertifyReport {
  bool ok = false;
  std::string failure;      // first failed check; empty when ok
  int violated_rows = 0;    // constraint rows outside tolerance
  double objective_error = 0.0;  // |claimed - recomputed|

  explicit operator bool() const { return ok; }
};

// Certifies `result` against `model` (the original, pre-presolve model):
//   * the incumbent has the model's dimension,
//   * every variable sits within its bounds, integer-likes at integers,
//   * every constraint row holds within tolerance,
//   * the claimed objective matches a recomputation from the values,
//   * when the status claims a proven gap (kOptimal / kGapMet) and the
//     bound is finite, the bound actually covers the claim under
//     `options.rel_gap` / `options.abs_gap`.
// Rows and bounds are checked to 1e-5, integrality to 1e-5, the objective
// to a relative 1e-6, and a claimed gap with 1e-6 of slack. A result
// without a solution (no incumbent) fails certification; callers gate on
// HasSolution() first.
CertifyReport CertifyPlan(const MilpModel& model, const MilpResult& result,
                          const MilpOptions& options);

}  // namespace tetrisched

#endif  // TETRISCHED_SOLVER_CERTIFY_H_
