// Bounded-variable simplex: primal two-phase for cold solves, dual for warm
// re-solves after bound changes.
//
// Solves the LP relaxation of a MilpModel (integrality dropped):
//
//     maximize c'x  subject to  Ax {<=,>=,==} b,  l <= x <= u
//
// Internally each row gets a slack variable so the system becomes
// A x + I s = b with bounds on slacks encoding the row sense. The basis is
// held as a sparse LU factorization (singleton columns, every slack among
// them, and singleton rows eliminated first, the remaining nucleus factored
// with partial pivoting) plus a product-form eta file with one eta per pivot;
// FTRAN/BTRAN run through both, and the factorization is rebuilt after
// `refactor_every` etas.
//
// A cold solve runs the primal simplex from the slack basis, with partial
// (rotating-section) Dantzig pricing — widening to a full scan before
// declaring optimality — and a Bland's-rule fallback against cycling. A warm
// solve (branch and bound passes per-variable bound overrides plus the basis
// of a previous node) keeps the factorization when the snapshot is the
// solver's current basis, places boxed nonbasics at the bound their reduced
// cost prefers, and, when that makes the basis dual feasible, restores primal
// feasibility with the dual simplex; otherwise it falls back to the primal
// path. See DESIGN.md §8.

#ifndef TETRISCHED_SOLVER_SIMPLEX_H_
#define TETRISCHED_SOLVER_SIMPLEX_H_

#include <cstdint>
#include <span>
#include <vector>

#include "src/common/budget.h"
#include "src/solver/model.h"

namespace tetrisched {

enum class LpStatus {
  kOptimal,
  kInfeasible,
  kUnbounded,
  kIterationLimit,
  // Cooperative cancellation (LpOptions::cancel expired mid-solve). The
  // result carries no values: a cancelled solve is abandoned, never torn.
  kCancelled,
};

struct LpOptions {
  int max_iterations = 50000;
  double feas_tol = 1e-7;   // bound / constraint feasibility
  double cost_tol = 1e-7;   // reduced-cost optimality threshold
  double pivot_tol = 1e-9;  // minimum acceptable pivot magnitude
  int refactor_every = 64;  // eta-file length before the LU is rebuilt
  // Consecutive degenerate pivots before pricing falls back to Bland's
  // anti-cycling rule (counted in tetrisched_solver_bland_activations_total).
  // <= 0 engages Bland's rule from the first pivot.
  int bland_pivot_limit = 256;
  // Cooperative deadline, polled every few pivots in both simplex loops and
  // every few nucleus columns during factorization. Not owned; must outlive
  // the solver. nullptr (default) or an unarmed token never reads the clock,
  // so the plumbing is inert unless a deadline is actually armed.
  const CancelToken* cancel = nullptr;
};

// Basis snapshot for warm starting (opaque to callers).
struct LpBasis {
  std::vector<int32_t> basic;    // row -> variable index (structural+slack)
  std::vector<uint8_t> status;   // per-variable nonbasic status
};

struct LpResult {
  LpStatus status = LpStatus::kInfeasible;
  double objective = 0.0;
  std::vector<double> values;  // structural variables only
  int iterations = 0;
};

class LpSolver {
 public:
  // The model must outlive the solver. Constraint matrix and objective are
  // captured at construction; bounds may be overridden per Solve call.
  explicit LpSolver(const MilpModel& model, LpOptions options = {});

  // Solves with the model's own bounds.
  LpResult Solve();

  // Solves with overridden bounds for the structural variables (size must
  // equal model.num_vars()); used by branch and bound.
  LpResult Solve(std::span<const double> lower, std::span<const double> upper);

  // Same, seeding the initial basis from `warm`; falls back to the slack
  // basis if the snapshot does not fit this model.
  LpResult Solve(std::span<const double> lower, std::span<const double> upper,
                 const LpBasis* warm);

  // Snapshot of the final basis of the last Solve (valid after any Solve).
  LpBasis BasisSnapshot() const;
  // Same, into caller-owned storage (reuses its capacity).
  void BasisSnapshot(LpBasis& out) const;

 private:
  enum class Status : uint8_t {
    kBasic,
    kAtLower,
    kAtUpper,
    kFreeZero,  // nonbasic free variable pinned at 0
  };

  // How a dual simplex run ended; kTrouble hands over to the primal path.
  enum class DualOutcome {
    kOptimal,
    kInfeasible,
    kIterationLimit,
    kCancelled,
    kTrouble,
  };

  LpResult SolveImpl(std::span<const double> lower,
                     std::span<const double> upper, const LpBasis* warm);
  void InstallBounds(std::span<const double> lower,
                     std::span<const double> upper);
  void InstallSlackBasis();
  bool InstallWarmBasis(const LpBasis& warm);

  // Basis factorization: B = L U (in pivot order) times the eta file.
  bool Factorize();             // LU of basic_; false if singular/cancelled
  bool RefactorizeOrReset();    // Factorize, else slack basis; false if reset
  // In place: v = B^-1 v, from row-indexed to basis-position-indexed.
  void Ftran(std::vector<double>& v);
  // In place: v = B^-T v, from basis-position-indexed to row-indexed.
  void Btran(std::vector<double>& v);
  void PushEta(int pos, std::span<const double> column);

  void RecomputeBasicValues();     // x_B = B^-1 (b - A_N x_N)
  double ColumnDot(int var, std::span<const double> row_vec) const;
  void ComputeTableauColumn(int var, std::vector<double>& out);
  void ComputeDuals(std::span<const double> costs);  // y_ = B^-T c_B
  void ComputeReducedCosts();  // d_ for the phase-2 costs

  // Runs primal simplex iterations with objective `costs` (phase 1 or 2).
  // `phase1` enables the infeasibility-aware ratio test.
  LpStatus Iterate(std::span<const double> costs, bool phase1,
                   int* iterations_left);

  // Dual simplex on a warm basis. PrepareDual computes reduced costs and
  // moves boxed nonbasics to the bound their sign prefers; it returns false
  // when the basis is not dual feasible.
  bool PrepareDual();
  DualOutcome DualIterate(int* iterations_left);

  double TotalInfeasibility() const;
  void BuildPhase1Costs(std::vector<double>& costs) const;

  const MilpModel& model_;
  LpOptions options_;

  int n_ = 0;       // structural variables
  int m_ = 0;       // rows / slacks
  int total_ = 0;   // n_ + m_

  // Columns of [A | I] (CSC): column v holds rows col_row_[k] (ascending)
  // and coefficients col_val_[k] for k in [col_start_[v], col_start_[v + 1]).
  // The rows of A (CSR) serve the dual simplex's pivot rows.
  std::vector<int32_t> col_start_, col_row_;
  std::vector<double> col_val_;
  std::vector<int32_t> row_start_, row_var_;
  std::vector<double> row_coeff_;
  std::vector<double> rhs_b_;

  // Per-variable working bounds (structural overrides + slack encodings).
  std::vector<double> lb_;
  std::vector<double> ub_;
  std::vector<double> obj_;  // phase-2 costs, structural + zero slacks

  // Simplex state.
  std::vector<int32_t> basic_;    // row -> var
  std::vector<Status> status_;    // var -> status
  std::vector<double> x_;         // var -> value
  int pricing_cursor_ = 0;  // start of the current partial-pricing section

  // LU factors, one entry per pivot p in elimination order. Pivot p sits in
  // row piv_row_[p] of basis position piv_pos_[p]. L column p holds the
  // multipliers (by row) of rows pivoted later; U row p holds the entries
  // (by basis position) of the pivot row in positions pivoted later.
  bool factor_valid_ = false;
  std::vector<int32_t> piv_row_;
  std::vector<int32_t> piv_pos_;
  std::vector<double> u_diag_;
  std::vector<int32_t> l_start_, l_row_;
  std::vector<double> l_val_;
  std::vector<int32_t> u_start_, u_pos_;
  std::vector<double> u_val_;
  // Pivots whose L column is nonempty, ascending; the others leave both
  // triangular L passes untouched.
  std::vector<int32_t> l_pivots_;
  // Eta file: eta e replaces basis position eta_pos_[e] with a column whose
  // pivot entry is eta_pivot_[e] and whose other nonzeros are
  // [eta_start_[e], eta_start_[e + 1]) of eta_index_/eta_value_. The two
  // entry arrays only grow; eta_start_.back() is their used length.
  std::vector<int32_t> eta_pos_, eta_start_, eta_index_;
  std::vector<double> eta_pivot_, eta_value_;

  // Per-solve work buffers, kept across solves to avoid reallocation.
  std::vector<double> work_;       // FTRAN/BTRAN scratch
  std::vector<double> y_;          // duals (row-indexed)
  std::vector<double> col_;        // FTRAN'd entering column
  std::vector<double> phase1_costs_;
  std::vector<double> d_;          // reduced costs (dual simplex)
  std::vector<double> alpha_;      // pivot row (dual simplex)
  struct Candidate {
    int32_t var;
    double ratio;  // dual step at which its reduced cost changes sign
  };
  // Dual simplex scratch, all in ascending index order: the rows where
  // e_row' B^-1 is nonzero, the movable nonbasics with a nonzero pivot-row
  // entry, and the ratio test's candidates among them.
  std::vector<int32_t> live_rows_;
  std::vector<int32_t> movable_;
  std::vector<Candidate> candidates_;
  std::vector<uint8_t> can_move_;  // var -> nonbasic and not fixed
  std::vector<int32_t> is_basic_;  // warm-start validation

  // Factorization scratch: a row-wise copy of B, active entry counts per
  // row and basis position (-1 once pivoted), and the dense nucleus.
  struct FactorWork {
    std::vector<int32_t> row_start, row_pos, row_count, col_count, stack,
        index, nucleus_rows, nucleus_pos;
    std::vector<double> row_val, dense;
  };
  FactorWork fw_;

  // Work done in the current Solve, flushed to the registry when it ends.
  struct SolveStats {
    int64_t primal_pivots = 0;
    int64_t dual_pivots = 0;
    int64_t refactorizations = 0;
    int64_t dual_fallbacks = 0;
  };
  SolveStats stats_;
};

}  // namespace tetrisched

#endif  // TETRISCHED_SOLVER_SIMPLEX_H_
