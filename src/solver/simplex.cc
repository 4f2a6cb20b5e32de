#include "src/solver/simplex.h"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "src/common/logging.h"
#include "src/common/metrics.h"

namespace tetrisched {
namespace {

// Pivot iterations between cooperative deadline polls (power of two; each
// poll is one atomic load plus one clock read, so this just keeps the clock
// off the per-pivot path). Factorization polls every this many nucleus
// columns.
constexpr int kCancelPollMask = 15;

// Smallest pivot magnitude the factorization accepts; a basis that needs a
// smaller one is treated as singular.
constexpr double kSingularTol = 1e-11;

struct LpCounters {
  Counter* bland_activations;
  Counter* primal_pivots;
  Counter* dual_pivots;
  Counter* refactorizations;
  Counter* dual_fallbacks;
};

LpCounters& Counters() {
  MetricsRegistry& registry = GlobalMetrics();
  static LpCounters counters{
      registry.GetCounter("tetrisched_solver_bland_activations_total"),
      registry.GetCounter("tetrisched_solver_primal_pivots_total"),
      registry.GetCounter("tetrisched_solver_dual_pivots_total"),
      registry.GetCounter("tetrisched_solver_refactorizations_total"),
      registry.GetCounter("tetrisched_solver_dual_fallbacks_total"),
  };
  return counters;
}

// Partial pricing: variables are scanned one rotating section at a time, and
// only when the current section has no improving candidate does the scan
// widen to the rest. A section is total_/kPricingSections variables but never
// fewer than kMinPricingSection, so small models (every unit-test model)
// degenerate to the exact full Dantzig scan.
constexpr int kPricingSections = 8;
constexpr int kMinPricingSection = 128;

}  // namespace

LpSolver::LpSolver(const MilpModel& model, LpOptions options)
    : model_(model), options_(options) {
  n_ = model.num_vars();
  m_ = model.num_constraints();
  total_ = n_ + m_;

  // Counting transpose of the model's rows into [A | I]: walking the rows in
  // order leaves every column's entries in ascending row order.
  col_start_.assign(total_ + 1, 0);
  for (int c = 0; c < m_; ++c) {
    for (const LinTerm& term : model.constraint_terms(c)) {
      ++col_start_[term.var + 1];
    }
    ++col_start_[n_ + c + 1];  // slack column: unit vector on this row
  }
  for (int v = 0; v < total_; ++v) {
    col_start_[v + 1] += col_start_[v];
  }
  col_row_.resize(col_start_[total_]);
  col_val_.resize(col_start_[total_]);
  std::vector<int32_t> fill(col_start_.begin(), col_start_.end() - 1);
  rhs_b_.assign(m_, 0.0);
  for (int c = 0; c < m_; ++c) {
    rhs_b_[c] = model.constraint_rhs(c);
    for (const LinTerm& term : model.constraint_terms(c)) {
      const int k = fill[term.var]++;
      col_row_[k] = c;
      col_val_[k] = term.coeff;
    }
    const int k = fill[n_ + c]++;
    col_row_[k] = c;
    col_val_[k] = 1.0;
  }
  // Merge duplicate variable mentions within a row, then drop entries that
  // cancel (the factorization treats every stored entry as a structural
  // nonzero). Compacts in place, column by column.
  int out = 0;
  for (int v = 0; v < total_; ++v) {
    const int begin = col_start_[v];
    const int end = col_start_[v + 1];
    const int first = out;
    for (int k = begin; k < end; ++k) {
      if (out > first && col_row_[out - 1] == col_row_[k]) {
        col_val_[out - 1] += col_val_[k];
      } else {
        col_row_[out] = col_row_[k];
        col_val_[out++] = col_val_[k];
      }
    }
    const int merged_end = out;
    out = first;
    for (int k = first; k < merged_end; ++k) {
      if (col_val_[k] != 0.0) {
        col_row_[out] = col_row_[k];
        col_val_[out++] = col_val_[k];
      }
    }
    col_start_[v] = first;
  }
  col_start_[total_] = out;
  col_row_.resize(out);
  col_val_.resize(out);

  row_start_.assign(m_ + 1, 0);
  for (int k = 0; k < col_start_[n_]; ++k) {
    ++row_start_[col_row_[k] + 1];
  }
  for (int c = 0; c < m_; ++c) {
    row_start_[c + 1] += row_start_[c];
  }
  row_var_.resize(row_start_[m_]);
  row_coeff_.resize(row_start_[m_]);
  fill.assign(row_start_.begin(), row_start_.end() - 1);
  for (int v = 0; v < n_; ++v) {
    for (int k = col_start_[v]; k < col_start_[v + 1]; ++k) {
      row_var_[fill[col_row_[k]]] = v;
      row_coeff_[fill[col_row_[k]]++] = col_val_[k];
    }
  }

  obj_.assign(total_, 0.0);
  for (int v = 0; v < n_; ++v) {
    obj_[v] = model.objective_coeff(v);
  }
}

void LpSolver::InstallBounds(std::span<const double> lower,
                             std::span<const double> upper) {
  lb_.assign(total_, 0.0);
  ub_.assign(total_, 0.0);
  for (int v = 0; v < n_; ++v) {
    lb_[v] = lower[v];
    ub_[v] = upper[v];
  }
  for (int c = 0; c < m_; ++c) {
    switch (model_.constraint_sense(c)) {
      case ConstraintSense::kLessEqual:
        lb_[n_ + c] = 0.0;
        ub_[n_ + c] = kInfinity;
        break;
      case ConstraintSense::kGreaterEqual:
        lb_[n_ + c] = -kInfinity;
        ub_[n_ + c] = 0.0;
        break;
      case ConstraintSense::kEqual:
        lb_[n_ + c] = 0.0;
        ub_[n_ + c] = 0.0;
        break;
    }
  }
}

void LpSolver::InstallSlackBasis() {
  basic_.assign(m_, 0);
  status_.assign(total_, Status::kAtLower);
  x_.assign(total_, 0.0);
  for (int v = 0; v < total_; ++v) {
    if (std::isfinite(lb_[v])) {
      status_[v] = Status::kAtLower;
      x_[v] = lb_[v];
    } else if (std::isfinite(ub_[v])) {
      status_[v] = Status::kAtUpper;
      x_[v] = ub_[v];
    } else {
      status_[v] = Status::kFreeZero;
      x_[v] = 0.0;
    }
  }
  for (int c = 0; c < m_; ++c) {
    basic_[c] = n_ + c;
    status_[n_ + c] = Status::kBasic;
  }
  Factorize();  // B = I: all column singletons, cannot fail
}

bool LpSolver::InstallWarmBasis(const LpBasis& warm) {
  if (static_cast<int>(warm.basic.size()) != m_ ||
      static_cast<int>(warm.status.size()) != total_) {
    return false;
  }
  // Dive steps and a worker's next node usually hand back this solver's own
  // final basis: the current factorization then still describes it.
  const bool same_basis =
      factor_valid_ &&
      std::equal(warm.basic.begin(), warm.basic.end(), basic_.begin());
  factor_valid_ = false;
  basic_.assign(warm.basic.begin(), warm.basic.end());
  status_.assign(total_, Status::kAtLower);
  x_.assign(total_, 0.0);
  is_basic_.assign(total_, 0);
  for (int i = 0; i < m_; ++i) {
    if (basic_[i] < 0 || basic_[i] >= total_ || is_basic_[basic_[i]] != 0) {
      return false;
    }
    is_basic_[basic_[i]] = 1;
  }
  for (int v = 0; v < total_; ++v) {
    if (is_basic_[v] != 0) {
      status_[v] = Status::kBasic;
      continue;
    }
    Status s = static_cast<Status>(warm.status[v]);
    if (s == Status::kAtUpper && std::isfinite(ub_[v])) {
      status_[v] = Status::kAtUpper;
      x_[v] = ub_[v];
    } else if (std::isfinite(lb_[v])) {
      status_[v] = Status::kAtLower;
      x_[v] = lb_[v];
    } else if (std::isfinite(ub_[v])) {
      status_[v] = Status::kAtUpper;
      x_[v] = ub_[v];
    } else {
      status_[v] = Status::kFreeZero;
      x_[v] = 0.0;
    }
  }
  if (same_basis) {
    factor_valid_ = true;
    return true;
  }
  // A singular (or cancelled) factorization rejects the snapshot.
  ++stats_.refactorizations;
  return Factorize();
}

bool LpSolver::Factorize() {
  factor_valid_ = false;
  FactorWork& f = fw_;
  // Size the factor arrays up front (they keep their capacity across
  // refactorizations), so the first factorization does not grow them entry
  // by entry.
  piv_row_.reserve(m_);
  piv_pos_.reserve(m_);
  u_diag_.reserve(m_);
  l_start_.reserve(m_ + 1);
  u_start_.reserve(m_ + 1);
  piv_row_.clear();
  piv_pos_.clear();
  u_diag_.clear();
  l_start_.assign(1, 0);
  l_row_.clear();
  l_val_.clear();
  u_start_.assign(1, 0);
  u_pos_.clear();
  u_val_.clear();
  eta_pos_.clear();
  eta_pivot_.clear();
  eta_start_.assign(1, 0);

  // Row-wise copy of B and the active entry counts.
  f.row_start.assign(m_ + 1, 0);
  f.col_count.resize(m_);
  for (int pos = 0; pos < m_; ++pos) {
    const int v = basic_[pos];
    f.col_count[pos] = col_start_[v + 1] - col_start_[v];
    for (int k = col_start_[v]; k < col_start_[v + 1]; ++k) {
      ++f.row_start[col_row_[k] + 1];
    }
  }
  f.row_count.resize(m_);
  for (int r = 0; r < m_; ++r) {
    f.row_count[r] = f.row_start[r + 1];
    f.row_start[r + 1] += f.row_start[r];
  }
  f.row_pos.resize(f.row_start[m_]);
  f.row_val.resize(f.row_start[m_]);
  f.index.assign(f.row_start.begin(), f.row_start.end() - 1);
  for (int pos = 0; pos < m_; ++pos) {
    const int v = basic_[pos];
    for (int k = col_start_[v]; k < col_start_[v + 1]; ++k) {
      const int slot = f.index[col_row_[k]]++;
      f.row_pos[slot] = pos;
      f.row_val[slot] = col_val_[k];
    }
  }

  // A pivot's L and U entries are appended right after it is added.
  auto add_pivot = [&](int row, int pos, double value) {
    piv_row_.push_back(row);
    piv_pos_.push_back(pos);
    u_diag_.push_back(value);
    f.row_count[row] = -1;
    f.col_count[pos] = -1;
  };
  auto end_pivot = [&] {
    l_start_.push_back(static_cast<int32_t>(l_row_.size()));
    u_start_.push_back(static_cast<int32_t>(u_pos_.size()));
  };

  // Column singletons (every slack among them): the pivot row's other
  // entries go to U, and no later row is touched.
  f.stack.clear();
  for (int pos = 0; pos < m_; ++pos) {
    if (f.col_count[pos] == 1) {
      f.stack.push_back(pos);
    }
  }
  while (!f.stack.empty()) {
    const int pos = f.stack.back();
    f.stack.pop_back();
    if (f.col_count[pos] != 1) {
      continue;
    }
    int row = -1;
    double value = 0.0;
    const int v = basic_[pos];
    for (int k = col_start_[v]; k < col_start_[v + 1]; ++k) {
      if (f.row_count[col_row_[k]] >= 0) {
        row = col_row_[k];
        value = col_val_[k];
        break;
      }
    }
    if (std::abs(value) < kSingularTol) {
      return false;
    }
    add_pivot(row, pos, value);
    for (int k = f.row_start[row]; k < f.row_start[row + 1]; ++k) {
      const int other = f.row_pos[k];
      if (f.col_count[other] < 0) {
        continue;
      }
      u_pos_.push_back(other);
      u_val_.push_back(f.row_val[k]);
      if (--f.col_count[other] == 1) {
        f.stack.push_back(other);
      }
    }
    end_pivot();
  }

  // Row singletons: the pivot column's other entries go to L, and U gets
  // nothing beyond the diagonal.
  for (int r = 0; r < m_; ++r) {
    if (f.row_count[r] == 1) {
      f.stack.push_back(r);
    }
  }
  while (!f.stack.empty()) {
    const int row = f.stack.back();
    f.stack.pop_back();
    if (f.row_count[row] != 1) {
      continue;
    }
    int pos = -1;
    double value = 0.0;
    for (int k = f.row_start[row]; k < f.row_start[row + 1]; ++k) {
      if (f.col_count[f.row_pos[k]] >= 0) {
        pos = f.row_pos[k];
        value = f.row_val[k];
        break;
      }
    }
    if (std::abs(value) < kSingularTol) {
      return false;
    }
    add_pivot(row, pos, value);
    const int v = basic_[pos];
    for (int k = col_start_[v]; k < col_start_[v + 1]; ++k) {
      const int r = col_row_[k];
      if (f.row_count[r] < 0) {
        continue;
      }
      l_row_.push_back(r);
      l_val_.push_back(col_val_[k] / value);
      if (--f.row_count[r] == 1) {
        f.stack.push_back(r);
      }
    }
    end_pivot();
  }

  // The nucleus: what is left is untouched by the eliminations above, so it
  // is a submatrix of B. Dense LU with partial pivoting, sparsest columns
  // first.
  f.nucleus_rows.clear();
  f.nucleus_pos.clear();
  for (int i = 0; i < m_; ++i) {
    if (f.row_count[i] >= 0) {
      f.nucleus_rows.push_back(i);
    }
    if (f.col_count[i] >= 0) {
      f.nucleus_pos.push_back(i);
    }
  }
  const int k = static_cast<int>(f.nucleus_rows.size());
  if (k > 0) {
    std::sort(f.nucleus_pos.begin(), f.nucleus_pos.end(), [&](int a, int b) {
      return f.col_count[a] != f.col_count[b] ? f.col_count[a] < f.col_count[b]
                                              : a < b;
    });
    for (int t = 0; t < k; ++t) {
      f.index[f.nucleus_rows[t]] = t;
    }
    f.dense.assign(static_cast<size_t>(k) * k, 0.0);
    for (int j = 0; j < k; ++j) {
      const int v = basic_[f.nucleus_pos[j]];
      for (int e = col_start_[v]; e < col_start_[v + 1]; ++e) {
        const int r = col_row_[e];
        if (f.row_count[r] >= 0) {
          f.dense[static_cast<size_t>(f.index[r]) * k + j] = col_val_[e];
        }
      }
    }
    // f.stack holds the nucleus row order; rows [j, k) are not yet pivoted.
    f.stack.resize(k);
    for (int t = 0; t < k; ++t) {
      f.stack[t] = t;
    }
    auto dense_row = [&](int t) {
      return &f.dense[static_cast<size_t>(f.stack[t]) * k];
    };
    for (int j = 0; j < k; ++j) {
      if (options_.cancel != nullptr && (j & kCancelPollMask) == 0 &&
          options_.cancel->Expired()) {
        return false;
      }
      int best = j;
      for (int t = j + 1; t < k; ++t) {
        if (std::abs(dense_row(t)[j]) > std::abs(dense_row(best)[j])) {
          best = t;
        }
      }
      std::swap(f.stack[j], f.stack[best]);
      const double* prow = dense_row(j);
      const double pivot = prow[j];
      if (std::abs(pivot) < kSingularTol) {
        return false;
      }
      const int row = f.nucleus_rows[f.stack[j]];
      add_pivot(row, f.nucleus_pos[j], pivot);
      for (int c = j + 1; c < k; ++c) {
        if (prow[c] != 0.0) {
          u_pos_.push_back(f.nucleus_pos[c]);
          u_val_.push_back(prow[c]);
        }
      }
      for (int t = j + 1; t < k; ++t) {
        double* drow = dense_row(t);
        if (drow[j] == 0.0) {
          continue;
        }
        const double mult = drow[j] / pivot;
        l_row_.push_back(f.nucleus_rows[f.stack[t]]);
        l_val_.push_back(mult);
        for (int c = j + 1; c < k; ++c) {
          drow[c] -= mult * prow[c];
        }
      }
      end_pivot();
    }
  }

  l_pivots_.clear();
  for (int p = 0; p < m_; ++p) {
    if (l_start_[p + 1] > l_start_[p]) {
      l_pivots_.push_back(p);
    }
  }
  factor_valid_ = true;
  return true;
}

bool LpSolver::RefactorizeOrReset() {
  ++stats_.refactorizations;
  if (Factorize()) {
    return true;
  }
  // A cancelled rebuild is expected (the loop returns kCancelled right
  // after); only a genuinely singular basis deserves the warning.
  if (options_.cancel == nullptr || !options_.cancel->Expired()) {
    TETRI_LOG(kWarning) << "singular basis during refactorization; resetting";
  }
  InstallSlackBasis();
  return false;
}

void LpSolver::Ftran(std::vector<double>& v) {
  for (const int p : l_pivots_) {
    const double a = v[piv_row_[p]];
    if (a == 0.0) {
      continue;
    }
    for (int e = l_start_[p]; e < l_start_[p + 1]; ++e) {
      v[l_row_[e]] -= l_val_[e] * a;
    }
  }
  work_.resize(m_);
  for (int p = m_ - 1; p >= 0; --p) {
    double a = v[piv_row_[p]];
    for (int e = u_start_[p]; e < u_start_[p + 1]; ++e) {
      a -= u_val_[e] * work_[u_pos_[e]];
    }
    work_[piv_pos_[p]] = a / u_diag_[p];
  }
  v.swap(work_);
  for (size_t e = 0; e < eta_pos_.size(); ++e) {
    const int pos = eta_pos_[e];
    if (v[pos] == 0.0) {
      continue;  // this eta adds nothing
    }
    const double a = v[pos] / eta_pivot_[e];
    v[pos] = a;
    for (int k = eta_start_[e]; k < eta_start_[e + 1]; ++k) {
      v[eta_index_[k]] -= eta_value_[k] * a;
    }
  }
}

void LpSolver::Btran(std::vector<double>& v) {
  for (int e = static_cast<int>(eta_pos_.size()) - 1; e >= 0; --e) {
    const int pos = eta_pos_[e];
    double a = v[pos];
    for (int k = eta_start_[e]; k < eta_start_[e + 1]; ++k) {
      a -= eta_value_[k] * v[eta_index_[k]];
    }
    v[pos] = a / eta_pivot_[e];
  }
  work_.resize(m_);
  for (int p = 0; p < m_; ++p) {
    const double vp = v[piv_pos_[p]];
    if (vp == 0.0) {
      work_[piv_row_[p]] = 0.0;  // nothing reaches this pivot
      continue;
    }
    const double a = vp / u_diag_[p];
    work_[piv_row_[p]] = a;
    for (int e = u_start_[p]; e < u_start_[p + 1]; ++e) {
      v[u_pos_[e]] -= u_val_[e] * a;
    }
  }
  for (auto it = l_pivots_.rbegin(); it != l_pivots_.rend(); ++it) {
    const int p = *it;
    double a = work_[piv_row_[p]];
    for (int e = l_start_[p]; e < l_start_[p + 1]; ++e) {
      a -= l_val_[e] * work_[l_row_[e]];
    }
    work_[piv_row_[p]] = a;
  }
  v.swap(work_);
}

void LpSolver::PushEta(int pos, std::span<const double> column) {
  eta_pos_.push_back(pos);
  eta_pivot_.push_back(column[pos]);
  // Branch-free compaction of the off-pivot nonzeros, ascending.
  const size_t base = eta_start_.back();
  if (eta_index_.size() < base + m_) {
    eta_index_.resize(base + m_);
    eta_value_.resize(base + m_);
  }
  int32_t* index = eta_index_.data() + base;
  double* value = eta_value_.data() + base;
  size_t count = 0;
  for (int i = 0; i < m_; ++i) {
    index[count] = i;
    value[count] = column[i];
    count += static_cast<size_t>((i != pos) & (column[i] != 0.0));
  }
  eta_start_.push_back(static_cast<int32_t>(base + count));
}

void LpSolver::RecomputeBasicValues() {
  col_.assign(rhs_b_.begin(), rhs_b_.end());
  for (int v = 0; v < total_; ++v) {
    if (status_[v] == Status::kBasic || x_[v] == 0.0) {
      continue;
    }
    for (int k = col_start_[v]; k < col_start_[v + 1]; ++k) {
      col_[col_row_[k]] -= col_val_[k] * x_[v];
    }
  }
  Ftran(col_);
  for (int i = 0; i < m_; ++i) {
    x_[basic_[i]] = col_[i];
  }
}

double LpSolver::ColumnDot(int var, std::span<const double> row_vec) const {
  double sum = 0.0;
  for (int k = col_start_[var]; k < col_start_[var + 1]; ++k) {
    sum += col_val_[k] * row_vec[col_row_[k]];
  }
  return sum;
}

void LpSolver::ComputeTableauColumn(int var, std::vector<double>& out) {
  out.assign(m_, 0.0);
  for (int k = col_start_[var]; k < col_start_[var + 1]; ++k) {
    out[col_row_[k]] = col_val_[k];
  }
  Ftran(out);
}

void LpSolver::ComputeDuals(std::span<const double> costs) {
  y_.resize(m_);
  for (int i = 0; i < m_; ++i) {
    y_[i] = costs[basic_[i]];
  }
  Btran(y_);
}

double LpSolver::TotalInfeasibility() const {
  double total = 0.0;
  for (int i = 0; i < m_; ++i) {
    int v = basic_[i];
    if (x_[v] < lb_[v]) {
      total += lb_[v] - x_[v];
    } else if (x_[v] > ub_[v]) {
      total += x_[v] - ub_[v];
    }
  }
  return total;
}

void LpSolver::BuildPhase1Costs(std::vector<double>& costs) const {
  costs.assign(total_, 0.0);
  for (int i = 0; i < m_; ++i) {
    int v = basic_[i];
    if (x_[v] < lb_[v] - options_.feas_tol) {
      costs[v] = 1.0;  // needs to increase
    } else if (x_[v] > ub_[v] + options_.feas_tol) {
      costs[v] = -1.0;  // needs to decrease
    }
  }
}

LpStatus LpSolver::Iterate(std::span<const double> costs_in, bool phase1,
                           int* iterations_left) {
  int degenerate_streak = 0;
  int cancel_poll = 0;
  bool was_bland = false;

  while (true) {
    if (options_.cancel != nullptr && (cancel_poll++ & kCancelPollMask) == 0 &&
        options_.cancel->Expired()) {
      return LpStatus::kCancelled;
    }
    if (*iterations_left <= 0) {
      return LpStatus::kIterationLimit;
    }
    --*iterations_left;

    std::span<const double> costs = costs_in;
    if (phase1) {
      if (TotalInfeasibility() <= options_.feas_tol * (m_ + 1)) {
        return LpStatus::kOptimal;
      }
      BuildPhase1Costs(phase1_costs_);
      costs = phase1_costs_;
    }

    // y' = c_B' B^-1.
    ComputeDuals(costs);
    const std::span<const double> y = y_;

    // Pricing: partial (rotating-section) Dantzig by default, Bland when
    // stalling. Optimality is only ever declared after a scan that covered
    // every variable, so partial pricing changes the pivot sequence but not
    // the answer; Bland's rule keeps its full lowest-index-first scan, which
    // its anti-cycling argument requires.
    const bool bland = degenerate_streak >= options_.bland_pivot_limit;
    if (bland && !was_bland) {
      Counters().bland_activations->Increment();
    }
    was_bland = bland;
    int enter = -1;
    int enter_dir = 0;
    double best_viol = options_.cost_tol;
    auto price_candidate = [&](int v) {
      if (status_[v] == Status::kBasic) {
        return false;
      }
      if (ub_[v] - lb_[v] <= 0.0) {
        return false;  // fixed variable can never move
      }
      double z = costs[v] - ColumnDot(v, y);
      int dir = 0;
      double viol = 0.0;
      switch (status_[v]) {
        case Status::kAtLower:
          if (z > options_.cost_tol) {
            dir = 1;
            viol = z;
          }
          break;
        case Status::kAtUpper:
          if (z < -options_.cost_tol) {
            dir = -1;
            viol = -z;
          }
          break;
        case Status::kFreeZero:
          if (std::abs(z) > options_.cost_tol) {
            dir = z > 0 ? 1 : -1;
            viol = std::abs(z);
          }
          break;
        case Status::kBasic:
          break;
      }
      if (dir == 0) {
        return false;
      }
      if (bland) {
        enter = v;
        enter_dir = dir;
        return true;
      }
      if (viol > best_viol) {
        best_viol = viol;
        enter = v;
        enter_dir = dir;
      }
      return false;
    };
    if (bland) {
      for (int v = 0; v < total_; ++v) {
        if (price_candidate(v)) {
          break;
        }
      }
    } else {
      const int section =
          std::max(kMinPricingSection, total_ / kPricingSections);
      int window_start = pricing_cursor_ < total_ ? pricing_cursor_ : 0;
      int scanned = 0;
      while (scanned < total_) {
        const int window_end = std::min(window_start + section, total_);
        for (int v = window_start; v < window_end; ++v) {
          price_candidate(v);
        }
        scanned += window_end - window_start;
        if (enter >= 0) {
          // Keep the cursor here: the section that just produced a candidate
          // is the most likely home of the next one.
          pricing_cursor_ = window_start;
          break;
        }
        window_start = window_end >= total_ ? 0 : window_end;
      }
    }
    if (enter < 0) {
      return LpStatus::kOptimal;  // full scan found no improving direction
    }

    ComputeTableauColumn(enter, col_);
    const std::vector<double>& w = col_;

    // Ratio test. Entering variable moves by t >= 0 in direction enter_dir;
    // basic i changes by -enter_dir * w[i] * t.
    double limit = kInfinity;
    int leave_row = -1;
    bool leave_to_upper = false;
    double best_pivot_mag = 0.0;
    for (int i = 0; i < m_; ++i) {
      double delta = enter_dir * w[i];
      if (std::abs(delta) <= options_.pivot_tol) {
        continue;
      }
      int bvar = basic_[i];
      double xb = x_[bvar];
      double l = lb_[bvar];
      double u = ub_[bvar];
      double ratio;
      bool to_upper;
      if (phase1 && xb < l - options_.feas_tol) {
        // Infeasible below: blocks only when moving up to its lower bound.
        if (delta < 0.0) {
          ratio = (xb - l) / delta;
          to_upper = false;
        } else {
          continue;
        }
      } else if (phase1 && xb > u + options_.feas_tol) {
        if (delta > 0.0) {
          ratio = (xb - u) / delta;
          to_upper = true;
        } else {
          continue;
        }
      } else if (delta > 0.0) {
        if (!std::isfinite(l)) {
          continue;
        }
        ratio = (xb - l) / delta;
        to_upper = false;
      } else {
        if (!std::isfinite(u)) {
          continue;
        }
        ratio = (xb - u) / delta;
        to_upper = true;
      }
      ratio = std::max(ratio, 0.0);
      bool better;
      if (bland) {
        better = ratio < limit - 1e-12 ||
                 (leave_row >= 0 && ratio < limit + 1e-12 &&
                  basic_[i] < basic_[leave_row]);
      } else {
        better = ratio < limit - 1e-12 ||
                 (ratio < limit + 1e-12 && std::abs(w[i]) > best_pivot_mag);
      }
      if (better) {
        limit = ratio;
        leave_row = i;
        leave_to_upper = to_upper;
        best_pivot_mag = std::abs(w[i]);
      }
    }

    // The entering variable's own opposite bound can bind first (bound flip).
    double flip_range = ub_[enter] - lb_[enter];
    if (std::isfinite(flip_range) && flip_range <= limit) {
      double t = flip_range;
      for (int i = 0; i < m_; ++i) {
        x_[basic_[i]] -= enter_dir * w[i] * t;
      }
      if (status_[enter] == Status::kAtLower) {
        x_[enter] = ub_[enter];
        status_[enter] = Status::kAtUpper;
      } else {
        x_[enter] = lb_[enter];
        status_[enter] = Status::kAtLower;
      }
      ++stats_.primal_pivots;
      degenerate_streak = t <= options_.feas_tol ? degenerate_streak + 1 : 0;
      continue;
    }

    if (leave_row < 0) {
      if (phase1) {
        TETRI_LOG(kWarning) << "phase-1 unbounded direction; treating as "
                               "numerically infeasible";
        return LpStatus::kInfeasible;
      }
      return LpStatus::kUnbounded;
    }

    double t = limit;
    for (int i = 0; i < m_; ++i) {
      x_[basic_[i]] -= enter_dir * w[i] * t;
    }
    if (status_[enter] == Status::kAtLower) {
      x_[enter] = lb_[enter] + t;
    } else if (status_[enter] == Status::kAtUpper) {
      x_[enter] = ub_[enter] - t;
    } else {
      x_[enter] = enter_dir * t;
    }

    int leaving = basic_[leave_row];
    status_[leaving] = leave_to_upper ? Status::kAtUpper : Status::kAtLower;
    x_[leaving] = leave_to_upper ? ub_[leaving] : lb_[leaving];
    basic_[leave_row] = enter;
    status_[enter] = Status::kBasic;
    PushEta(leave_row, w);
    ++stats_.primal_pivots;

    degenerate_streak = t <= options_.feas_tol ? degenerate_streak + 1 : 0;
    if (static_cast<int>(eta_pos_.size()) >= options_.refactor_every) {
      if (!RefactorizeOrReset() && options_.cancel != nullptr &&
          options_.cancel->Expired()) {
        return LpStatus::kCancelled;
      }
      RecomputeBasicValues();
    }
  }
}

void LpSolver::ComputeReducedCosts() {
  ComputeDuals(obj_);
  d_.resize(total_);
  for (int v = 0; v < total_; ++v) {
    d_[v] = status_[v] == Status::kBasic ? 0.0 : obj_[v] - ColumnDot(v, y_);
  }
}

bool LpSolver::PrepareDual() {
  ComputeReducedCosts();
  bool dual_feasible = true;
  for (int v = 0; v < total_; ++v) {
    const double d = d_[v];
    if (status_[v] == Status::kBasic || ub_[v] - lb_[v] <= 0.0) {
      continue;  // a fixed variable is optimal at any reduced cost
    }
    switch (status_[v]) {
      case Status::kAtLower:
        if (d > options_.cost_tol) {
          if (std::isfinite(ub_[v])) {
            status_[v] = Status::kAtUpper;
            x_[v] = ub_[v];
          } else {
            dual_feasible = false;
          }
        }
        break;
      case Status::kAtUpper:
        if (d < -options_.cost_tol) {
          if (std::isfinite(lb_[v])) {
            status_[v] = Status::kAtLower;
            x_[v] = lb_[v];
          } else {
            dual_feasible = false;
          }
        }
        break;
      case Status::kFreeZero:
        if (std::abs(d) > options_.cost_tol) {
          dual_feasible = false;
        }
        break;
      case Status::kBasic:
        break;
    }
  }
  return dual_feasible;
}

LpSolver::DualOutcome LpSolver::DualIterate(int* iterations_left) {
  int cancel_poll = 0;
  alpha_.assign(total_, 0.0);
  movable_.resize(total_);
  candidates_.resize(total_);
  live_rows_.resize(m_);
  // can_move_[v]: v is nonbasic and not fixed, kept current across pivots.
  can_move_.resize(total_);
  for (int v = 0; v < total_; ++v) {
    can_move_[v] = (status_[v] != Status::kBasic) & !(ub_[v] - lb_[v] <= 0.0);
  }
  while (true) {
    if (options_.cancel != nullptr && (cancel_poll++ & kCancelPollMask) == 0 &&
        options_.cancel->Expired()) {
      return DualOutcome::kCancelled;
    }
    // Leaving row: the basic variable furthest outside its bounds.
    int row = -1;
    double worst = options_.feas_tol;
    for (int i = 0; i < m_; ++i) {
      const int v = basic_[i];
      const double infeasibility = std::max(lb_[v] - x_[v], x_[v] - ub_[v]);
      if (infeasibility > worst) {
        worst = infeasibility;
        row = i;
      }
    }
    if (row < 0) {
      return DualOutcome::kOptimal;
    }
    if (*iterations_left <= 0) {
      return DualOutcome::kIterationLimit;
    }
    --*iterations_left;
    const int leaving = basic_[row];
    const bool to_upper = x_[leaving] > ub_[leaving];
    // +1 when the leaving variable must rise to its lower bound, -1 when it
    // must fall to its upper bound.
    const double sigma = to_upper ? -1.0 : 1.0;

    // Pivot row alpha = (e_row' B^-1) [A | I], accumulated over the rows of
    // A where e_row' B^-1 is nonzero.
    y_.assign(m_, 0.0);
    y_[row] = 1.0;
    Btran(y_);
    int num_live = 0;
    for (int i = 0; i < m_; ++i) {
      live_rows_[num_live] = i;
      num_live += static_cast<int>(y_[i] != 0.0);
    }
    // Structural entries accumulate row by row; a live row's slack entry is
    // its rho. Slack entries of the other rows are zero and never read.
    std::fill(alpha_.begin(), alpha_.begin() + n_, 0.0);
    for (int l = 0; l < num_live; ++l) {
      const int i = live_rows_[l];
      const double rho = y_[i];
      for (int k = row_start_[i]; k < row_start_[i + 1]; ++k) {
        alpha_[row_var_[k]] += rho * row_coeff_[k];
      }
      alpha_[n_ + i] = rho;
    }
    // The movable nonbasics this row touches, ascending: the only entries
    // the ratio test and the reduced-cost update below can act on. These
    // compactions (and the candidates' below) are branch-free.
    int num_movable = 0;
    for (int v = 0; v < n_; ++v) {
      movable_[num_movable] = v;
      num_movable += static_cast<int>((alpha_[v] != 0.0) & can_move_[v]);
    }
    for (int l = 0; l < num_live; ++l) {
      const int v = n_ + live_rows_[l];
      movable_[num_movable] = v;
      num_movable += static_cast<int>(can_move_[v]);
    }
    const std::span<const int32_t> movable(movable_.data(), num_movable);
    // Harris ratio test. An entering candidate moves in direction dir (+1 up
    // from its lower bound, -1 down from its upper) and must push the leaving
    // variable towards its bound, i.e. alpha * dir * sigma < 0; its ratio is
    // how far its reduced cost may move before changing sign, per unit of
    // dual step. Pass 1 collects the candidates and the largest dual step
    // allowed with every reduced cost relaxed by cost_tol.
    auto direction = [&](int v, double a) {
      switch (status_[v]) {
        case Status::kAtLower:
          return 1.0;
        case Status::kAtUpper:
          return -1.0;
        default:
          return a * sigma < 0.0 ? 1.0 : -1.0;  // free variables
      }
    };
    int num_candidates = 0;
    for (const int v : movable) {
      const double a = alpha_[v];
      candidates_[num_candidates].var = v;
      num_candidates += static_cast<int>((std::abs(a) > options_.pivot_tol) &
                                         (a * direction(v, a) * sigma < 0.0));
    }
    if (num_candidates == 0) {
      // No nonbasic can move the leaving variable towards its bound: the row
      // proves the bounds infeasible.
      return DualOutcome::kInfeasible;
    }
    const std::span<Candidate> candidates(candidates_.data(), num_candidates);
    double theta_max = kInfinity;
    for (Candidate& c : candidates) {
      const double a = alpha_[c.var];
      c.ratio = std::max(0.0, -direction(c.var, a) * d_[c.var]) / std::abs(a);
      theta_max = std::min(theta_max, c.ratio + options_.cost_tol / std::abs(a));
    }
    // Pass 2: among the candidates within that step, the largest pivot.
    int enter = -1;
    double best_mag = 0.0;
    for (const Candidate& c : candidates) {
      if (c.ratio <= theta_max && std::abs(alpha_[c.var]) > best_mag) {
        best_mag = std::abs(alpha_[c.var]);
        enter = c.var;
      }
    }
    const double a_enter = alpha_[enter];

    // The FTRAN'd entering column must agree with the pivot row.
    ComputeTableauColumn(enter, col_);
    const double pivot = col_[row];
    if (std::abs(pivot) <= options_.pivot_tol ||
        std::abs(pivot - a_enter) > 1e-7 * (1.0 + std::abs(pivot))) {
      return DualOutcome::kTrouble;
    }

    // Dual step. A step of the wrong sign (possible only within the Harris
    // tolerance) is taken as zero.
    double theta = d_[enter] / a_enter;
    if (theta * sigma < 0.0) {
      theta = 0.0;
    }
    for (const int v : movable) {
      d_[v] -= theta * alpha_[v];
    }
    d_[enter] = 0.0;
    d_[leaving] = -theta;

    // Primal step: the entering variable moves until the leaving one sits on
    // its violated bound.
    const double target = to_upper ? ub_[leaving] : lb_[leaving];
    const double step = (x_[leaving] - target) / pivot;
    for (int i = 0; i < m_; ++i) {
      x_[basic_[i]] -= col_[i] * step;
    }
    x_[enter] += step;
    x_[leaving] = target;
    status_[leaving] = to_upper ? Status::kAtUpper : Status::kAtLower;
    basic_[row] = enter;
    status_[enter] = Status::kBasic;
    can_move_[enter] = 0;
    can_move_[leaving] = !(ub_[leaving] - lb_[leaving] <= 0.0);
    PushEta(row, col_);
    ++stats_.dual_pivots;

    if (static_cast<int>(eta_pos_.size()) >= options_.refactor_every) {
      if (!RefactorizeOrReset()) {
        return options_.cancel != nullptr && options_.cancel->Expired()
                   ? DualOutcome::kCancelled
                   : DualOutcome::kTrouble;
      }
      RecomputeBasicValues();
      ComputeReducedCosts();
    }
  }
}

LpResult LpSolver::Solve() {
  std::vector<double> lower(n_), upper(n_);
  for (int v = 0; v < n_; ++v) {
    lower[v] = model_.lower_bound(v);
    upper[v] = model_.upper_bound(v);
  }
  return Solve(lower, upper, nullptr);
}

LpResult LpSolver::Solve(std::span<const double> lower,
                         std::span<const double> upper) {
  return Solve(lower, upper, nullptr);
}

LpResult LpSolver::Solve(std::span<const double> lower,
                         std::span<const double> upper, const LpBasis* warm) {
  stats_ = SolveStats{};
  LpResult result = SolveImpl(lower, upper, warm);
  LpCounters& counters = Counters();
  counters.primal_pivots->Increment(stats_.primal_pivots);
  counters.dual_pivots->Increment(stats_.dual_pivots);
  counters.refactorizations->Increment(stats_.refactorizations);
  counters.dual_fallbacks->Increment(stats_.dual_fallbacks);
  return result;
}

LpResult LpSolver::SolveImpl(std::span<const double> lower,
                             std::span<const double> upper,
                             const LpBasis* warm) {
  assert(static_cast<int>(lower.size()) == n_ &&
         static_cast<int>(upper.size()) == n_);
  InstallBounds(lower, upper);
  // Reset the pricing cursor so a solve's pivot sequence depends only on its
  // arguments, not on which solves this instance ran before (keeps
  // single-threaded branch-and-bound runs reproducible).
  pricing_cursor_ = 0;

  const bool warm_ok = warm != nullptr && InstallWarmBasis(*warm);
  if (!warm_ok) {
    InstallSlackBasis();
  }
  // Only bounds differ from the solve that produced a warm basis, so it is
  // normally still dual feasible: re-solve with the dual simplex.
  const bool dual = warm_ok && PrepareDual();
  if (warm_ok && !dual) {
    ++stats_.dual_fallbacks;
  }
  RecomputeBasicValues();

  LpResult result;
  int iterations_left = options_.max_iterations;
  auto finish = [&](LpStatus status) {
    result.status = status;
    result.iterations = options_.max_iterations - iterations_left;
    return result;
  };

  if (dual) {
    switch (DualIterate(&iterations_left)) {
      case DualOutcome::kOptimal:
        break;  // phase 2 below confirms optimality with one pricing pass
      case DualOutcome::kInfeasible:
        return finish(LpStatus::kInfeasible);
      case DualOutcome::kIterationLimit:
        return finish(LpStatus::kIterationLimit);
      case DualOutcome::kCancelled:
        return finish(LpStatus::kCancelled);
      case DualOutcome::kTrouble:
        ++stats_.dual_fallbacks;
        break;
    }
  }

  if (TotalInfeasibility() > options_.feas_tol * (m_ + 1)) {
    LpStatus phase1 = Iterate({}, /*phase1=*/true, &iterations_left);
    if (phase1 == LpStatus::kIterationLimit) {
      return finish(LpStatus::kIterationLimit);
    }
    if (phase1 == LpStatus::kCancelled) {
      // Cancelled while still (possibly) infeasible: report the cancellation
      // rather than misclassifying the interrupted state as infeasible.
      return finish(LpStatus::kCancelled);
    }
    if (TotalInfeasibility() > options_.feas_tol * (m_ + 1)) {
      return finish(LpStatus::kInfeasible);
    }
  }

  LpStatus phase2 = Iterate(obj_, /*phase1=*/false, &iterations_left);
  finish(phase2);
  if (phase2 != LpStatus::kOptimal && phase2 != LpStatus::kIterationLimit) {
    return result;
  }

  result.values.assign(n_, 0.0);
  double objective = 0.0;
  for (int v = 0; v < n_; ++v) {
    double x = x_[v];
    // Snap to bounds within tolerance so callers see clean values.
    if (x < lb_[v]) {
      x = lb_[v];
    } else if (x > ub_[v]) {
      x = ub_[v];
    }
    result.values[v] = x;
    objective += obj_[v] * x;
  }
  result.objective = objective;
  return result;
}

LpBasis LpSolver::BasisSnapshot() const {
  LpBasis snapshot;
  BasisSnapshot(snapshot);
  return snapshot;
}

void LpSolver::BasisSnapshot(LpBasis& out) const {
  out.basic.assign(basic_.begin(), basic_.end());
  out.status.resize(total_);
  for (int v = 0; v < total_; ++v) {
    out.status[v] = static_cast<uint8_t>(status_[v]);
  }
}

}  // namespace tetrisched
