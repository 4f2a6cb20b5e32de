#include "src/solver/certify.h"

#include <cmath>
#include <cstdio>

#include "src/common/metrics.h"

namespace tetrisched {
namespace {

constexpr double kFeasTol = 1e-5;  // per-row / per-bound violation tolerance
constexpr double kIntTol = 1e-5;   // integrality tolerance
constexpr double kObjTol = 1e-6;   // relative objective-recomputation tolerance
constexpr double kGapSlop = 1e-6;  // slack added when auditing a claimed gap

Counter* CertifierRejects() {
  static Counter* counter =
      GlobalMetrics().GetCounter("tetrisched_certifier_rejects_total");
  return counter;
}

// Counts one rejected plan: the total, and the series labelled with the
// check that failed first.
void CountReject(const char* reason) {
  CertifierRejects()->Increment();
  GlobalMetrics()
      .GetCounter(std::string("tetrisched_certifier_rejects_total{reason=\"") +
                  reason + "\"}")
      ->Increment();
}

std::string Describe(const char* what, int index, double magnitude) {
  char buf[160];
  std::snprintf(buf, sizeof(buf), "%s (index %d, violation %.3g)", what, index,
                magnitude);
  return buf;
}

}  // namespace

CertifyReport CertifyPlan(const MilpModel& model, const MilpResult& result,
                          const MilpOptions& options) {
  CertifyReport report;
  const char* reason = nullptr;  // the first failed check's label
  auto reject = [&](const char* label, std::string failure) {
    report.ok = false;
    if (reason == nullptr) {
      reason = label;
      report.failure = std::move(failure);
    }
  };

  if (!result.HasSolution() ||
      static_cast<int>(result.values.size()) != model.num_vars()) {
    reject("missing_incumbent", "incumbent missing or wrong dimension");
    CountReject(reason);
    return report;
  }

  report.ok = true;

  // Bounds and integrality, against the original (pre-presolve) bounds.
  for (int v = 0; v < model.num_vars(); ++v) {
    const double x = result.values[v];
    if (!std::isfinite(x)) {
      reject("non_finite", Describe("non-finite value", v, 0.0));
      break;
    }
    if (x < model.lower_bound(v) - kFeasTol ||
        x > model.upper_bound(v) + kFeasTol) {
      const double viol = std::max(model.lower_bound(v) - x,
                                   x - model.upper_bound(v));
      reject("bound", Describe("variable bound violated", v, viol));
      break;
    }
    if (model.IsIntegerLike(v) &&
        std::abs(x - std::round(x)) > kIntTol) {
      reject("integrality", Describe("integrality violated", v,
                                     std::abs(x - std::round(x))));
      break;
    }
  }

  // Every constraint row, re-evaluated from scratch.
  for (int c = 0; c < model.num_constraints(); ++c) {
    double lhs = 0.0;
    for (const LinTerm& term : model.constraint_terms(c)) {
      lhs += term.coeff * result.values[term.var];
    }
    const double rhs = model.constraint_rhs(c);
    const double tol = kFeasTol * std::max(1.0, std::abs(rhs));
    double viol = 0.0;
    switch (model.constraint_sense(c)) {
      case ConstraintSense::kLessEqual:
        viol = lhs - rhs;
        break;
      case ConstraintSense::kGreaterEqual:
        viol = rhs - lhs;
        break;
      case ConstraintSense::kEqual:
        viol = std::abs(lhs - rhs);
        break;
    }
    if (viol > tol) {
      ++report.violated_rows;
      reject("row", Describe("constraint row violated", c, viol));
    }
  }

  // Claimed objective must match a recomputation from the committed values.
  const double recomputed = model.ObjectiveValue(result.values);
  report.objective_error = std::abs(recomputed - result.objective);
  if (report.objective_error >
      kObjTol * std::max(1.0, std::abs(recomputed))) {
    reject("objective",
           Describe("objective mismatch", -1, report.objective_error));
  }

  // A finite bound must actually bound the incumbent from above (the model
  // is a maximization); a bound below the incumbent is internally
  // inconsistent no matter what status the solve claims.
  if (std::isfinite(result.best_bound) &&
      result.best_bound <
          recomputed - (options.abs_gap + kGapSlop)) {
    reject("bound_below_incumbent", Describe("bound below incumbent", -1,
                                             recomputed - result.best_bound));
  }

  // Gap audit: only when the solve *claims* a proven gap. kTimeLimit and
  // kStall make no gap claim, and an infinite bound (e.g. a root LP cut off
  // mid-solve) honestly claims nothing.
  if ((result.status == SolveStatus::kOptimal ||
       result.status == SolveStatus::kGapMet) &&
      std::isfinite(result.best_bound)) {
    const double gap = result.best_bound - recomputed;
    const double allowed =
        result.status == SolveStatus::kOptimal
            ? options.abs_gap + kGapSlop
            : std::max(options.abs_gap,
                       options.rel_gap * std::max(std::abs(recomputed), 1e-9)) +
                  kGapSlop;
    if (gap > allowed) {
      reject("gap", Describe("claimed gap not covered by bound", -1,
                             gap - allowed));
    }
  }

  if (!report.ok) {
    CountReject(reason);
  }
  return report;
}

}  // namespace tetrisched
