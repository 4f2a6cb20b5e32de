// Mixed Integer Linear Program model builder.
//
// The STRL compiler emits models through this API; the solver consumes them.
// The paper used IBM CPLEX behind the same kind of interface — this repo
// substitutes its own solver (see simplex.h / milp.h) with the same contract:
// maximize a linear objective over bounded continuous / integer / binary
// variables subject to linear constraints, within a relative optimality gap.
//
// Conventions:
//  * The objective is always MAXIMIZED (STRL value flows upward).
//  * Variable bounds default to [0, +inf) for continuous/integer and [0, 1]
//    for binary.
//  * Duplicate variables inside one constraint are allowed and are summed.

#ifndef TETRISCHED_SOLVER_MODEL_H_
#define TETRISCHED_SOLVER_MODEL_H_

#include <cstdint>
#include <initializer_list>
#include <limits>
#include <span>
#include <string>
#include <vector>

namespace tetrisched {

using VarId = int32_t;
using ConstraintId = int32_t;

inline constexpr double kInfinity = std::numeric_limits<double>::infinity();

enum class VarType {
  kContinuous,
  kInteger,
  kBinary,
};

enum class ConstraintSense {
  kLessEqual,     // sum <= rhs
  kGreaterEqual,  // sum >= rhs
  kEqual,         // sum == rhs
};

// One (coefficient, variable) pair of a linear expression.
struct LinTerm {
  VarId var = -1;
  double coeff = 0.0;
};

class MilpModel {
 public:
  MilpModel() = default;

  // --- Model construction -------------------------------------------------

  VarId AddContinuousVar(double lower, double upper, std::string name = "");
  VarId AddIntegerVar(double lower, double upper, std::string name = "");
  VarId AddBinaryVar(std::string name = "");

  // Adds `delta` to the objective coefficient of `var`.
  void AddObjectiveTerm(VarId var, double delta);

  // The terms are copied; a braced list binds to the second form.
  ConstraintId AddConstraint(std::span<const LinTerm> terms,
                             ConstraintSense sense, double rhs,
                             std::string name = "");
  ConstraintId AddConstraint(std::initializer_list<LinTerm> terms,
                             ConstraintSense sense, double rhs,
                             std::string name = "");

  // --- Introspection ------------------------------------------------------

  int num_vars() const { return static_cast<int>(types_.size()); }
  int num_constraints() const { return static_cast<int>(senses_.size()); }

  VarType var_type(VarId v) const { return types_[v]; }
  double lower_bound(VarId v) const { return lowers_[v]; }
  double upper_bound(VarId v) const { return uppers_[v]; }
  double objective_coeff(VarId v) const { return objective_[v]; }
  // Names are optional labels for dumps; empty when none was given.
  const std::string& var_name(VarId v) const;
  void SetVarName(VarId v, std::string name);

  std::span<const LinTerm> constraint_terms(ConstraintId c) const;
  ConstraintSense constraint_sense(ConstraintId c) const { return senses_[c]; }
  double constraint_rhs(ConstraintId c) const { return rhs_[c]; }
  const std::string& constraint_name(ConstraintId c) const;
  void SetConstraintName(ConstraintId c, std::string name);

  bool IsIntegerLike(VarId v) const {
    return types_[v] != VarType::kContinuous;
  }

  // --- Solution checking --------------------------------------------------

  // Objective value of an assignment (no feasibility check).
  double ObjectiveValue(std::span<const double> values) const;

  // True iff `values` satisfies every bound, every constraint, and
  // integrality of integer-like variables, all within `tol`.
  bool IsFeasible(std::span<const double> values, double tol = 1e-6) const;

  // Human-readable dump (LP-format-like) for debugging small models.
  std::string DebugString() const;

 private:
  VarId AddVar(VarType type, double lower, double upper, std::string name);

  std::vector<VarType> types_;
  std::vector<double> lowers_;
  std::vector<double> uppers_;
  std::vector<double> objective_;
  // Names are stored only once one is set: an unnamed model (every compiled
  // cycle model) holds no strings. Indices past the end are unnamed.
  std::vector<std::string> var_names_;

  // Constraints in compressed form: terms_ holds all rows back to back,
  // row c spanning [row_start_[c], row_start_[c + 1]).
  std::vector<LinTerm> terms_;
  std::vector<int64_t> row_start_{0};
  std::vector<ConstraintSense> senses_;
  std::vector<double> rhs_;
  std::vector<std::string> constraint_names_;
};

}  // namespace tetrisched

#endif  // TETRISCHED_SOLVER_MODEL_H_
