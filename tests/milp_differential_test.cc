// Exhaustive-enumeration differential harness for MilpSolver. Seeded small
// MILPs (at most 14 integer variables with small domains, mixed row senses)
// are solved by enumeration and then by MilpSolver under every combination
// of {1, 4} threads, presolve on/off, decomposition on/off, and no limit or
// one tiny limit (nodes, stall, wall clock, a pre-expired cancel token, LP
// iterations). The families reach every exit of a solve: infeasible models,
// models unbounded along a known ray, fixed variables that presolve folds
// into an objective offset, and models that split into components whose
// objectives have mixed signs.
//
// Whatever stopped a solve, what it reports must be true in the caller's
// model: a proven optimum or gap holds against the enumerated optimum,
// infeasible and unbounded are real, the bound is never below the incumbent
// or the optimum, and every plan it hands back is feasible and certifies.

#include <algorithm>
#include <cmath>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/budget.h"
#include "src/common/logging.h"
#include "src/common/rng.h"
#include "src/solver/certify.h"
#include "src/solver/milp.h"
#include "src/solver/model.h"

namespace tetrisched {
namespace {

constexpr double kSlop = 1e-6;

struct Instance {
  MilpModel model;
  int ray_var = -1;  // raising this variable is an improving ray
  double rel_gap = 0.10;
};

// Ground truth by enumeration of every integer point in the box.
struct Truth {
  bool feasible = false;
  bool unbounded = false;
  double optimum = -kInfinity;
  std::vector<double> witness;  // a feasible point (warm-start material)
};

bool RowHolds(const MilpModel& model, int c, const std::vector<double>& x) {
  double lhs = 0.0;
  for (const LinTerm& term : model.constraint_terms(c)) {
    lhs += term.coeff * x[term.var];
  }
  const double rhs = model.constraint_rhs(c);
  switch (model.constraint_sense(c)) {
    case ConstraintSense::kLessEqual:
      return lhs <= rhs + 1e-9;
    case ConstraintSense::kGreaterEqual:
      return lhs >= rhs - 1e-9;
    case ConstraintSense::kEqual:
      return std::abs(lhs - rhs) <= 1e-9;
  }
  return false;
}

// The ray variable sits at its lower bound and the rows it appears in are
// skipped: the generators only put it where raising it satisfies the row.
Truth Enumerate(const Instance& instance, Rng& rng) {
  const MilpModel& model = instance.model;
  const int n = model.num_vars();
  std::vector<int> rows;
  for (int c = 0; c < model.num_constraints(); ++c) {
    bool has_ray = false;
    for (const LinTerm& term : model.constraint_terms(c)) {
      has_ray = has_ray || term.var == instance.ray_var;
    }
    if (!has_ray) {
      rows.push_back(c);
    }
  }
  std::vector<double> x(n);
  for (int v = 0; v < n; ++v) {
    x[v] = model.lower_bound(v);
  }
  Truth truth;
  int64_t seen = 0;
  while (true) {
    bool ok = true;
    for (int c : rows) {
      if (!RowHolds(model, c, x)) {
        ok = false;
        break;
      }
    }
    if (ok) {
      truth.feasible = true;
      truth.optimum = std::max(truth.optimum, model.ObjectiveValue(x));
      if (rng.UniformInt(0, seen++) == 0) {
        truth.witness = x;
      }
    }
    int v = 0;
    for (; v < n; ++v) {
      if (v == instance.ray_var) {
        continue;
      }
      if (x[v] < model.upper_bound(v)) {
        x[v] += 1.0;
        break;
      }
      x[v] = model.lower_bound(v);
    }
    if (v == n) {
      break;
    }
  }
  truth.unbounded = truth.feasible && instance.ray_var >= 0;
  return truth;
}

VarId AddVar(MilpModel& model, double lower, double upper, double objective) {
  const VarId v = lower == 0.0 && upper == 1.0
                      ? model.AddBinaryVar()
                      : model.AddIntegerVar(lower, upper);
  if (objective != 0.0) {
    model.AddObjectiveTerm(v, objective);
  }
  return v;
}

// A block of `count` integer variables with small domains and random
// objective coefficients in [obj_lo, obj_hi], under `rows` random rows of
// mixed sense that a random integer point of the block satisfies.
std::vector<VarId> AddBlock(MilpModel& model, Rng& rng, int count, int rows,
                            int obj_lo, int obj_hi) {
  std::vector<VarId> vars;
  std::vector<double> point;
  for (int i = 0; i < count; ++i) {
    const double lower = rng.Bernoulli(0.2) ? -1.0 : 0.0;
    const double upper = lower + static_cast<double>(rng.UniformInt(1, 3));
    const double objective =
        static_cast<double>(rng.UniformInt(obj_lo, obj_hi));
    vars.push_back(AddVar(model, lower, upper, objective));
    point.push_back(lower + static_cast<double>(rng.UniformInt(
                                0, static_cast<int64_t>(upper - lower))));
  }
  for (int r = 0; r < rows; ++r) {
    std::vector<LinTerm> terms;
    double activity = 0.0;
    for (int i = 0; i < count; ++i) {
      if (terms.empty() ? i + 1 == count || rng.Bernoulli(0.6)
                        : rng.Bernoulli(0.6)) {
        int64_t coeff = rng.UniformInt(-4, 5);
        coeff = coeff == 0 ? 1 : coeff;
        terms.push_back({vars[i], static_cast<double>(coeff)});
        activity += static_cast<double>(coeff) * point[i];
      }
    }
    const int64_t slack = rng.UniformInt(0, 3);
    switch (rng.UniformInt(0, 3)) {
      case 0:
        model.AddConstraint(terms, ConstraintSense::kEqual, activity);
        break;
      case 1:
        model.AddConstraint(terms, ConstraintSense::kGreaterEqual,
                            activity - static_cast<double>(slack));
        break;
      default:
        model.AddConstraint(terms, ConstraintSense::kLessEqual,
                            activity + static_cast<double>(slack));
        break;
    }
  }
  return vars;
}

// A knapsack of `count` variables on [0, 3] with positive values.
std::vector<VarId> AddKnapsack(MilpModel& model, Rng& rng, int count) {
  std::vector<VarId> vars;
  std::vector<LinTerm> row;
  double weight = 0.0;
  for (int i = 0; i < count; ++i) {
    const double w = static_cast<double>(rng.UniformInt(2, 9));
    vars.push_back(AddVar(model, 0.0, 3.0, rng.UniformReal(1.0, 12.0)));
    row.push_back({vars.back(), w});
    weight += 3.0 * w;
  }
  model.AddConstraint(row, ConstraintSense::kLessEqual,
                      std::floor(weight * rng.UniformReal(0.2, 0.6)));
  return vars;
}

Instance RandomModel(Rng& rng) {
  Instance instance;
  const int count = static_cast<int>(rng.UniformInt(2, 9));
  AddBlock(instance.model, rng, count, static_cast<int>(rng.UniformInt(1, 4)),
           -6, 10);
  instance.rel_gap = rng.Bernoulli(0.5) ? 0.10 : 0.0;
  return instance;
}

// Fixed variables (lb == ub, or binaries pinned by a singleton row) with
// large objective coefficients of either sign: presolve removes them and
// carries their value as an objective offset.
Instance PresolveOffsetModel(Rng& rng) {
  Instance instance;
  MilpModel& model = instance.model;
  AddKnapsack(model, rng, static_cast<int>(rng.UniformInt(4, 8)));
  const double sign = rng.Bernoulli(0.7) ? -1.0 : 1.0;
  const double offset = sign * static_cast<double>(rng.UniformInt(50, 400));
  if (rng.Bernoulli(0.5)) {
    AddVar(model, 1.0, 1.0, offset);
  } else {
    const VarId pinned = AddVar(model, 0.0, 1.0, offset);
    model.AddConstraint({{pinned, 1.0}}, ConstraintSense::kGreaterEqual, 1.0);
  }
  if (rng.Bernoulli(0.3)) {
    AddVar(model, 2.0, 2.0, static_cast<double>(rng.UniformInt(-30, 30)));
  }
  return instance;
}

// Two knapsacks plus a component that must pay: a binary forced to 1 by its
// own row, with a large negative value. Sometimes a free variable (in no
// row) too. Per-component gaps then do not add up to the model's gap.
Instance MixedSignComponentsModel(Rng& rng) {
  Instance instance;
  MilpModel& model = instance.model;
  AddKnapsack(model, rng, static_cast<int>(rng.UniformInt(3, 5)));
  AddKnapsack(model, rng, static_cast<int>(rng.UniformInt(3, 5)));
  const VarId forced =
      AddVar(model, 0.0, 1.0, -static_cast<double>(rng.UniformInt(50, 400)));
  model.AddConstraint({{forced, 1.0}}, ConstraintSense::kGreaterEqual, 1.0);
  if (rng.Bernoulli(0.4)) {
    AddVar(model, 0.0, 2.0, static_cast<double>(rng.UniformInt(-5, 5)));
  }
  return instance;
}

// A feasible block next to a contradiction: either two rows no real point
// satisfies, or a parity row (2a + 2b = odd) that only fractional points do.
Instance InfeasibleModel(Rng& rng) {
  Instance instance;
  MilpModel& model = instance.model;
  const std::vector<VarId> block = AddBlock(
      model, rng, static_cast<int>(rng.UniformInt(2, 6)), 2, -6, 10);
  const bool own_component = rng.Bernoulli(0.5);
  VarId a = block.front();
  VarId b = block.back();
  if (own_component) {
    a = AddVar(model, 0.0, 3.0, 1.0);
    b = AddVar(model, 0.0, 3.0, 2.0);
  }
  if (rng.Bernoulli(0.5)) {
    model.AddConstraint({{a, 1.0}, {b, 1.0}}, ConstraintSense::kLessEqual,
                        -20.0);
    model.AddConstraint({{a, 1.0}, {b, 1.0}}, ConstraintSense::kGreaterEqual,
                        20.0);
  } else {
    model.AddConstraint({{a, 2.0}, {b, 2.0}}, ConstraintSense::kEqual, 3.0);
  }
  return instance;
}

// A block plus an integer variable on [0, inf) with a positive value that
// is either in no row or only in >= rows with a positive coefficient:
// raising it is an improving ray, so the model is unbounded whenever the
// block is feasible.
Instance UnboundedModel(Rng& rng) {
  Instance instance;
  MilpModel& model = instance.model;
  const std::vector<VarId> block = AddBlock(
      model, rng, static_cast<int>(rng.UniformInt(2, 7)),
      static_cast<int>(rng.UniformInt(1, 3)), -6, 10);
  instance.ray_var = model.AddIntegerVar(0.0, kInfinity);
  model.AddObjectiveTerm(instance.ray_var,
                         static_cast<double>(rng.UniformInt(1, 5)));
  if (rng.Bernoulli(0.6)) {
    model.AddConstraint({{instance.ray_var, 1.0}, {block.front(), -2.0}},
                        ConstraintSense::kGreaterEqual,
                        static_cast<double>(rng.UniformInt(-3, 3)));
  }
  return instance;
}

enum class Limit {
  kNone,
  kOneNode,
  kFourNodes,
  kStall,
  kMicrosecond,
  kCancelled,
  kLpIterations,
};

const char* LimitName(Limit limit) {
  switch (limit) {
    case Limit::kNone:
      return "none";
    case Limit::kOneNode:
      return "max_nodes=1";
    case Limit::kFourNodes:
      return "max_nodes=4";
    case Limit::kStall:
      return "stall_node_limit=2";
    case Limit::kMicrosecond:
      return "time_limit=1us";
    case Limit::kCancelled:
      return "cancelled";
    case Limit::kLpIterations:
      return "lp.max_iterations=1";
  }
  return "?";
}

// Failures by check, with the first few described in full.
struct Ledger {
  std::map<std::string, int> failures;
  std::vector<std::string> examples;
  std::map<SolveStatus, int> statuses;
  int split_solves = 0;
  int solves = 0;

  void Fail(const std::string& check, const std::string& where,
            const std::string& detail) {
    if (failures[check]++ < 3) {
      examples.push_back(check + " @ " + where + ": " + detail);
    }
  }

  int total() const {
    int sum = 0;
    for (const auto& [check, count] : failures) {
      sum += count;
    }
    return sum;
  }

  std::string Summary() const {
    std::ostringstream out;
    out << total() << " failed checks over " << solves << " solves\n";
    for (const auto& [check, count] : failures) {
      out << "  " << check << ": " << count << "\n";
    }
    for (const std::string& example : examples) {
      out << "  e.g. " << example << "\n";
    }
    return out.str();
  }
};

std::string Describe(const MilpResult& result) {
  std::ostringstream out;
  out.precision(10);
  out << ToString(result.status) << " objective " << result.objective
      << " bound " << result.best_bound << " components "
      << result.components;
  return out.str();
}

void Check(const Instance& instance, const Truth& truth,
           const MilpOptions& options, const MilpResult& result,
           const std::string& where, Ledger& ledger) {
  const MilpModel& model = instance.model;
  const std::string got = Describe(result);
  std::ostringstream truth_text;
  truth_text << (truth.unbounded  ? "unbounded"
                 : truth.feasible ? "optimum "
                                  : "infeasible");
  if (truth.feasible && !truth.unbounded) {
    truth_text << truth.optimum;
  }
  const std::string detail = got + " vs " + truth_text.str();
  ++ledger.solves;
  ++ledger.statuses[result.status];
  if (result.components >= 2) {
    ++ledger.split_solves;
  }

  if (result.status == SolveStatus::kInfeasible && truth.feasible) {
    ledger.Fail("false infeasibility claim", where, detail);
  }
  if (result.status == SolveStatus::kUnbounded && !truth.unbounded) {
    ledger.Fail("false unboundedness claim", where, detail);
  }
  const bool bounded = truth.feasible && !truth.unbounded;
  if (result.status == SolveStatus::kOptimal &&
      !(bounded &&
        truth.optimum - result.objective <= options.abs_gap + kSlop)) {
    ledger.Fail("false optimality claim", where, detail);
  }
  if (result.status == SolveStatus::kGapMet) {
    const double allowed =
        std::max(options.abs_gap,
                 options.rel_gap * std::max(std::abs(result.objective), 1e-9));
    if (!(bounded && truth.optimum - result.objective <= allowed + kSlop)) {
      ledger.Fail("false gap claim", where, detail);
    }
  }
  if (!result.values.empty() && result.best_bound < result.objective - kSlop) {
    ledger.Fail("bound below incumbent", where, detail);
  }
  if (truth.feasible && result.status != SolveStatus::kUnbounded &&
      result.best_bound < (truth.unbounded ? kInfinity
                                           : truth.optimum - kSlop)) {
    ledger.Fail("bound below optimum", where, detail);
  }
  if (result.HasSolution()) {
    if (static_cast<int>(result.values.size()) != model.num_vars() ||
        !model.IsFeasible(result.values, 1e-6)) {
      ledger.Fail("infeasible plan", where, detail);
      return;
    }
    if (std::abs(model.ObjectiveValue(result.values) - result.objective) >
        kSlop * std::max(1.0, std::abs(result.objective))) {
      ledger.Fail("objective does not match the plan", where, detail);
    }
    CertifyReport report = CertifyPlan(model, result, options);
    if (!report.ok) {
      ledger.Fail("certifier reject", where, detail + ": " + report.failure);
    }
  }
}

// Solves `instance` under every configuration and checks each result.
void SolveEveryWay(const Instance& instance, const Truth& truth,
                   const std::vector<double>& warm, const std::string& name,
                   Ledger& ledger) {
  CancelToken expired;
  expired.Cancel();
  for (int threads : {1, 4}) {
    for (bool presolve : {true, false}) {
      for (bool decompose : {true, false}) {
        for (Limit limit :
             {Limit::kNone, Limit::kOneNode, Limit::kFourNodes, Limit::kStall,
              Limit::kMicrosecond, Limit::kCancelled, Limit::kLpIterations}) {
          MilpOptions options;
          options.rel_gap = instance.rel_gap;
          options.num_threads = threads;
          options.enable_presolve = presolve;
          options.enable_decomposition = decompose;
          options.time_limit_seconds = 30.0;
          switch (limit) {
            case Limit::kNone:
              break;
            case Limit::kOneNode:
              options.max_nodes = 1;
              break;
            case Limit::kFourNodes:
              options.max_nodes = 4;
              break;
            case Limit::kStall:
              options.stall_node_limit = 2;
              break;
            case Limit::kMicrosecond:
              options.time_limit_seconds = 1e-6;
              break;
            case Limit::kCancelled:
              options.cancel = &expired;
              break;
            case Limit::kLpIterations:
              options.lp.max_iterations = 1;
              break;
          }
          std::ostringstream where;
          where << name << " threads=" << threads
                << " presolve=" << presolve << " decompose=" << decompose
                << " limit=" << LimitName(limit)
                << (warm.empty() ? "" : " warm");
          const MilpResult result =
              MilpSolver(instance.model, options).Solve(warm);
          Check(instance, truth, options, result, where.str(), ledger);
        }
      }
    }
  }
}

// Runs `count` seeded instances of one family; every third gets a feasible
// warm start when one exists. The LP iteration limit WARNs of thousands of
// tiny solves are silenced.
Ledger RunFamily(const char* family, Instance (*make)(Rng&), int count,
                 uint64_t seed) {
  const LogLevel log_level = GetLogLevel();
  SetLogLevel(LogLevel::kError);
  Ledger ledger;
  for (int i = 0; i < count; ++i) {
    Rng rng(seed + static_cast<uint64_t>(i));
    const Instance instance = make(rng);
    const Truth truth = Enumerate(instance, rng);
    std::vector<double> warm;
    if (i % 3 == 2 && !truth.witness.empty() && instance.ray_var < 0) {
      warm = truth.witness;
    }
    SolveEveryWay(instance, truth, warm,
                  std::string(family) + " seed=" + std::to_string(seed + i),
                  ledger);
  }
  SetLogLevel(log_level);
  return ledger;
}

TEST(MilpDifferentialTest, RandomModels) {
  const Ledger ledger = RunFamily("random", RandomModel, 40, 7000);
  EXPECT_EQ(ledger.total(), 0) << ledger.Summary();
  EXPECT_GT(ledger.statuses.count(SolveStatus::kOptimal), 0u);
  EXPECT_GT(ledger.statuses.count(SolveStatus::kNoIncumbent), 0u);
}

TEST(MilpDifferentialTest, PresolveOffsetModels) {
  const Ledger ledger =
      RunFamily("presolve-offset", PresolveOffsetModel, 30, 8000);
  EXPECT_EQ(ledger.total(), 0) << ledger.Summary();
  EXPECT_GT(ledger.statuses.count(SolveStatus::kGapMet), 0u);
}

TEST(MilpDifferentialTest, MixedSignComponentModels) {
  const Ledger ledger =
      RunFamily("mixed-sign-components", MixedSignComponentsModel, 30, 9000);
  EXPECT_EQ(ledger.total(), 0) << ledger.Summary();
  EXPECT_GT(ledger.split_solves, 0);
  EXPECT_GT(ledger.statuses.count(SolveStatus::kGapMet), 0u);
}

TEST(MilpDifferentialTest, InfeasibleModels) {
  const Ledger ledger = RunFamily("infeasible", InfeasibleModel, 20, 10000);
  EXPECT_EQ(ledger.total(), 0) << ledger.Summary();
  EXPECT_GT(ledger.statuses.count(SolveStatus::kInfeasible), 0u);
}

TEST(MilpDifferentialTest, UnboundedModels) {
  const Ledger ledger = RunFamily("unbounded", UnboundedModel, 20, 11000);
  EXPECT_EQ(ledger.total(), 0) << ledger.Summary();
  EXPECT_GT(ledger.statuses.count(SolveStatus::kUnbounded), 0u);
}

}  // namespace
}  // namespace tetrisched
