// Cycle deadline enforcement tests (DESIGN.md §13): CancelToken plumbing,
// mid-LP cooperative cancellation, deadline-pool donation, the AIMD overload
// controller, the independent plan certifier, and crash-recovery round-trips
// of adapted plan-ahead state.

#include <gtest/gtest.h>

#include <chrono>
#include <string>
#include <vector>

#include "src/common/budget.h"
#include "src/common/bytes.h"
#include "src/common/metrics.h"
#include "src/common/rng.h"
#include "src/core/scheduler.h"
#include "src/solver/certify.h"
#include "src/solver/milp.h"
#include "src/solver/simplex.h"

namespace tetrisched {
namespace {

// Sanitizer builds run the solver an order of magnitude slower, so wall-clock
// assertions get a wider allowance there.
#if defined(__SANITIZE_THREAD__) || defined(__SANITIZE_ADDRESS__)
constexpr double kWallClockSlop = 2.0;
#else
#if defined(__has_feature)
#if __has_feature(thread_sanitizer) || __has_feature(address_sanitizer)
constexpr double kWallClockSlop = 2.0;
#else
constexpr double kWallClockSlop = 0.25;
#endif
#else
constexpr double kWallClockSlop = 0.25;
#endif
#endif

double SecondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

// Dense integer packing model whose *root LP alone* far exceeds a
// millisecond-scale deadline: every row touches every variable, so each
// simplex pivot is O(n^2) against the dense basis inverse. Pre-deadline
// enforcement, nothing could interrupt the solve before the first B&B node
// boundary.
MilpModel AdversarialModel(int num_vars, int num_rows, uint64_t seed) {
  Rng rng(seed);
  MilpModel model;
  for (int i = 0; i < num_vars; ++i) {
    model.AddIntegerVar(0.0, 3.0);
    model.AddObjectiveTerm(i, rng.UniformReal(1.0, 10.0));
  }
  for (int r = 0; r < num_rows; ++r) {
    std::vector<LinTerm> row;
    row.reserve(num_vars);
    for (int i = 0; i < num_vars; ++i) {
      row.push_back({i, rng.UniformReal(0.1, 4.0)});
    }
    model.AddConstraint(std::move(row), ConstraintSense::kLessEqual,
                        rng.UniformReal(num_vars * 0.5, num_vars * 2.0));
  }
  return model;
}

TEST(CancelTokenTest, UnarmedNeverExpires) {
  CancelToken token;
  EXPECT_FALSE(token.armed());
  EXPECT_FALSE(token.Expired());
  EXPECT_EQ(token.deadline_nanos(), CancelToken::kUnarmed);
}

TEST(CancelTokenTest, ArmCancelDisarm) {
  CancelToken token;
  token.ArmAfterSeconds(1000.0);
  EXPECT_TRUE(token.armed());
  EXPECT_FALSE(token.Expired());
  EXPECT_GT(token.RemainingSeconds(), 900.0);
  token.Cancel();
  EXPECT_TRUE(token.Expired());
  token.Disarm();
  EXPECT_FALSE(token.armed());
  EXPECT_FALSE(token.Expired());
}

TEST(CancelTokenTest, EarliestDeadlineComposes) {
  CancelToken far;
  CancelToken composed;
  far.ArmAfterSeconds(1000.0);
  composed.ArmAfterSeconds(2000.0);
  if (far.deadline_nanos() < composed.deadline_nanos()) {
    composed.ArmAtNanos(far.deadline_nanos());
  }
  EXPECT_EQ(composed.deadline_nanos(), far.deadline_nanos());
}

TEST(DeadlinePoolTest, EarlyFinisherDonatesTime) {
  // Two equal-weight claimants against a 100 s pool. Sequentially, the first
  // gets ~half; once it releases, the second's share is computed against the
  // remaining outstanding weight and absorbs the donated half.
  DeadlinePool pool(100.0, 2.0);
  double first = pool.AcquireSeconds(1.0, 0.001);
  EXPECT_NEAR(first, 50.0, 1.0);
  pool.Release(1.0);
  double second = pool.AcquireSeconds(1.0, 0.001);
  EXPECT_GT(second, 90.0);
  pool.Release(1.0);
}

TEST(DeadlinePoolTest, FloorAppliesWhenExhausted) {
  DeadlinePool pool(0.0, 4.0);
  EXPECT_DOUBLE_EQ(pool.AcquireSeconds(1.0, 0.005), 0.005);
  pool.Release(1.0);
}

TEST(AimdControllerTest, TrajectoryIsDeterministic) {
  AimdOptions options;
  options.shrink_after = 2;
  options.shrink_factor = 0.5;
  options.restore_after = 2;
  options.restore_step = 0.25;
  options.min_level = 0.0;
  AimdController aimd(options);

  // Two blown cycles -> one shrink (streak resets on adaptation).
  EXPECT_EQ(aimd.Observe(true), 0);
  EXPECT_EQ(aimd.Observe(true), -1);
  EXPECT_DOUBLE_EQ(aimd.level(), 0.5);
  EXPECT_EQ(aimd.Observe(true), 0);
  EXPECT_EQ(aimd.Observe(true), -1);
  EXPECT_DOUBLE_EQ(aimd.level(), 0.25);
  // Healthy cycles restore additively.
  EXPECT_EQ(aimd.Observe(false), 0);
  EXPECT_EQ(aimd.Observe(false), 1);
  EXPECT_DOUBLE_EQ(aimd.level(), 0.5);
  EXPECT_EQ(aimd.Observe(false), 0);
  EXPECT_EQ(aimd.Observe(false), 1);
  EXPECT_DOUBLE_EQ(aimd.level(), 0.75);
  // A blown cycle resets the healthy streak.
  EXPECT_EQ(aimd.Observe(false), 0);
  EXPECT_EQ(aimd.Observe(true), 0);
  EXPECT_EQ(aimd.Observe(false), 0);
  EXPECT_EQ(aimd.Observe(false), 1);
  EXPECT_DOUBLE_EQ(aimd.level(), 1.0);
  // Saturated at 1: healthy cycles are no-ops.
  EXPECT_EQ(aimd.Observe(false), 0);
  EXPECT_EQ(aimd.Observe(false), 0);
  EXPECT_DOUBLE_EQ(aimd.level(), 1.0);
}

TEST(AimdControllerTest, RestoreStateRoundTrips) {
  AimdController aimd;
  aimd.Observe(true);
  AimdController restored;
  restored.RestoreState(0.375, 2, 0);
  EXPECT_DOUBLE_EQ(restored.level(), 0.375);
  EXPECT_EQ(restored.blown_streak(), 2);
  EXPECT_EQ(restored.healthy_streak(), 0);
}

TEST(CancelTest, ExpiredTokenAbandonsLpImmediately) {
  MilpModel model = AdversarialModel(120, 120, 7);
  CancelToken cancel;
  cancel.Cancel();
  LpOptions options;
  options.cancel = &cancel;
  LpResult result = LpSolver(model, options).Solve();
  EXPECT_EQ(result.status, LpStatus::kCancelled);
  EXPECT_TRUE(result.values.empty());
}

TEST(CancelTest, DeadlineHonoredMidLpSingleThread) {
  // The root LP of this model takes far longer than the 50 ms limit, so the
  // solve can only return on time if the deadline fires *inside* the LP.
  MilpModel model = AdversarialModel(400, 400, 11);
  MilpOptions options;
  options.time_limit_seconds = 0.05;
  options.rel_gap = 0.0;
  options.abs_gap = 1e-9;
  options.stall_node_limit = 0;
  options.max_nodes = 1000000;
  options.num_threads = 1;
  auto start = std::chrono::steady_clock::now();
  MilpResult result = MilpSolver(model, options).Solve();
  double elapsed = SecondsSince(start);
  EXPECT_LE(elapsed, 2 * options.time_limit_seconds + kWallClockSlop);
  // Cut off this early the solve reports a limit, never a proven optimum.
  EXPECT_NE(result.status, MilpStatus::kOptimal);
  if (result.HasSolution()) {
    // Whatever incumbent survived the cut must still certify clean.
    CertifyReport report = CertifyPlan(model, result, options);
    EXPECT_TRUE(report.ok) << report.failure;
  }
}

TEST(CancelTest, DeadlineHonoredMidLpParallel) {
  MilpModel model = AdversarialModel(400, 400, 13);
  MilpOptions options;
  options.time_limit_seconds = 0.05;
  options.rel_gap = 0.0;
  options.abs_gap = 1e-9;
  options.stall_node_limit = 0;
  options.max_nodes = 1000000;
  options.num_threads = 4;
  auto start = std::chrono::steady_clock::now();
  MilpResult result = MilpSolver(model, options).Solve();
  double elapsed = SecondsSince(start);
  EXPECT_LE(elapsed, 2 * options.time_limit_seconds + kWallClockSlop);
  EXPECT_NE(result.status, MilpStatus::kOptimal);
  if (result.HasSolution()) {
    CertifyReport report = CertifyPlan(model, result, options);
    EXPECT_TRUE(report.ok) << report.failure;
  }
}

TEST(CancelTest, ExternalTokenCutsLongConfiguredLimit) {
  // An already-expired external token overrides a generous configured limit:
  // the composed deadline is the earlier of the two.
  MilpModel model = AdversarialModel(200, 200, 17);
  CancelToken external;
  external.Cancel();
  MilpOptions options;
  options.time_limit_seconds = 30.0;
  options.cancel = &external;
  auto start = std::chrono::steady_clock::now();
  MilpResult result = MilpSolver(model, options).Solve();
  EXPECT_LE(SecondsSince(start), kWallClockSlop);
  // Only the trivial zero-clamped fallback can exist this early; the solve
  // must say so, and the scheduler treats kNoIncumbent as "no schedule".
  EXPECT_EQ(result.solve_status, SolveStatus::kNoIncumbent);
  if (result.HasSolution()) {
    EXPECT_DOUBLE_EQ(result.objective, 0.0);
  }
}

TEST(CancelTest, DistantTokenPreservesDeterministicSearch) {
  // An armed-but-far token must take the exact same search path as no token:
  // the poll sites only read the clock, never change pivoting or branching.
  MilpModel model = AdversarialModel(40, 20, 23);
  MilpOptions base;
  base.num_threads = 1;
  base.time_limit_seconds = 30.0;
  MilpResult plain = MilpSolver(model, base).Solve();

  CancelToken distant;
  distant.ArmAfterSeconds(3600.0);
  MilpOptions with_token = base;
  with_token.cancel = &distant;
  MilpResult tokened = MilpSolver(model, with_token).Solve();

  EXPECT_EQ(plain.status, tokened.status);
  EXPECT_EQ(plain.nodes, tokened.nodes);
  EXPECT_DOUBLE_EQ(plain.objective, tokened.objective);
  ASSERT_EQ(plain.values.size(), tokened.values.size());
  for (size_t i = 0; i < plain.values.size(); ++i) {
    EXPECT_DOUBLE_EQ(plain.values[i], tokened.values[i]) << "var " << i;
  }
}

TEST(BlandRuleTest, ThresholdIsConfigurableAndCounted) {
  // A zero threshold engages Bland's rule from the first pivot; the
  // activation counter must tick and the solve must still reach the optimum.
  MilpModel model;
  for (int i = 0; i < 6; ++i) {
    model.AddContinuousVar(0.0, 1.0);
    model.AddObjectiveTerm(i, 1.0 + 0.1 * i);
  }
  for (int i = 0; i + 1 < 6; ++i) {
    model.AddConstraint({{i, 1.0}, {i + 1, 1.0}},
                        ConstraintSense::kLessEqual, 1.0);
  }
  Counter* activations =
      GlobalMetrics().GetCounter("tetrisched_solver_bland_activations_total");
  int64_t before = activations->value();
  LpOptions options;
  options.bland_pivot_limit = 0;
  LpResult result = LpSolver(model, options).Solve();
  EXPECT_EQ(result.status, LpStatus::kOptimal);
  EXPECT_GT(activations->value(), before);
}

TEST(CertifyTest, AcceptsHonestIncumbent) {
  MilpModel model = AdversarialModel(30, 10, 29);
  MilpOptions options;
  options.num_threads = 1;
  MilpResult result = MilpSolver(model, options).Solve();
  ASSERT_TRUE(result.HasSolution());
  CertifyReport report = CertifyPlan(model, result, options);
  EXPECT_TRUE(report.ok) << report.failure;
}

TEST(CertifyTest, RejectsCorruptedIncumbent) {
  MilpModel model = AdversarialModel(30, 10, 31);
  MilpOptions options;
  options.num_threads = 1;
  MilpResult result = MilpSolver(model, options).Solve();
  ASSERT_TRUE(result.HasSolution());
  ASSERT_FALSE(result.values.empty());

  // Out-of-bounds / non-integral value.
  MilpResult torn = result;
  torn.values[0] = 97.5;
  EXPECT_FALSE(CertifyPlan(model, torn, options).ok);

  // Objective claim no longer matches the values.
  MilpResult lied = result;
  lied.objective += 1000.0;
  EXPECT_FALSE(CertifyPlan(model, lied, options).ok);

  // Wrong dimension (a stitching bug's signature).
  MilpResult truncated = result;
  truncated.values.pop_back();
  EXPECT_FALSE(CertifyPlan(model, truncated, options).ok);

  // Claimed-optimal status whose bound cannot cover the incumbent.
  MilpResult bogus_gap = result;
  bogus_gap.status = MilpStatus::kOptimal;
  bogus_gap.best_bound = result.objective - 100.0;
  EXPECT_FALSE(CertifyPlan(model, bogus_gap, options).ok);
}

TEST(CertifyTest, RejectCountsUnderTheFirstFailedCheck) {
  MilpModel model = AdversarialModel(30, 10, 31);
  MilpOptions options;
  options.num_threads = 1;
  MilpResult result = MilpSolver(model, options).Solve();
  ASSERT_TRUE(result.HasSolution());
  auto series = [](const std::string& reason) {
    return GlobalMetrics().GetCounter(
        "tetrisched_certifier_rejects_total{reason=\"" + reason + "\"}");
  };
  const std::vector<std::string> reasons = {
      "missing_incumbent", "non_finite", "bound", "integrality",
      "row", "objective", "bound_below_incumbent", "gap"};
  std::vector<int64_t> before;
  for (const std::string& reason : reasons) {
    before.push_back(series(reason)->value());
  }
  Counter* total =
      GlobalMetrics().GetCounter("tetrisched_certifier_rejects_total");
  const int64_t total_before = total->value();

  // A forged bound below the incumbent under a proven-optimal claim: the
  // gap audit fails too, but the bound check fails first.
  MilpResult forged = result;
  forged.status = MilpStatus::kOptimal;
  forged.best_bound = result.objective - 100.0;
  EXPECT_FALSE(CertifyPlan(model, forged, options).ok);

  EXPECT_EQ(total->value(), total_before + 1);
  for (size_t i = 0; i < reasons.size(); ++i) {
    const int64_t bumped = reasons[i] == "bound_below_incumbent" ? 1 : 0;
    EXPECT_EQ(series(reasons[i])->value(), before[i] + bumped) << reasons[i];
  }
}

// ---------------------------------------------------------------------------
// Scheduler-level: AIMD adaptation under a blown budget and its crash
// round-trip through the durable-state blob.

Job MakeJob(JobId id, int k, SimDuration runtime, SimTime deadline) {
  Job job;
  job.id = id;
  job.type = JobType::kUnconstrained;
  job.k = k;
  job.submit = 0;
  job.actual_runtime = runtime;
  job.slowdown = 1.0;
  job.deadline = deadline;
  job.slo_class = SloClass::kSloAccepted;
  job.wants_reservation = true;
  return job;
}

TEST(SchedulerBudgetTest, BlownBudgetShrinksPlanAheadAndRoundTrips) {
  Cluster cluster = MakeUniformCluster(2, 4, 1);
  TetriSchedConfig config;
  config.plan_ahead = 96;
  config.quantum = 8;
  // A budget no real cycle can meet: every cycle observes blown and the
  // controller shrinks after each pair of them.
  config.budget.budget_seconds = 1e-9;
  config.budget.aimd.shrink_after = 2;
  TetriScheduler scheduler(cluster, config);
  EXPECT_EQ(scheduler.effective_plan_ahead(), config.plan_ahead);

  Job job = MakeJob(1, 3, 60, 100000);
  std::vector<const Job*> pending{&job};
  int adaptations = 0;
  for (int cycle = 0; cycle < 6; ++cycle) {
    auto decision = scheduler.OnCycle(cycle * 4, pending, {});
    EXPECT_TRUE(decision.stats.budget_blown);
    EXPECT_DOUBLE_EQ(decision.stats.budget_seconds, 1e-9);
    if (decision.stats.plan_ahead_adapted != 0) {
      ++adaptations;
      EXPECT_EQ(decision.stats.plan_ahead_adapted, -1);
    }
  }
  EXPECT_GE(adaptations, 2);
  EXPECT_LT(scheduler.effective_plan_ahead(), config.plan_ahead);
  EXPECT_LT(scheduler.aimd().level(), 1.0);
  // Shrunk windows stay quantum-aligned and at least one quantum wide (NP).
  EXPECT_GE(scheduler.effective_plan_ahead(), config.quantum);
  EXPECT_EQ(scheduler.effective_plan_ahead() % config.quantum, 0);

  // Crash round-trip: a fresh scheduler importing the blob resumes on the
  // adapted trajectory, not the configured defaults.
  std::string blob = scheduler.ExportDurableState();
  TetriScheduler recovered(cluster, config);
  recovered.ImportDurableState(blob);
  EXPECT_DOUBLE_EQ(recovered.aimd().level(), scheduler.aimd().level());
  EXPECT_EQ(recovered.aimd().blown_streak(), scheduler.aimd().blown_streak());
  EXPECT_EQ(recovered.effective_plan_ahead(),
            scheduler.effective_plan_ahead());
  EXPECT_DOUBLE_EQ(recovered.effective_rel_gap(),
                   scheduler.effective_rel_gap());
}

// A serving cycle that spent its budget before the solve (the cycle start
// is passed in from the caller) has its MILP cut off with no incumbent and
// ends on the greedy rung inside the budget. That is overload all the same:
// the cut-off counts toward the shrink streak, while budget_blown keeps
// meaning "wall clock past the budget".
TEST(SchedulerBudgetTest, SolverCutoffCountsTowardShrink) {
  Cluster cluster = MakeUniformCluster(2, 4, 1);
  TetriSchedConfig config;
  config.plan_ahead = 96;
  config.quantum = 8;
  config.budget.budget_seconds = 10.0;
  config.budget.aimd.shrink_after = 2;
  TetriScheduler scheduler(cluster, config);

  Job job = MakeJob(1, 3, 60, 100000);
  std::vector<const Job*> pending{&job};
  // 9.5 s of the 10 s budget already gone: past the 9 s solve reserve, so
  // the solver gets a zero limit, yet the cycle ends well inside 10 s.
  for (int cycle = 0; cycle < 2; ++cycle) {
    const auto cycle_start =
        std::chrono::steady_clock::now() - std::chrono::milliseconds(9500);
    auto decision = scheduler.OnCycle(cycle * 4, pending, {}, cycle_start);
    EXPECT_EQ(decision.stats.solve_status, SolveStatus::kNoIncumbent);
    EXPECT_TRUE(decision.stats.used_fallback);
    EXPECT_EQ(decision.stats.certifier_rejects, 0);
    EXPECT_FALSE(decision.stats.budget_blown);
    EXPECT_TRUE(decision.stats.solver_cutoff);
    EXPECT_EQ(decision.stats.plan_ahead_adapted, cycle == 0 ? 0 : -1);
  }
  EXPECT_LT(scheduler.effective_plan_ahead(), config.plan_ahead);

  // The same cycle started on entry solves normally and is healthy.
  TetriScheduler fresh(cluster, config);
  auto decision = fresh.OnCycle(0, pending, {});
  EXPECT_FALSE(decision.stats.solver_cutoff);
  EXPECT_FALSE(decision.stats.budget_blown);
  EXPECT_EQ(fresh.aimd().blown_streak(), 0);
  EXPECT_EQ(fresh.aimd().healthy_streak(), 1);
}

TEST(SchedulerBudgetTest, PreBudgetBlobStillImports) {
  // Blobs written before the budget subsystem end at the warm-start map;
  // importing one must neither warn-discard nor perturb the AIMD state.
  Cluster cluster = MakeUniformCluster(2, 4, 1);
  TetriScheduler scheduler(cluster, TetriSchedConfig::Full());
  ByteWriter writer;
  writer.PutU32(0);  // empty warm-start map, no AIMD suffix
  scheduler.ImportDurableState(writer.str());
  EXPECT_DOUBLE_EQ(scheduler.aimd().level(), 1.0);
  EXPECT_EQ(scheduler.effective_plan_ahead(), scheduler.config().plan_ahead);
}

TEST(SchedulerBudgetTest, ZeroBudgetKeepsSubsystemInert) {
  Cluster cluster = MakeUniformCluster(2, 4, 1);
  TetriSchedConfig config;  // budget_seconds defaults to 0
  TetriScheduler scheduler(cluster, config);
  Job job = MakeJob(1, 3, 60, 100000);
  std::vector<const Job*> pending{&job};
  auto decision = scheduler.OnCycle(0, pending, {});
  EXPECT_FALSE(decision.stats.budget_blown);
  EXPECT_DOUBLE_EQ(decision.stats.budget_seconds, 0.0);
  EXPECT_EQ(decision.stats.plan_ahead_adapted, 0);
  EXPECT_EQ(decision.stats.effective_plan_ahead, config.plan_ahead);
  EXPECT_EQ(scheduler.effective_plan_ahead(), config.plan_ahead);
}

TEST(SchedulerBudgetTest, CertifierLeavesHealthyPlansUntouched) {
  // certify_plans defaults on; a healthy cycle must still schedule and
  // report zero rejects.
  Cluster cluster = MakeUniformCluster(2, 4, 1);
  TetriScheduler scheduler(cluster, TetriSchedConfig::Full());
  ASSERT_TRUE(scheduler.config().certify_plans);
  Job job = MakeJob(1, 3, 60, 100000);
  std::vector<const Job*> pending{&job};
  auto decision = scheduler.OnCycle(0, pending, {});
  EXPECT_EQ(decision.stats.certifier_rejects, 0);
  EXPECT_EQ(decision.start_now.size(), 1u);
  EXPECT_EQ(decision.stats.ladder_rung, 0);
}

}  // namespace
}  // namespace tetrisched
