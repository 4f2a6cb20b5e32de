// Cross-policy end-to-end invariants: random mixed workloads, optional fault
// injection, every scheduler stack. Whatever the policy decides, the
// simulated cluster must never oversubscribe, every job must terminate
// (complete or be dropped), and metrics must be internally consistent.

#include <cctype>
#include <ostream>

#include <gtest/gtest.h>

#include "src/baseline/capacity_scheduler.h"
#include "src/baseline/delay_scheduler.h"
#include "src/core/scheduler.h"
#include "src/sim/simulator.h"
#include "src/sim/trace.h"
#include "src/workload/workload.h"

namespace tetrisched {
namespace {

struct Scenario {
  int seed;
  WorkloadKind kind;
  int policy;  // 0 full, 1 NH, 2 NG, 3 NP, 4 CS, 5 delay
  bool inject_failures;
};

// Names each case after its scenario, e.g. seed1000_grmix_full_faults
// (ctest appends the printed value to the test name).
void PrintTo(const Scenario& scenario, std::ostream* os) {
  static const char* const kPolicies[] = {"full", "nh", "ng",
                                          "np",   "cs", "delay"};
  *os << "seed" << scenario.seed << "_";
  for (const char* c = ToString(scenario.kind); *c != '\0'; ++c) {
    if (*c != ' ') {
      *os << static_cast<char>(std::tolower(*c));
    }
  }
  *os << "_" << kPolicies[scenario.policy]
      << (scenario.inject_failures ? "_faults" : "_nofaults");
}

class InvariantTest : public ::testing::TestWithParam<Scenario> {};

TEST_P(InvariantTest, TerminationAndConsistency) {
  const Scenario& scenario = GetParam();
  Cluster cluster = MakeUniformCluster(4, 4, 2);

  WorkloadParams params;
  params.kind = scenario.kind;
  params.num_jobs = 25;
  params.seed = scenario.seed;
  params.estimate_error = (scenario.seed % 5 - 2) * 0.25;  // -50%..+50%
  params.arrivals =
      scenario.seed % 2 == 0 ? ArrivalPattern::kPoisson : ArrivalPattern::kBursty;
  std::vector<Job> jobs = GenerateWorkload(cluster, params);
  ApplyAdmission(cluster, jobs);

  std::unique_ptr<SchedulerPolicy> policy;
  switch (scenario.policy) {
    case 0:
      policy = std::make_unique<TetriScheduler>(cluster,
                                                TetriSchedConfig::Full());
      break;
    case 1:
      policy = std::make_unique<TetriScheduler>(
          cluster, TetriSchedConfig::NoHeterogeneity());
      break;
    case 2:
      policy = std::make_unique<TetriScheduler>(cluster,
                                                TetriSchedConfig::NoGlobal());
      break;
    case 3:
      policy = std::make_unique<TetriScheduler>(
          cluster, TetriSchedConfig::NoPlanAhead());
      break;
    case 4:
      policy = std::make_unique<CapacityScheduler>(cluster);
      break;
    default:
      policy = std::make_unique<DelayScheduler>(cluster,
                                                DelaySchedulerConfig{30});
      break;
  }

  SimTrace trace;
  SimConfig config;
  config.trace = &trace;
  if (scenario.inject_failures) {
    config.node_failures = {{100, 1, 300}, {200, 9, kTimeNever}};
  }
  Simulator sim(cluster, *policy, jobs, config);
  SimMetrics metrics = sim.Run();

  // 1. Termination: every job completed or (SLO only) dropped.
  ASSERT_EQ(metrics.outcomes.size(), jobs.size());
  for (const JobOutcome& outcome : metrics.outcomes) {
    EXPECT_TRUE(outcome.completed || outcome.dropped)
        << "job " << outcome.id << " never terminated under "
        << policy->name();
    if (outcome.dropped) {
      EXPECT_TRUE(outcome.is_slo());  // only deadline-hopeless jobs drop
    }
    if (outcome.completed) {
      EXPECT_GE(outcome.start_time, outcome.submit);
      EXPECT_GT(outcome.completion, outcome.start_time);
    }
  }

  // 2. Node accounting: starts and releases balance out in the trace.
  int started_nodes = 0;
  int released_nodes = 0;
  for (const TraceEvent& event : trace.events()) {
    switch (event.kind) {
      case TraceEventKind::kStart:
        started_nodes += event.count;
        break;
      case TraceEventKind::kComplete:
      case TraceEventKind::kPreempt:
      case TraceEventKind::kFailureKill:
        released_nodes += event.count;
        break;
      default:
        break;
    }
  }
  EXPECT_EQ(started_nodes, released_nodes);

  // 3. Metrics sanity.
  EXPECT_GE(metrics.utilization, 0.0);
  EXPECT_LE(metrics.utilization, 1.0 + 1e-9);
  EXPECT_GE(metrics.TotalSloAttainment(), 0.0);
  EXPECT_LE(metrics.TotalSloAttainment(), 1.0);
  EXPECT_GT(metrics.makespan, 0);
}

std::vector<Scenario> AllScenarios() {
  std::vector<Scenario> scenarios;
  int seed = 0;
  for (WorkloadKind kind : {WorkloadKind::kGrMix, WorkloadKind::kGsHet}) {
    for (int policy = 0; policy < 6; ++policy) {
      scenarios.push_back({1000 + seed++, kind, policy, policy % 2 == 0});
    }
  }
  return scenarios;
}

INSTANTIATE_TEST_SUITE_P(AllPolicies, InvariantTest,
                         ::testing::ValuesIn(AllScenarios()));

}  // namespace
}  // namespace tetrisched
