// The simulator workload: sim_churn_exact.
//
// Each repetition generates its inputs (workload, Rayon admission, fault
// schedule, scheduler) and runs Simulator::Run with a TimedPolicy between
// the simulator and TetriScheduler. Repetitions continue until the run's
// time is used; end-to-end metrics are taken over all repetitions. A traced
// run instead makes one untraced and one traced repetition (their
// difference is the tracing overhead) and replays a sample of the traced
// repetition's cycles through the solver layers one by one.
#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "perfbench/layers.h"
#include "perfbench/report.h"
#include "src/sim/faults.h"
#include "src/sim/simulator.h"
#include "src/workload/workload.h"

namespace perfbench {
namespace {

using namespace tetrisched;

// The instance is pinned: every run simulates the same jobs and the same
// fault schedule, so the solver does identical work on every run and
// wall-clock differences are the program's speed alone.
constexpr uint64_t kInstanceSeed = 1000;
constexpr int kJobs = 50;
constexpr int kRacks = 8;  // RC256 scaled: 8 racks x 4 nodes
constexpr int kNodesPerRack = 4;
// Set-up repetitions measured before the first simulation.
constexpr int kSetupRepeats = 51;
// Replay at most this many cycles of the traced repetition.
constexpr int kReplayCycles = 48;

WorkloadParams ChurnWorkload() {
  WorkloadParams params;
  params.kind = WorkloadKind::kGsMix;
  params.seed = kInstanceSeed;
  params.num_jobs = kJobs;
  return params;
}

FaultModelParams ChurnFaults() {
  FaultModelParams faults;
  faults.seed = kInstanceSeed + 42;
  faults.horizon = 6000;
  faults.mtbf = 600.0;
  faults.mttr = 60.0;
  faults.rack_burst_prob = 0.1;
  faults.straggler_prob = 0.2;
  faults.straggler_slowdown = 2.0;
  return faults;
}

TetriSchedConfig ChurnScheduler() {
  TetriSchedConfig config = TetriSchedConfig::Full(/*plan_ahead=*/96);
  config.quantum = 8;
  config.milp.max_nodes = 1500;
  config.milp.num_threads = 1;
  // Never binds: the gap, node and stall limits end every solve, so the
  // solver's work does not depend on how fast the machine is.
  config.milp.time_limit_seconds = 3600.0;
  return config;
}

// Where a repetition's set-up time went (workload and rayon layers).
struct SetupInfo {
  double generate_s = 0.0;
  double admission_s = 0.0;
  double total_s = 0.0;
  int reservations_wanted = 0;
  int reservations_accepted = 0;
};

// One repetition's freshly generated inputs.
struct SimSetup {
  std::vector<Job> jobs;
  std::unique_ptr<RayonAdmission> rayon;
  FaultSchedule faults;
  std::unique_ptr<TetriScheduler> scheduler;
  SetupInfo info;
};

SimSetup MakeSetup(const Cluster& cluster) {
  SimSetup setup;
  const Clock::time_point start = Clock::now();
  setup.jobs = GenerateWorkload(cluster, ChurnWorkload());
  setup.info.generate_s = SecondsSince(start);
  for (const Job& job : setup.jobs) {
    setup.info.reservations_wanted += job.wants_reservation ? 1 : 0;
  }
  const Clock::time_point admission_start = Clock::now();
  setup.rayon = std::make_unique<RayonAdmission>(cluster.num_nodes());
  setup.info.reservations_accepted =
      ApplyAdmission(cluster, setup.jobs, setup.rayon.get());
  setup.info.admission_s = SecondsSince(admission_start);
  setup.faults = GenerateFaultSchedule(cluster, ChurnFaults());
  setup.scheduler = std::make_unique<TetriScheduler>(cluster, ChurnScheduler());
  setup.info.total_s = SecondsSince(start);
  return setup;
}

struct SimRep {
  SimMetrics metrics;
  double run_s = 0.0;  // Simulator::Run wall time
  std::vector<CycleRecord> cycles;
  std::vector<CycleCapture> captures;
};

SimRep RunRep(const Cluster& cluster, SimSetup setup, bool capture) {
  SimConfig config;
  config.node_failures = setup.faults.failures;
  config.stragglers = setup.faults.stragglers;
  config.rayon = setup.rayon.get();
  config.provenance = SimConfig::ProvenanceMode::kOff;
  TimedPolicy policy(*setup.scheduler, capture);
  Simulator sim(cluster, policy, std::move(setup.jobs), config);
  SimRep rep;
  const Clock::time_point start = Clock::now();
  rep.metrics = sim.Run();
  rep.run_s = SecondsSince(start);
  rep.cycles = policy.cycles();
  rep.captures = policy.captures();
  return rep;
}

int ResolvedJobs(const SimMetrics& metrics) {
  int resolved = 0;
  for (const JobOutcome& outcome : metrics.outcomes) {
    resolved += outcome.completed || outcome.dropped ? 1 : 0;
  }
  return resolved;
}

// Correctness checks every repetition must pass.
void CheckRep(const SimRep& rep, Report& report) {
  const SimMetrics& m = rep.metrics;
  const int jobs = static_cast<int>(m.outcomes.size());
  const int resolved = ResolvedJobs(m);
  report.attempted += jobs;
  report.failed += jobs - resolved;
  report.Check(resolved == jobs, "every job completed or dropped (" +
                                     std::to_string(resolved) + "/" +
                                     std::to_string(jobs) + ")");
  report.Check(m.validator_violations == 0,
               "zero validator violations (saw " +
                   std::to_string(m.validator_violations) + ")");
  report.Check(m.belief_invariant_violations == 0,
               "zero belief-invariant violations (saw " +
                   std::to_string(m.belief_invariant_violations) + ")");
  const double slo = 100.0 * m.TotalSloAttainment();
  report.Check(slo >= 0.0 && slo <= 100.0, "SLO attainment within [0, 100]");
  // The decorator sees every cycle the simulator counts as a fallback.
  int fallbacks = 0;
  for (const CycleRecord& cycle : rep.cycles) {
    fallbacks += cycle.stats.ladder_rung > 0 ? 1 : 0;
  }
  report.Check(fallbacks == m.fallback_cycles,
               "decorator fallback count matches SimMetrics");
}

int64_t BbNodes(const SimRep& rep) {
  int64_t nodes = 0;
  for (const CycleRecord& cycle : rep.cycles) {
    nodes += cycle.stats.milp_nodes;
  }
  return nodes;
}

// Work-bounded solves: two repetitions of the churn instance must make
// exactly the same decisions, traced or not.
void CheckSameDecisions(const SimRep& a, const SimRep& b, Report& report) {
  report.Check(a.metrics.TotalSloAttainment() ==
                       b.metrics.TotalSloAttainment() &&
                   a.metrics.MeanBestEffortLatency() ==
                       b.metrics.MeanBestEffortLatency() &&
                   BbNodes(a) == BbNodes(b) && a.cycles.size() == b.cycles.size(),
               "churn repetitions are identical (work-bounded solves)");
}

// Cycles in which the scheduler had pending jobs to decide on.
std::vector<const CycleRecord*> Decisions(const SimRep& rep) {
  std::vector<const CycleRecord*> decisions;
  for (const CycleRecord& cycle : rep.cycles) {
    if (cycle.stats.pending_count > 0) {
      decisions.push_back(&cycle);
    }
  }
  return decisions;
}

void ReportEndToEnd(const std::vector<SimRep>& reps,
                    const std::vector<double>& setup_s, Report& report) {
  std::vector<double> slo;
  std::vector<double> be;
  std::vector<double> throughput;
  std::vector<double> cycle_ms;
  int decisions = 0;
  int milp_decisions = 0;
  for (const SimRep& rep : reps) {
    slo.push_back(100.0 * rep.metrics.TotalSloAttainment());
    be.push_back(rep.metrics.MeanBestEffortLatency());
    throughput.push_back(ResolvedJobs(rep.metrics) / rep.run_s);
    for (const CycleRecord* cycle : Decisions(rep)) {
      cycle_ms.push_back(1e3 * cycle->wall_s);
      ++decisions;
      milp_decisions += cycle->stats.ladder_rung == 0 ? 1 : 0;
    }
  }
  std::vector<double> run_s;
  for (const SimRep& rep : reps) {
    run_s.push_back(rep.run_s);
  }
  std::printf("Simulator::Run wall s over repetitions: min %.3f median %.3f "
              "max %.3f\n",
              Percentile(run_s, 0.0), Median(run_s), Percentile(run_s, 100.0));
  std::printf("decision ms deciles:");
  for (int d = 1; d < 10; ++d) {
    std::printf(" %.2f", Percentile(cycle_ms, 10.0 * d));
  }
  std::printf("\nend-to-end over %zu repetition(s), %d decision cycles\n",
              reps.size(), decisions);
  report.Set("setup_s", Median(setup_s), "s");
  report.Set("peak_rss_mb", PeakRssMb(), "MB");
  report.Set("slo_attainment_pct", Mean(slo), "%");
  report.Set("be_latency_s", Mean(be), "sim_s");
  report.Set("decision_ms_p50", Percentile(cycle_ms, 50.0), "ms");
  report.Set("throughput_per_s", Median(throughput), "1/s");
  report.Set("milp_cycle_share",
             decisions > 0 ? static_cast<double>(milp_decisions) / decisions
                           : 0.0,
             "share");
}

// Per-layer metrics of one traced repetition, plus the tiling checks.
void ReportLayers(const SimRep& rep, const SetupInfo& setup_info,
                  const ReplayStats& replay, double overhead_pct,
                  Report& report) {
  double oncycle_s = 0.0;
  double strl_gen_s = 0.0;
  double compile_s = 0.0;
  double solve_s = 0.0;
  double commit_s = 0.0;
  double decompose_ms = 0.0;
  int64_t nodes = 0;
  int budget_blown = 0;
  int certifier_rejects = 0;
  int tiling_errors = 0;
  std::vector<double> pending;
  std::vector<double> decision_ms;
  std::vector<double> plan_ahead;
  std::vector<double> vars;
  std::vector<double> rows;
  std::vector<double> components;
  for (const CycleRecord& cycle : rep.cycles) {
    const CycleStats& s = cycle.stats;
    const double phases = s.strl_gen_seconds + s.compile_seconds +
                          s.solver_seconds + s.commit_seconds;
    // Phases nest inside the cycle, which nests inside the decorator's
    // measurement of it.
    if (phases > s.cycle_seconds + 1e-6 || s.cycle_seconds > cycle.wall_s + 1e-6) {
      ++tiling_errors;
    }
    oncycle_s += cycle.wall_s;
    strl_gen_s += s.strl_gen_seconds;
    compile_s += s.compile_seconds;
    solve_s += s.solver_seconds;
    commit_s += s.commit_seconds;
    decompose_ms += s.decompose_ms;
    nodes += s.milp_nodes;
    budget_blown += s.budget_blown ? 1 : 0;
    certifier_rejects += s.certifier_rejects;
    if (s.pending_count > 0) {
      pending.push_back(s.pending_count);
      decision_ms.push_back(1e3 * cycle.wall_s);
      plan_ahead.push_back(static_cast<double>(s.effective_plan_ahead));
    }
    if (s.milp_vars > 0) {
      vars.push_back(s.milp_vars);
      rows.push_back(s.milp_constraints);
      components.push_back(s.milp_components);
    }
  }
  const double unattributed_s =
      oncycle_s - strl_gen_s - compile_s - solve_s - commit_s;
  const double self_s = rep.run_s - oncycle_s;
  report.Check(tiling_errors == 0,
               "cycle phases nest inside OnCycle (" +
                   std::to_string(tiling_errors) + " cycles off)");
  report.Check(self_s >= 0.0,
               "sim.self_s + core.oncycle_s equals Simulator::Run wall "
               "(OnCycle total must not exceed it)");
  std::printf("tiling: Run %.4f s = sim.self %.4f + OnCycle %.4f; OnCycle = "
              "strl_gen %.4f + compile %.4f + solve %.4f + commit %.4f + "
              "unattributed %.4f\n",
              rep.run_s, self_s, oncycle_s, strl_gen_s, compile_s, solve_s,
              commit_s, unattributed_s);

  report.Set("sim.self_s", self_s, "s");
  report.Set("sim.cycles", static_cast<double>(rep.cycles.size()), "count");
  report.Set("sim.failure_kills", rep.metrics.failure_kills, "count");
  report.Set("core.oncycle_s", oncycle_s, "s");
  report.Set("core.pending_mean", Mean(pending), "jobs");
  report.Set("core.decision_ms_p90", Percentile(decision_ms, 90.0), "ms");
  report.Set("core.unattributed_s", unattributed_s, "s");
  report.Set("core.commit_s", commit_s, "s");
  report.Set("core.budget_blown", budget_blown, "count");
  report.Set("core.effective_plan_ahead_mean", Mean(plan_ahead), "sim_s");
  report.Set("core.strl_gen_s", strl_gen_s, "s");
  report.Set("compiler.compile_s", compile_s, "s");
  report.Set("compiler.milp_vars_mean", Mean(vars), "count");
  report.Set("compiler.milp_rows_mean", Mean(rows), "count");
  report.Set("solver.solve_s", solve_s, "s");
  report.Set("solver.bb_nodes", static_cast<double>(nodes), "count");
  report.Set("solver.components_per_cycle", Mean(components), "count");
  report.Set("solver.decompose_ms", decompose_ms, "ms");
  report.Set("solver.certifier_rejects", certifier_rejects, "count");
  report.Set("solver.replay_cycles", replay.attempted, "count");
  report.Set("solver.replay_matched_share",
             replay.attempted > 0
                 ? static_cast<double>(replay.matched) / replay.attempted
                 : 0.0,
             "share");
  report.Set("solver.presolve_ms", Mean(replay.presolve_ms), "ms");
  report.Set("solver.replay_decompose_ms", Mean(replay.decompose_ms), "ms");
  report.Set("solver.root_lp_ms", Mean(replay.root_lp_ms), "ms");
  report.Set("solver.root_lp_pivots", Mean(replay.root_lp_pivots), "count");
  report.Set("solver.milp_solve_ms", Mean(replay.solve_ms), "ms");
  report.Set("solver.certify_ms", Mean(replay.certify_ms), "ms");
  report.Set("solver.pivots_per_node",
             replay.nodes > 0 ? static_cast<double>(replay.lp_iterations) /
                                    static_cast<double>(replay.nodes)
                              : 0.0,
             "count");
  report.Set("workload.generate_s", setup_info.generate_s, "s");
  report.Set("rayon.admission_s", setup_info.admission_s, "s");
  report.Set("rayon.accepted_share",
             setup_info.reservations_wanted > 0
                 ? static_cast<double>(setup_info.reservations_accepted) /
                       setup_info.reservations_wanted
                 : 0.0,
             "share");
  report.Set("trace.overhead_pct", overhead_pct, "%");
}

}  // namespace

void RunSimChurnExact(const RunOptions& options, Report& report) {
  const Cluster cluster = MakeUniformCluster(kRacks, kNodesPerRack);
  std::printf("sim_churn_exact: %d nodes, GS MIX x %d jobs (instance seed "
              "%llu), node churn on\n",
              cluster.num_nodes(), kJobs,
              static_cast<unsigned long long>(kInstanceSeed));
  const Clock::time_point run_start = Clock::now();

  std::vector<double> setup_s;
  for (int i = 0; i < kSetupRepeats; ++i) {
    setup_s.push_back(MakeSetup(cluster).info.total_s);
  }

  std::vector<SimRep> reps;
  if (!options.trace) {
    // At least one repetition; another only if it is expected to fit.
    double longest_rep_s = 0.0;
    do {
      const Clock::time_point rep_start = Clock::now();
      SimSetup setup = MakeSetup(cluster);
      setup_s.push_back(setup.info.total_s);
      reps.push_back(RunRep(cluster, std::move(setup), /*capture=*/false));
      CheckRep(reps.back(), report);
      longest_rep_s = std::max(longest_rep_s, SecondsSince(rep_start));
    } while (SecondsSince(run_start) + longest_rep_s <= options.seconds);
    for (const SimRep& rep : reps) {
      CheckSameDecisions(reps[0], rep, report);
    }
    ReportEndToEnd(reps, setup_s, report);
    return;
  }

  // Traced run: the untraced repetition is the baseline for the overhead.
  SimRep plain = RunRep(cluster, MakeSetup(cluster), /*capture=*/false);
  CheckRep(plain, report);
  SimSetup traced_setup = MakeSetup(cluster);
  const SetupInfo setup_info = traced_setup.info;
  SimRep traced = RunRep(cluster, std::move(traced_setup), /*capture=*/true);
  CheckRep(traced, report);
  CheckSameDecisions(plain, traced, report);
  const double overhead_pct = 100.0 * (traced.run_s - plain.run_s) / plain.run_s;
  std::printf("trace overhead: Run %.3f s traced vs %.3f s untraced (%+.2f%%)\n",
              traced.run_s, plain.run_s, overhead_pct);
  const double replay_budget_s =
      std::max(1.0, options.seconds - SecondsSince(run_start));
  ReplayStats replay = ReplayCycles(cluster, ChurnScheduler(), traced.cycles,
                                    traced.captures, kReplayCycles,
                                    replay_budget_s);
  std::printf("replay: %d cycles, %d matched the recorded model size\n",
              replay.attempted, replay.matched);
  ReportLayers(traced, setup_info, replay, overhead_pct, report);
  ReportIdleLayers(kServiceOnlyLayers, report);
}

}  // namespace perfbench
