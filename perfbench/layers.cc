#include "perfbench/layers.h"

#include <sys/resource.h>

#include <algorithm>
#include <map>
#include <numeric>
#include <optional>

#include "src/cluster/availability.h"
#include "src/common/bytes.h"
#include "src/compiler/compiler.h"
#include "src/core/strl_gen.h"
#include "src/solver/certify.h"
#include "src/solver/decompose.h"
#include "src/solver/milp.h"
#include "src/solver/presolve.h"
#include "src/solver/simplex.h"

namespace perfbench {

using namespace tetrisched;

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const double rank = p / 100.0 * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(rank);
  const size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (rank - static_cast<double>(lo)) * (values[hi] - values[lo]);
}

double Median(std::vector<double> values) {
  return Percentile(std::move(values), 50.0);
}

double Mean(const std::vector<double>& values) {
  if (values.empty()) {
    return 0.0;
  }
  return std::accumulate(values.begin(), values.end(), 0.0) /
         static_cast<double>(values.size());
}

SchedulerPolicy::Decision TimedPolicy::OnCycle(
    SimTime now, const std::vector<const Job*>& pending,
    const std::vector<RunningHold>& running) {
  if (capture_) {
    CycleCapture capture;
    capture.cycle = cycles_.size();
    capture.now = now;
    capture.pending.reserve(pending.size());
    for (const Job* job : pending) {
      capture.pending.push_back(*job);
    }
    capture.running = running;
    capture.plan_ahead = inner_.effective_plan_ahead();
    capture.warm_state = inner_.ExportDurableState();
    captures_.push_back(std::move(capture));
  }
  const Clock::time_point start = Clock::now();
  Decision decision = inner_.OnCycle(now, pending, running);
  cycles_.push_back({SecondsSince(start), decision.stats});
  return decision;
}

void CountingStorage::AppendJournal(std::string_view bytes) {
  const Clock::time_point start = Clock::now();
  inner_.AppendJournal(bytes);
  counts_.append_s += SecondsSince(start);
  ++counts_.appends;
  counts_.append_bytes += static_cast<int64_t>(bytes.size());
}

void CountingStorage::WriteSnapshot(std::string_view bytes) {
  const Clock::time_point start = Clock::now();
  inner_.WriteSnapshot(bytes);
  counts_.snapshot_s += SecondsSince(start);
  ++counts_.snapshots;
}

namespace {

double MsSince(Clock::time_point start) { return 1e3 * SecondsSince(start); }

// Decodes the warm-start map at the front of TetriScheduler's durable state
// (the AIMD suffix after it is not needed to rebuild the warm start).
LeafGrants DecodeWarmStart(std::string_view blob) {
  LeafGrants grants;
  if (blob.empty()) {
    return grants;
  }
  ByteReader reader(blob);
  const uint32_t num_tags = reader.GetU32();
  for (uint32_t i = 0; reader.ok() && i < num_tags; ++i) {
    const LeafTag tag = reader.GetI64();
    const uint32_t num_counts = reader.GetU32();
    std::map<PartitionId, int>& counts = grants[tag];
    for (uint32_t j = 0; reader.ok() && j < num_counts; ++j) {
      const PartitionId partition = static_cast<PartitionId>(reader.GetI64());
      counts[partition] = static_cast<int>(reader.GetI64());
    }
  }
  return reader.ok() ? grants : LeafGrants{};
}

// Rebuilds the cycle's MILP exactly as TetriScheduler's global cycle does:
// availability from the running holds, one STRL expression per pending job
// under a SUM, compiled against the availability grid.
std::optional<CompiledStrl> RebuildModel(const Cluster& cluster,
                                         const TetriSchedConfig& config,
                                         const CycleCapture& capture) {
  TimeGrid grid;
  grid.start = QuantizeDown(capture.now, config.quantum);
  grid.quantum = config.quantum;
  grid.num_slices = static_cast<int>(QuantaCovering(
      capture.now + capture.plan_ahead - grid.start, config.quantum));
  AvailabilityGrid availability(cluster, grid);
  for (const RunningHold& hold : capture.running) {
    const SimTime end = std::max(hold.expected_end, capture.now + config.quantum);
    for (const auto& [partition, count] : hold.counts) {
      availability.Reduce(partition, {capture.now, end}, count);
    }
  }
  StrlGenerator generator(
      cluster, StrlGenOptions{capture.plan_ahead, config.quantum,
                              config.heterogeneity_aware,
                              config.be_decay_horizon});
  OptionRegistry registry;
  std::vector<StrlExpr> exprs;
  for (const Job& job : capture.pending) {
    std::optional<StrlExpr> expr =
        generator.GenerateJobExpr(job, capture.now, &registry);
    if (expr.has_value()) {
      exprs.push_back(std::move(*expr));
    }
  }
  if (exprs.empty()) {
    return std::nullopt;
  }
  StrlExpr root = exprs.size() == 1 ? std::move(exprs[0]) : Sum(std::move(exprs));
  return StrlCompiler(availability).Compile(root);
}

}  // namespace

ReplayStats ReplayCycles(const Cluster& cluster, const TetriSchedConfig& config,
                         const std::vector<CycleRecord>& cycles,
                         const std::vector<CycleCapture>& captures,
                         int max_cycles, double budget_s) {
  ReplayStats stats;
  std::vector<const CycleCapture*> eligible;
  for (const CycleCapture& capture : captures) {
    if (cycles[capture.cycle].stats.milp_vars > 0) {
      eligible.push_back(&capture);
    }
  }
  const size_t take = std::min<size_t>(eligible.size(), max_cycles);
  const Clock::time_point replay_start = Clock::now();
  for (size_t i = 0; i < take && SecondsSince(replay_start) < budget_s; ++i) {
    const CycleCapture& capture = *eligible[i * eligible.size() / take];
    const CycleStats& recorded = cycles[capture.cycle].stats;
    ++stats.attempted;
    std::optional<CompiledStrl> compiled = RebuildModel(cluster, config, capture);
    if (!compiled.has_value() ||
        compiled->model().num_vars() != recorded.milp_vars ||
        compiled->model().num_constraints() != recorded.milp_constraints) {
      continue;
    }
    ++stats.matched;
    const MilpModel& model = compiled->model();

    Clock::time_point start = Clock::now();
    Presolver presolver(model);
    stats.presolve_ms.push_back(MsSince(start));
    if (!presolver.infeasible()) {
      start = Clock::now();
      Decomposition decomposition = DetectComponents(presolver.reduced());
      stats.decompose_ms.push_back(MsSince(start));
      start = Clock::now();
      LpSolver lp(presolver.reduced(), config.milp.lp);
      LpResult root = lp.Solve();
      stats.root_lp_ms.push_back(MsSince(start));
      stats.root_lp_pivots.push_back(root.iterations);
    }

    // The full solve with the options the cycle ran under (adapted gap
    // included), seeded with the warm start the scheduler held.
    MilpOptions options = config.milp;
    if (recorded.budget_seconds > 0.0) {
      options.rel_gap = recorded.effective_rel_gap;
    }
    std::vector<double> warm;
    if (config.enable_warm_start) {
      LeafGrants grants = DecodeWarmStart(capture.warm_state);
      if (!grants.empty()) {
        warm = compiled->BuildWarmStart(grants);
      }
    }
    start = Clock::now();
    MilpResult result = MilpSolver(model, options).Solve(warm);
    stats.solve_ms.push_back(MsSince(start));
    stats.nodes += result.nodes;
    stats.lp_iterations += result.lp_iterations;
    if (result.HasSolution()) {
      start = Clock::now();
      CertifyPlan(model, result, options);
      stats.certify_ms.push_back(MsSince(start));
    }
  }
  return stats;
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

}  // namespace perfbench
