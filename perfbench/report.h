// Result of one benchmark run: named metrics with units, the operation
// counts, and the correctness checks that passed or failed.
#ifndef PERFBENCH_REPORT_H_
#define PERFBENCH_REPORT_H_

#include <cstdint>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

class Report {
 public:
  struct Metric {
    std::string name;
    double value = 0.0;
    std::string unit;
  };

  void Set(std::string name, double value, std::string unit) {
    metrics_.push_back({std::move(name), value, std::move(unit)});
  }

  // Records a correctness check; a failed one makes the run incorrect.
  void Check(bool ok, const std::string& what) {
    if (!ok) {
      std::fprintf(stderr, "perfbench: CHECK FAILED: %s\n", what.c_str());
      ++failures_;
    }
  }

  bool correct() const { return failures_ == 0; }
  const std::vector<Metric>& metrics() const { return metrics_; }

  int64_t attempted = 0;
  int64_t failed = 0;

 private:
  std::vector<Metric> metrics_;
  int failures_ = 0;
};

// Per-layer metrics of layers a workload never reaches. A traced run still
// reports them, as zero work, so every workload prints the same names.
struct LayerMetric {
  const char* name;
  const char* unit;
};

inline constexpr LayerMetric kSimOnlyLayers[] = {
    {"sim.self_s", "s"},
    {"sim.cycles", "count"},
    {"sim.failure_kills", "count"},
    {"core.oncycle_s", "s"},
    {"core.pending_mean", "jobs"},
    {"core.decision_ms_p90", "ms"},
    {"core.unattributed_s", "s"},
    {"core.commit_s", "s"},
    {"core.budget_blown", "count"},
    {"core.effective_plan_ahead_mean", "sim_s"},
    {"core.strl_gen_s", "s"},
    {"compiler.compile_s", "s"},
    {"compiler.milp_vars_mean", "count"},
    {"compiler.milp_rows_mean", "count"},
    {"solver.solve_s", "s"},
    {"solver.bb_nodes", "count"},
    {"solver.components_per_cycle", "count"},
    {"solver.decompose_ms", "ms"},
    {"solver.certifier_rejects", "count"},
    {"solver.replay_cycles", "count"},
    {"solver.replay_matched_share", "share"},
    {"solver.presolve_ms", "ms"},
    {"solver.replay_decompose_ms", "ms"},
    {"solver.root_lp_ms", "ms"},
    {"solver.root_lp_pivots", "count"},
    {"solver.milp_solve_ms", "ms"},
    {"solver.certify_ms", "ms"},
    {"solver.pivots_per_node", "count"},
    {"rayon.admission_s", "s"},
};

inline constexpr LayerMetric kServiceOnlyLayers[] = {
    {"service.cycle_cadence", "share"},
    {"service.queued_max", "jobs"},
    {"service.pending_max", "jobs"},
    {"service.admitted", "count"},
    {"service.rejected", "count"},
    {"service.admit_ceiling_rps", "1/s"},
    {"service.restart_s", "s"},
    {"service.peak_rss_mb", "MB"},
    {"client.rtt_ms_p50", "ms"},
    {"client.submit_ms_p90", "ms"},
    {"client.submit_ms_p99", "ms"},
    {"client.generator_late_ms_max", "ms"},
    {"journal.appends", "count"},
    {"journal.bytes", "bytes"},
    {"journal.append_ms_total", "ms"},
    {"snapshot.writes", "count"},
    {"snapshot.ms_total", "ms"},
};

template <size_t N>
void ReportIdleLayers(const LayerMetric (&layers)[N], Report& report) {
  for (const LayerMetric& layer : layers) {
    report.Set(layer.name, 0.0, layer.unit);
  }
}

// Workload entry points (sim_workloads.cc, service_workload.cc).
void RunSimChurnExact(const RunOptions& options, Report& report);
void RunServiceOpenLoop(const RunOptions& options, Report& report);

}  // namespace perfbench

#endif  // PERFBENCH_REPORT_H_
