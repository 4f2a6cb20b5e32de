// Layer probes for the repository benchmark.
//
// Everything here wraps a public entry point of the program from outside;
// nothing under src/ knows it is being measured:
//   * TimedPolicy      — a SchedulerPolicy decorator around
//                        TetriScheduler::OnCycle: wall time + CycleStats per
//                        cycle, and (traced runs) the cycle's inputs;
//   * CountingStorage  — a JournalStorage wrapper counting and timing the
//                        persist layer's appends and snapshot writes;
//   * ReplayCycles     — rebuilds captured cycle models through the public
//                        StrlGenerator/StrlCompiler API and times presolve,
//                        component detection, root LP, the full MILP solve
//                        and the certifier one by one.
#ifndef PERFBENCH_LAYERS_H_
#define PERFBENCH_LAYERS_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "src/cluster/cluster.h"
#include "src/core/policy.h"
#include "src/core/scheduler.h"
#include "src/persist/journal.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// Linear-interpolated percentile (p in [0, 100]); 0 for an empty sample.
double Percentile(std::vector<double> values, double p);
double Median(std::vector<double> values);
double Mean(const std::vector<double>& values);

// One OnCycle call as seen from outside the scheduler.
struct CycleRecord {
  double wall_s = 0.0;  // OnCycle wall time, measured by the decorator
  tetrisched::CycleStats stats;
};

// A cycle's inputs, kept for the solver replay (traced runs only).
struct CycleCapture {
  size_t cycle = 0;  // index into TimedPolicy::cycles()
  tetrisched::SimTime now = 0;
  std::vector<tetrisched::Job> pending;
  std::vector<tetrisched::RunningHold> running;
  tetrisched::SimDuration plan_ahead = 0;  // window in force for the cycle
  std::string warm_state;  // ExportDurableState() before the cycle
};

class TimedPolicy : public tetrisched::SchedulerPolicy {
 public:
  TimedPolicy(tetrisched::TetriScheduler& inner, bool capture)
      : inner_(inner), capture_(capture) {}

  Decision OnCycle(tetrisched::SimTime now,
                   const std::vector<const tetrisched::Job*>& pending,
                   const std::vector<tetrisched::RunningHold>& running)
      override;
  const char* name() const override { return inner_.name(); }
  std::string ExportDurableState() const override {
    return inner_.ExportDurableState();
  }
  void ImportDurableState(std::string_view blob) override {
    inner_.ImportDurableState(blob);
  }

  const std::vector<CycleRecord>& cycles() const { return cycles_; }
  const std::vector<CycleCapture>& captures() const { return captures_; }

 private:
  tetrisched::TetriScheduler& inner_;
  bool capture_;
  std::vector<CycleRecord> cycles_;
  std::vector<CycleCapture> captures_;
};

// Counts and times every call into the wrapped storage.
class CountingStorage : public tetrisched::JournalStorage {
 public:
  struct Counts {
    int64_t appends = 0;
    int64_t append_bytes = 0;
    double append_s = 0.0;
    int64_t snapshots = 0;
    double snapshot_s = 0.0;
  };

  explicit CountingStorage(tetrisched::JournalStorage& inner)
      : inner_(inner) {}

  void AppendJournal(std::string_view bytes) override;
  std::string ReadJournal() const override { return inner_.ReadJournal(); }
  void TruncateJournal() override { inner_.TruncateJournal(); }
  void WriteSnapshot(std::string_view bytes) override;
  std::string ReadSnapshot() const override { return inner_.ReadSnapshot(); }

  const Counts& counts() const { return counts_; }

 private:
  tetrisched::JournalStorage& inner_;
  Counts counts_;
};

// Per-phase solver timings of the replayed cycles.
struct ReplayStats {
  int attempted = 0;
  int matched = 0;  // rebuilt model had the cycle's exact vars and rows
  std::vector<double> presolve_ms;
  std::vector<double> decompose_ms;
  std::vector<double> root_lp_ms;
  std::vector<double> root_lp_pivots;
  std::vector<double> solve_ms;  // full MilpSolver::Solve
  std::vector<double> certify_ms;
  int64_t nodes = 0;
  int64_t lp_iterations = 0;
};

// Replays up to `max_cycles` captured cycles that ran the MILP, evenly
// spaced over the run, stopping early once `budget_s` wall seconds are spent.
ReplayStats ReplayCycles(const tetrisched::Cluster& cluster,
                         const tetrisched::TetriSchedConfig& config,
                         const std::vector<CycleRecord>& cycles,
                         const std::vector<CycleCapture>& captures,
                         int max_cycles, double budget_s);

// Peak resident set size of this process, in MB.
double PeakRssMb();

}  // namespace perfbench

#endif  // PERFBENCH_LAYERS_H_
