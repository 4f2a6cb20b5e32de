// Decision provenance: the scheduling flight recorder (DESIGN.md §14).
//
// Metrics (metrics.h) and spans (span.h) answer "how long did cycle N take";
// this subsystem answers "why did job J end up where it did". Every layer of
// the stack appends causal per-job events — arrival, the exact alternative
// set STRL generation offered (with utilities), which alternative the MILP
// chose and its objective contribution, which supply rows were binding for
// rejected jobs, placements/deferrals/preemptions with their rationale,
// degradation-ladder and AIMD adaptations, retry/backoff, recovery replay,
// completion or SLO miss — into a global bounded ring buffer.
//
// Cost model mirrors the span collector: when disabled (the default) every
// record site is a single relaxed atomic load and recording never happens,
// so provenance-off runs are byte-identical to a build without the recorder.
// When enabled, records are appended under a mutex (cycle-phase granularity,
// negligible contention) and never influence any scheduling decision.
//
// The ring is exported as JSONL (one record per line) via
// ProvenanceRecorder::ExportJsonl, crash-atomically; the Simulator wires
// this to the TETRISCHED_PROVENANCE_JSONL environment variable and the
// tetrisched_explain CLI (tools/explain.cc) consumes the artifact.

#ifndef TETRISCHED_OBS_PROVENANCE_H_
#define TETRISCHED_OBS_PROVENANCE_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "src/common/time.h"

namespace tetrisched {

// Event kinds, in rough lifecycle order. The JSONL `kind` field carries
// ToString(kind); the explain CLI groups and renders by it.
enum class ProvKind : uint8_t {
  kArrival = 0,        // job entered the pending queue (simulator)
  kOffered,            // STRL generation produced this job's alternative set
  kCulled,             // no positive-value option: job dropped at generation
  kSolve,              // cycle-level MILP outcome (job == -1)
  kChosen,             // solver picked a start-now alternative for the job
  kDeferred,           // solver picked a future-start alternative (warm start)
  kRejected,           // job had offers but the incumbent allocated none
  kFallback,           // cycle degraded to a lower ladder rung
  kCertifierReject,    // plan certifier refused the incumbent (cycle-level)
  kPlanAheadAdapt,     // AIMD shrank/restored the plan-ahead window
  kPreemptRescue,      // rescue preemption fired for a stranded SLO job
  kStart,              // gang actually started on the cluster
  kPreempted,          // running gang preempted back to pending
  kFailureKill,        // gang killed by a node failure (retry/backoff)
  kDropped,            // job dropped (culled / retries exhausted)
  kCompleted,          // gang finished
  kSloMiss,            // SLO job failed its deadline; label = attributed cause
  kCrash,              // injected scheduler crash
  kRecovery,           // recovery pass finished (snapshot + replay)
  kReplay,             // one journal record replayed during recovery
  kSuspected,          // failure detector suspected a node this gang runs on
  kFenced,             // stale copy killed via epoch fencing (reconciliation)
  kReconciled,         // orphaned copy adopted back after a false suspicion
};

const char* ToString(ProvKind kind);

// Root-cause buckets for kSloMiss attribution, most-specific first. The
// label of every kSloMiss record is ToString of one of these, making the
// report machine-checkable.
enum class SloMissCause : uint8_t {
  kChurnKilled = 0,        // lost >= 1 gang to node failures
  kBudgetDegraded,         // planned in degraded cycles (fallback rung or
                           // shrunken plan-ahead) before missing
  kQueuedBehindCapacity,   // rejected in cycles where every alternative hit a
                           // saturated supply row
  kSolverRejected,         // rejected while capacity remained (outbid)
  kDeadlineUnreachable,    // culled at STRL generation (no feasible option)
  kSlowPlacement,          // ran, but on a non-preferred (slow) placement
  kMisestimated,           // ran promptly on the preferred placement and
                           // still missed: runtime estimate was wrong
  kUnknown,
};

const char* ToString(SloMissCause cause);

struct ProvenanceRecord {
  ProvKind kind = ProvKind::kArrival;
  uint64_t seq = 0;    // recorder-assigned, strictly increasing
  int64_t cycle = -1;  // scheduling cycle ordinal (-1 = outside any cycle)
  SimTime time = 0;    // simulated time of the event
  uint64_t ts_us = 0;  // wall micros on the span epoch (exemplar link)
  int64_t job = -1;    // -1 for cycle-level records
  double value = 0.0;  // kind-specific scalar (objective, rung, ...)
  std::string label;   // short classification (escaped at export)
  std::string detail;  // kind-specific payload: raw JSON value, or empty
};

// JSONL line for one record (no trailing newline).
std::string ProvenanceRecordToJson(const ProvenanceRecord& record);

// Rolling per-job aggregates maintained while recording; the inputs to SLO
// miss attribution. Cheap enough to keep for every job ever seen (a handful
// of ints), so summaries survive ring eviction.
struct JobProvSummary {
  int offered_cycles = 0;    // cycles in which the job had >= 1 alternative
  int chosen_cycles = 0;     // cycles granting a start-now alternative
  int deferred_cycles = 0;   // cycles granting only a future-start slot
  int rejected_cycles = 0;   // offered but allocated nothing
  int capacity_cycles = 0;   // rejected with every alternative supply-bound
  int degraded_cycles = 0;   // touched in a degraded cycle (fallback rung,
                             // certifier reject, or shrunken plan-ahead)
  int kills = 0;             // failure kills
  int preemptions = 0;
  bool culled = false;           // ever dropped at STRL generation
  bool started = false;          // ever started on the cluster
  bool started_preferred = false;  // last start was a preferred placement
};

// Global bounded flight recorder. All methods are thread-safe; enabled() is
// a relaxed atomic load suitable for gating record sites in hot paths.
class ProvenanceRecorder {
 public:
  static ProvenanceRecorder& Global();

  bool enabled() const {
    return enabled_.load(std::memory_order_relaxed);
  }

  // Clears all state and turns recording on. ring_capacity == 0 uses
  // TETRISCHED_PROVENANCE_RING from the environment (default 65536,
  // clamped to >= 16).
  void Enable(size_t ring_capacity = 0);
  // Turns recording off; buffered records and summaries are kept until the
  // next Enable()/Clear().
  void Disable();
  // Flips the enabled flag without clearing buffered state (used to restore
  // a caller's prior recorder state around a nested run).
  void SetEnabled(bool enabled);
  void Clear();

  // Marks the start of a scheduling cycle: assigns the cycle ordinal stamped
  // onto subsequent records and resets per-cycle bookkeeping. `degraded`
  // flags a cycle planned under a shrunken (AIMD-adapted) plan-ahead window.
  void BeginCycle(SimTime now, bool degraded = false);
  int64_t cycle() const;

  // Appends one record (no-op unless enabled). Unset seq / ts_us / cycle
  // fields are stamped by the recorder.
  void Record(ProvenanceRecord record);
  // The same, for a record built from its common fields (copied only when
  // recording is on).
  void Record(ProvKind kind, SimTime time, int64_t job,
              std::string_view label, double value = 0.0,
              std::string detail = {});

  size_t size() const;
  uint64_t dropped() const;  // records evicted from the ring
  size_t ring_capacity() const;

  // Records currently buffered, in seq order.
  std::vector<ProvenanceRecord> Snapshot() const;
  JobProvSummary Summary(int64_t job) const;

  // Attributes an SLO miss for `job` from its summary. When `detail_json`
  // is non-null it receives a JSON object with the evidence counts backing
  // the verdict.
  SloMissCause AttributeSloMiss(int64_t job,
                                std::string* detail_json = nullptr) const;

  // One JSONL line per buffered record.
  std::string ToJsonl() const;
  // ToJsonl() written crash-atomically; returns false (with a warning
  // logged) on I/O failure.
  bool ExportJsonl(const std::string& path) const;

  static size_t RingCapacityFromEnv();

 private:
  void MarkTouched(int64_t job);    // job participated in the current cycle
  void MarkCycleDegraded();         // retroactively taint touched jobs

  mutable std::mutex mu_;
  std::atomic<bool> enabled_{false};
  std::deque<ProvenanceRecord> ring_;
  size_t capacity_ = 65536;
  uint64_t next_seq_ = 0;
  uint64_t dropped_ = 0;
  int64_t cycle_ = -1;
  bool cycle_degraded_ = false;
  // job -> already counted toward degraded_cycles this cycle.
  std::map<int64_t, bool> cycle_jobs_;
  std::map<int64_t, JobProvSummary> jobs_;
};

}  // namespace tetrisched

#endif  // TETRISCHED_OBS_PROVENANCE_H_
