// tetrischedd — the scheduler as a long-running service (DESIGN.md §16).
//
// SchedulerDaemon wraps the TetriSched library in a single-threaded
// poll-based serving loop:
//
//   * transports: loopback TCP and/or Unix domain listeners, plus adopted
//     pre-connected fds (socketpairs) for deterministic in-process tests,
//   * a real-clock cycle driver: every cycle_period_ms of wall time the
//     virtual clock advances by sim_seconds_per_cycle and one scheduling
//     cycle runs — completions, intake drain (admission control + Rayon),
//     TetriScheduler::OnCycle, ValidatePlan, and a two-phase journaled
//     commit, all under one §13 deadline that starts with the cycle,
//   * admission control with backpressure (admission.h): bounded intake
//     queue, per-client fairness, explicit `overloaded` rejections with
//     retry-after hints,
//   * durability: every acceptance/launch/completion/drop is journaled
//     through PersistenceManager (kServiceSubmit + the §11 vocabulary);
//     SIGTERM triggers a final checkpoint, and a restarted daemon resumes
//     accepted-but-unfinished jobs and adopts journaled running gangs.
//     The daemon persists its *resource-manager view*; like the paper's
//     YARN deployment, running work survives a scheduler restart.
//
// Threading: everything runs on the thread that calls Run(). Other threads
// (and signal handlers) may only call RequestStop/RequestDrain/
// AddConnectionFd/Wakeup, which are async-safe flags + a self-pipe write.

#ifndef TETRISCHED_SERVICE_DAEMON_H_
#define TETRISCHED_SERVICE_DAEMON_H_

#include <atomic>
#include <chrono>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "src/cluster/cluster.h"
#include "src/core/job.h"
#include "src/core/scheduler.h"
#include "src/net/event_loop.h"
#include "src/persist/persist.h"
#include "src/rayon/rayon.h"
#include "src/service/admission.h"
#include "src/service/protocol.h"

namespace tetrisched {

struct DaemonOptions {
  // --- transports (any combination; tests may rely on adopted fds only) --
  std::string unix_socket_path;  // empty = no Unix listener
  int tcp_port = -1;             // -1 = no TCP listener; 0 = kernel-assigned

  // --- cluster & scheduler ----------------------------------------------
  int racks = 4;
  int nodes_per_rack = 8;
  int gpu_racks = 1;
  TetriSchedConfig scheduler;

  // --- cycle driver ------------------------------------------------------
  // Wall-clock period of the cycle grid (see NextCycleDue). The §13
  // budget defaults to this unless the caller set scheduler.budget
  // explicitly; it runs from the cycle's start, so it bounds the whole
  // cycle, not just the solve.
  int64_t cycle_period_ms = 100;
  // Virtual seconds the service clock advances per cycle. The scheduler's
  // plan-ahead/quantum arithmetic runs in virtual seconds, so this is the
  // paper's 4 s cycle period by default; tests shrink cycle_period_ms to
  // run virtual time faster than real time.
  SimDuration sim_seconds_per_cycle = 4;

  // --- admission ---------------------------------------------------------
  AdmissionOptions admission;
  // Bound on the scheduler's pending set; intake drains only into the gap.
  int max_pending_jobs = 256;

  // --- connections -------------------------------------------------------
  size_t max_frame_bytes = kDefaultMaxFrameBytes;
  // Evict connections idle longer than this; 0 disables.
  int64_t idle_timeout_ms = 0;

  // --- durability --------------------------------------------------------
  // Journal storage; not owned (a restarted daemon re-attaches to the same
  // storage). nullptr = ephemeral daemon (no journal, no restart story).
  JournalStorage* storage = nullptr;
  int snapshot_every = 256;

  // --- observability -----------------------------------------------------
  // Keep the provenance flight recorder on so the `explain` op works.
  bool enable_provenance = true;
  size_t provenance_ring = 0;  // 0 = TETRISCHED_PROVENANCE_RING default
};

// Point-in-time counters exposed through `status` and to tests.
struct DaemonStatus {
  SimTime now = 0;
  int64_t cycles = 0;
  int64_t queued = 0;
  int64_t pending = 0;
  int64_t running = 0;
  int64_t completed = 0;
  int64_t dropped = 0;
  int64_t cancelled = 0;
  int64_t admitted_total = 0;
  int64_t rejected_total = 0;
  int64_t validator_violations = 0;
  bool draining = false;
  bool drained = false;  // draining and no queued/pending/running work left
};

// The serving loop's cadence rule (DESIGN.md §16): when the cycle that was
// due at `due` and ended at `ended` wants its successor. Cycles that end in
// time keep the period grid, whatever jitter their starts had. A cycle that
// ends past its successor's due time makes that successor due at once, and
// the grid re-anchors on it: one overrun, however long, makes exactly one
// immediate cycle, never a burst of catch-up cycles.
std::chrono::steady_clock::time_point NextCycleDue(
    std::chrono::steady_clock::time_point due,
    std::chrono::steady_clock::time_point ended,
    std::chrono::steady_clock::duration period);

// poll(2) timeout until `due`: 0 once it has passed (one non-blocking poll
// still serves ready I/O before the cycle runs), else whole ms rounded up.
int CyclePollTimeoutMs(std::chrono::steady_clock::time_point now,
                       std::chrono::steady_clock::time_point due);

class SchedulerDaemon {
 public:
  explicit SchedulerDaemon(DaemonOptions options);
  ~SchedulerDaemon();

  SchedulerDaemon(const SchedulerDaemon&) = delete;
  SchedulerDaemon& operator=(const SchedulerDaemon&) = delete;

  // Binds listeners and recovers from the journal. False when a requested
  // listener cannot be bound (the journal is recovered regardless).
  bool Start();

  // Serves until a stop request (RequestStop, `shutdown` op, or a
  // termination signal routed to wakeup_fd). Runs the final checkpoint
  // before returning.
  void Run();

  // Thread-safe controls.
  void RequestStop();
  void RequestDrain();
  // Adopts a pre-connected stream fd (takes ownership). Thread-safe; the
  // connection is registered on the loop thread's next pass.
  void AddConnectionFd(int fd);

  // The event loop's self-pipe write end, for signal handler installation.
  int wakeup_fd() const { return loop_.wakeup_fd(); }

  // Bound TCP port (valid after Start when tcp_port was requested).
  int tcp_port() const { return bound_tcp_port_; }
  const Cluster& cluster() const { return cluster_; }
  const DaemonOptions& options() const { return options_; }

  // Thread-safe snapshot of the serving counters (tests poll this).
  DaemonStatus StatusSnapshot() const;

  // Number of jobs recovered into the pending set / adopted as running at
  // Start() (tests assert restart resume).
  int recovered_pending() const { return recovered_pending_; }
  int recovered_running() const { return recovered_running_; }

  // True when the running-gang index holds exactly the kRunning jobs, each
  // under its current end time. Loop thread only, or after Run() returned.
  bool RunningIndexConsistent() const;

 private:
  enum class JobState {
    kQueued,     // accepted into the intake queue
    kPending,    // admitted to the scheduler's pending set
    kRunning,    // gang launched
    kCompleted,
    kDropped,    // deadline unreachable / scheduler drop
    kCancelled,  // client cancel
  };
  static const char* ToString(JobState state);

  struct JobEntry {
    Job job;
    JobState state = JobState::kQueued;
    std::string client;
    SimTime accepted_at = -1;  // virtual time entering the intake queue
    SimTime start = -1;
    SimTime end = -1;
    bool preferred = false;
    std::map<PartitionId, int> placement;
  };

  // --- lifecycle ---------------------------------------------------------
  void RecoverFromJournal();
  void FinalCheckpoint();

  // --- serving -----------------------------------------------------------
  void OnListenerReadable(int listener_fd);
  void AdoptConnection(UniqueFd fd);
  void OnConnectionEvent(int64_t connection_id, uint32_t events);
  void CloseConnection(int64_t connection_id);
  void AdoptPendingFds();
  void EvictIdleConnections();

  // --- protocol ----------------------------------------------------------
  std::string HandleRequest(int64_t connection_id, std::string_view payload);
  std::string HandleSubmit(const ServiceRequest& request,
                           const std::string& client, int64_t connection_id);
  std::string HandleStatus(const ServiceRequest& request);
  std::string HandleCancel(const ServiceRequest& request);
  std::string HandleExplain(const ServiceRequest& request);
  std::string HandleMetrics(const ServiceRequest& request);

  // --- cycle driver ------------------------------------------------------
  // One scheduling cycle; its §13 deadline runs from `started`.
  void RunCycle(std::chrono::steady_clock::time_point started);
  void CompleteFinishedGangs();
  void DrainIntakeIntoPending();
  // Rayon admission for a reservation seeker (journaled): accepted jobs
  // become slo-accepted, rejected ones keep their unreserved class.
  void Reserve(Job& job);
  void ApplyDecision(const SchedulerPolicy::Decision& decision);
  void DropJob(JobId job, JobState reason, const char* why);
  // Sends a running job back to pending (a policy preemption).
  void PreemptJob(JobId job);

  JsonObj JobStatusJson(const JobEntry& entry) const;
  DaemonStatus UnlockedStatus() const;
  void PublishStatus();

  DaemonOptions options_;
  Cluster cluster_;
  TetriScheduler scheduler_;
  RayonAdmission rayon_;
  std::unique_ptr<PersistenceManager> persist_;  // null when no storage
  AdmissionQueue intake_;
  EventLoop loop_;

  std::vector<UniqueFd> listeners_;
  int bound_tcp_port_ = -1;
  std::map<int64_t, std::unique_ptr<FramedConnection>> connections_;
  int64_t next_connection_id_ = 1;

  // Every job ever admitted. Cycles never walk it: they look jobs up from
  // the two indexes below.
  std::map<JobId, JobEntry> jobs_;
  std::vector<JobId> pending_;  // admission order
  // The kRunning jobs as (end, id): completion pops from the front.
  std::set<std::pair<SimTime, JobId>> running_;
  JobId next_job_id_ = 1;
  SimTime now_ = 0;
  int64_t cycles_ = 0;
  int64_t validator_violations_ = 0;
  int64_t completed_ = 0;
  int64_t dropped_ = 0;
  int64_t cancelled_ = 0;
  int64_t admitted_total_ = 0;
  int64_t rejected_total_ = 0;
  int recovered_pending_ = 0;
  int recovered_running_ = 0;

  bool draining_ = false;
  bool stopped_ = false;

  std::atomic<bool> stop_requested_{false};
  std::atomic<bool> drain_requested_{false};
  std::mutex adopted_mu_;
  std::vector<UniqueFd> adopted_fds_;

  mutable std::mutex status_mu_;
  DaemonStatus published_status_;
};

}  // namespace tetrisched

#endif  // TETRISCHED_SERVICE_DAEMON_H_
