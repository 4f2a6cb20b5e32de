#include "src/sim/simulator.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <map>
#include <memory>
#include <queue>
#include <set>
#include <sstream>

#include "src/cluster/ledger.h"
#include "src/core/estimator.h"
#include "src/core/plan_check.h"
#include "src/common/atomic_io.h"
#include "src/common/json.h"
#include "src/common/logging.h"
#include "src/common/metrics.h"
#include "src/common/span.h"
#include "src/obs/provenance.h"
#include "src/persist/journal.h"

namespace tetrisched {

bool IsPreferredPlacement(const Cluster& cluster, const Job& job,
                          const std::map<PartitionId, int>& counts) {
  switch (job.type) {
    case JobType::kUnconstrained:
      return true;
    case JobType::kGpu:
      for (const auto& [partition, count] : counts) {
        if (count > 0 && !cluster.partition(partition).has_gpu) {
          return false;
        }
      }
      return true;
    case JobType::kMpi: {
      RackId rack = -1;
      for (const auto& [partition, count] : counts) {
        if (count == 0) {
          continue;
        }
        RackId r = cluster.partition(partition).rack;
        if (rack == -1) {
          rack = r;
        } else if (rack != r) {
          return false;
        }
      }
      return true;
    }
    case JobType::kAvailability:
      return true;
    case JobType::kDataLocal:
      for (const auto& [partition, count] : counts) {
        if (count > 0 &&
            std::find(job.preferred_partitions.begin(),
                      job.preferred_partitions.end(),
                      partition) == job.preferred_partitions.end()) {
          return false;
        }
      }
      return true;
  }
  return true;
}

int ApplyAdmission(const Cluster& cluster, std::vector<Job>& jobs,
                   RayonAdmission* rayon_in) {
  RayonAdmission local(cluster.num_nodes());
  RayonAdmission& rayon = rayon_in != nullptr ? *rayon_in : local;
  int accepted = 0;
  for (Job& job : jobs) {
    if (!job.wants_reservation) {
      job.slo_class = SloClass::kBestEffort;
      continue;
    }
    RdlRequest request;
    request.requester = job.id;
    request.k = job.k;
    // Reservations are made against the preferred-placement estimate; the
    // scheduler (not the admission plan) absorbs the slowdown risk of
    // fallback placements.
    request.duration = job.EstimatedRuntime(/*preferred=*/true);
    request.window_start = job.submit;
    request.window_end = job.deadline;
    ReservationDecision decision = rayon.Submit(request);
    if (decision.accepted) {
      job.slo_class = SloClass::kSloAccepted;
      job.reservation = decision.interval;
      ++accepted;
    } else {
      job.slo_class = SloClass::kSloUnreserved;
    }
  }
  return accepted;
}

namespace {

enum class JobState {
  kFuture,
  kPending,
  kRunning,
  kCompleted,
  kDropped,
};

struct RunningJob {
  std::vector<NodeId> nodes;
  std::map<PartitionId, int> counts;
  SimTime start = 0;
  SimTime expected_end = 0;  // scheduler-visible (estimate-derived)
  SimTime actual_end = 0;    // ground truth
};

// A copy the scheduler recalled but could not kill (DESIGN.md §15).
struct OrphanJob {
  RunningJob run;
  bool intact = true;  // no member killed or physically dead: adoptable
};

template <typename T>
using MinHeap = std::priority_queue<T, std::vector<T>, std::greater<>>;

// Registry-backed simulator instruments (DESIGN.md §10): per-cycle pending
// depth plus churn/outcome event counters. SimMetrics stays the per-run
// snapshot computed locally; these accumulate process-wide.
struct SimInstruments {
  static Counter* Get(const char* name) {
    return GlobalMetrics().GetCounter(name);
  }

  // Pending jobs offered to the policy per cycle.
  Histogram* pending_depth = GlobalMetrics().GetHistogram(
      "tetrisched_sim_pending_depth",
      {0, 1, 2, 5, 10, 20, 50, 100, 200, 500, 1000});
  Counter* cycles = Get("tetrisched_sim_cycles_total");
  Counter* fallback_cycles = Get("tetrisched_sim_fallback_cycles_total");
  Counter* validator_violations =
      Get("tetrisched_sim_validator_violations_total");
  Counter* failure_kills = Get("tetrisched_sim_failure_kills_total");
  Counter* node_failures = Get("tetrisched_sim_node_failures_total");
  Counter* node_recoveries = Get("tetrisched_sim_node_recoveries_total");
  Counter* stragglers = Get("tetrisched_sim_stragglers_total");
  Counter* preemptions = Get("tetrisched_sim_preemptions_total");
  Counter* retries_exhausted = Get("tetrisched_sim_retries_exhausted_total");
  Counter* jobs_completed = Get("tetrisched_sim_jobs_completed_total");
  Counter* jobs_dropped = Get("tetrisched_sim_jobs_dropped_total");
  Counter* scheduler_crashes = Get("tetrisched_sim_scheduler_crashes_total");
  // Lossy-control-plane instruments (DESIGN.md §15).
  Counter* detector_suspicions = Get("tetrisched_detector_suspicions_total");
  Counter* detector_false_suspicions =
      Get("tetrisched_detector_false_suspicions_total");
  Counter* detector_dead_declared =
      Get("tetrisched_detector_dead_declared_total");
  Counter* detector_fenced_tasks =
      Get("tetrisched_detector_fenced_tasks_total");
  Counter* detector_orphans_adopted =
      Get("tetrisched_detector_orphans_adopted_total");
  Counter* detector_stale_bounces =
      Get("tetrisched_detector_stale_bounces_total");
  Counter* detector_heartbeats_dropped =
      Get("tetrisched_detector_heartbeats_dropped_total");
  Counter* detector_commands_dropped =
      Get("tetrisched_detector_commands_dropped_total");
};

SimInstruments& Instruments() {
  static SimInstruments instruments;
  return instruments;
}

void WriteFileOrWarn(const std::string& path, const std::string& content) {
  // Crash-atomic: a run dying mid-export must never leave a truncated
  // artifact where consumers expect a complete one.
  if (!WriteFileAtomic(path, content)) {
    TETRI_LOG(kWarning) << "cannot write export " << path;
  }
}

bool CrashesAt(const SchedulerCrashEvent* crash, CrashPhase phase) {
  return crash != nullptr && crash->phase == phase;
}

// One Simulator::Run as an object: the run's state plus one method per
// event kind. Simulator::Run moves the clock to the next event and hands
// every event due then to its method, in a fixed order; the cycle
// splits into detector pass -> policy view -> decide -> commit (preempt,
// drop, launch), with crash recovery when an injected crash fires.
//
// Under a lossy control plane (DESIGN.md §15) `running_` is the scheduler's
// *believed* running set: a gang stays in it after a member node physically
// dies (broken, it can never complete) until the failure detector suspects
// the node and the gang is recalled. Copies the scheduler recalled but
// could not kill (node down, partitioned, or the kill command dropped) move
// to `orphans_`: they still occupy ledger nodes — ground truth — until
// reconciliation either adopts them back (intact copy, job still pending,
// every member reachable) or fences them (stale epoch). In oracle mode the
// detector never runs, no node is believed down and every command lands,
// so the shared commit path reduces to the pre-§15 simulator's.
class SimRun {
 public:
  SimRun(const Cluster& cluster, SchedulerPolicy& policy,
         std::vector<Job>& jobs, const SimConfig& config)
      : cluster_(cluster),
        jobs_(jobs),
        config_(config),
        ins_(Instruments()),
        prov_(ProvenanceRecorder::Global()),
        n_(static_cast<int>(jobs.size())),
        state_(n_, JobState::kFuture),
        ledger_(cluster),
        failures_(NormalizeNodeFailures(cluster, config.node_failures)),
        stragglers_(config.stragglers),
        eligible_at_(n_, 0),
        last_kill_(n_, -1),
        comms_(cluster, config.comms),
        lossy_(comms_.active()),
        policy_(&policy),
        crashes_(config.scheduler_crashes),
        persist_(config.persist),
        outstanding_(n_) {
    metrics_.outcomes.resize(n_);
    for (int i = 0; i < n_; ++i) {
      const Job& job = jobs_[i];
      index_[job.id] = i;
      JobOutcome& outcome = metrics_.outcomes[i];
      outcome.id = job.id;
      outcome.slo_class = job.slo_class;
      outcome.type = job.type;
      outcome.submit = job.submit;
      outcome.deadline = job.deadline;
    }
    std::stable_sort(stragglers_.begin(), stragglers_.end(),
                     [](const StragglerEvent& a, const StragglerEvent& b) {
                       return a.at != b.at ? a.at < b.at : a.node < b.node;
                     });
    std::stable_sort(crashes_.begin(), crashes_.end(),
                     [](const SchedulerCrashEvent& a,
                        const SchedulerCrashEvent& b) { return a.at < b.at; });
    if (persist_ == nullptr && !crashes_.empty()) {
      // Crashes need a journal to recover from; default to an in-memory one.
      owned_persist_ = std::make_unique<PersistenceManager>(
          std::make_unique<MemoryJournalStorage>());
      persist_ = owned_persist_.get();
    }
    // Seed the manager's recovery image with the run's starting RM view; from
    // here on every Append mirrors into it (DESIGN.md §11).
    if (persist_ != nullptr) {
      RecoveredState seed;
      if (config_.rayon != nullptr) {
        seed.rayon = config_.rayon->ExportState();
      }
      for (const Job& job : jobs_) {
        if (job.slo_class != SloClass::kBestEffort || job.wants_reservation) {
          seed.slo[job.id] = SloRecord{
              job.id, static_cast<uint8_t>(job.slo_class), job.reservation};
        }
      }
      seed.policy_state = policy_->ExportDurableState();
      persist_->Checkpoint(std::move(seed));
    }
  }

  bool done() const { return outstanding_ == 0 || now_ > config_.max_time; }
  // The earliest due event of any kind; the next cycle bounds it.
  SimTime NextEvent() const {
    SimTime next = next_cycle_;
    if (next_arrival_ < n_) {
      next = std::min(next, jobs_[next_arrival_].submit);
    }
    if (!completions_.empty()) {
      next = std::min(next, completions_.top().first);
    }
    if (next_failure_ < failures_.size()) {
      next = std::min(next, failures_[next_failure_].at);
    }
    if (!recoveries_.empty()) {
      next = std::min(next, recoveries_.top().first);
    }
    if (next_straggler_ < stragglers_.size()) {
      next = std::min(next, stragglers_[next_straggler_].at);
    }
    if (!straggler_ends_.empty()) {
      next = std::min(next, straggler_ends_.top());
    }
    return next;
  }

  void AdvanceTo(SimTime t) {
    now_ = t;
    busy_node_seconds_ += static_cast<double>(busy_nodes_) *
                          static_cast<double>(t - last_event_);
    last_event_ = t;
  }

  void Arrivals() {
    while (next_arrival_ < n_ && jobs_[next_arrival_].submit <= now_) {
      const Job& job = jobs_[next_arrival_];
      state_[next_arrival_] = JobState::kPending;
      Trace({now_, TraceEventKind::kSubmit, job.id});
      if (prov_.enabled()) {
        prov_.Record(ProvKind::kArrival, now_, job.id,
                     ToString(job.slo_class), static_cast<double>(job.k),
                     JsonObj()
                         .Field("k", job.k)
                         .Field("deadline", static_cast<int64_t>(job.deadline))
                         .str());
      }
      ++next_arrival_;
    }
  }

  void Completions() {
    while (!completions_.empty() && completions_.top().first <= now_) {
      auto [time, id] = completions_.top();
      completions_.pop();
      auto it = running_.find(id);
      if (it == running_.end() || it->second.actual_end != time) {
        continue;  // stale entry (job was preempted and rescheduled)
      }
      int i = index_[id];
      const Job& job = jobs_[i];
      JobOutcome& outcome = metrics_.outcomes[i];
      const SimDuration runtime = time - it->second.start;
      const int released = static_cast<int>(it->second.nodes.size());
      Release(it->second.nodes);
      if (config_.learn_estimates) {
        estimator_.Observe(job, outcome.preferred, runtime);
      }
      if (persist_ != nullptr) {
        persist_->JournalComplete(time, id, outcome.preferred, runtime);
      }
      if (prov_.enabled()) {
        prov_.Record(ProvKind::kCompleted, time, id,
                     time <= job.deadline ? "met" : "late",
                     static_cast<double>(runtime),
                     JsonObj()
                         .Field("runtime", static_cast<int64_t>(runtime))
                         .Field("deadline", static_cast<int64_t>(job.deadline))
                         .Field("preferred", outcome.preferred)
                         .str());
      }
      running_.erase(it);
      state_[i] = JobState::kCompleted;
      outcome.completed = true;
      outcome.completion = time;
      Trace({time, TraceEventKind::kComplete, id, -1, released});
      ins_.jobs_completed->Increment();
      --outstanding_;
    }
  }

  void NodeRecoveries() {
    while (!recoveries_.empty() && recoveries_.top().first <= now_) {
      NodeId node = recoveries_.top().second;
      recoveries_.pop();
      ledger_.ReturnSpecific(node);
      Trace({now_, TraceEventKind::kNodeRecover, -1, node});
      ins_.node_recoveries->Increment();
      failed_nodes_.erase(node);
      if (lossy_) {
        // The agent reboots with a bumped incarnation; its heartbeats
        // resume from here and the detector notices on its next pass.
        comms_.NodeUp(node, now_);
      }
    }
  }

  // Node failures: kill whatever ran on the node (or, under a lossy control
  // plane, let the copy die unnoticed) and take the node out of circulation
  // until its recovery.
  void NodeFailures() {
    while (next_failure_ < failures_.size() &&
           failures_[next_failure_].at <= now_) {
      const NodeFailure& failure = failures_[next_failure_++];
      if (failure.node < 0 || failure.node >= cluster_.num_nodes() ||
          failed_nodes_.count(failure.node) != 0) {
        continue;
      }
      if (!ledger_.is_free(failure.node)) {
        if (lossy_) {
          BreakCopyOn(failure.node);
        } else {
          KillGangOn(failure.node);
        }
      }
      ledger_.TakeSpecific(failure.node);
      Trace({now_, TraceEventKind::kNodeFail, -1, failure.node});
      ins_.node_failures->Increment();
      failed_nodes_[failure.node] = failure.recover_at;
      if (failure.recover_at != kTimeNever) {
        recoveries_.push({failure.recover_at, failure.node});
      }
      if (lossy_) {
        comms_.NodeDown(failure.node, now_);
      }
    }
  }

  // Fail-slow episodes: expire finished ones, then activate those due.
  void Stragglers() {
    if (!straggler_ends_.empty() && straggler_ends_.top() <= now_) {
      while (!straggler_ends_.empty() && straggler_ends_.top() <= now_) {
        straggler_ends_.pop();
      }
      for (auto it = active_stragglers_.begin();
           it != active_stragglers_.end();) {
        if (it->recover_at <= now_) {
          Trace({now_, TraceEventKind::kNodeSlowRecover, -1, it->node});
          it = active_stragglers_.erase(it);
        } else {
          ++it;
        }
      }
    }
    while (next_straggler_ < stragglers_.size() &&
           stragglers_[next_straggler_].at <= now_) {
      const StragglerEvent& event = stragglers_[next_straggler_++];
      if (event.node < 0 || event.node >= cluster_.num_nodes() ||
          event.recover_at <= event.at || event.slowdown <= 1.0) {
        continue;
      }
      active_stragglers_.push_back(event);
      straggler_ends_.push(event.recover_at);
      ins_.stragglers->Increment();
      Trace({now_, TraceEventKind::kNodeSlow, -1, event.node, 0,
             event.slowdown});
    }
  }

  // One scheduling cycle, once the cycle period has elapsed.
  void Cycle() {
    if (now_ < next_cycle_) {
      return;
    }
    next_cycle_ = now_ + config_.cycle_period;
    const SchedulerCrashEvent* crash = DueCrash();
    if (lossy_) {
      DetectorPass();
    }
    std::vector<const Job*> pending = PendingView();
    std::vector<RunningHold> holds = HoldsView();
    try {
      Commit(Decide(pending, holds, crash), crash);
    } catch (const SchedulerCrashSignal&) {
      // The cycle died mid-flight. Ground-truth mutations that already
      // landed stand; recovery rebuilds the RM view around them, and the
      // unapplied remainder of this cycle's plan is replanned next period.
      RecoverScheduler(crash != nullptr ? crash->phase
                                        : CrashPhase::kBeforeCycle);
    }
    if (lossy_) {
      CheckBeliefInvariants();
    }
  }

  // Closes the run: detector counters, makespan and utilization.
  SimMetrics Finish() {
    if (now_ > config_.max_time) {
      TETRI_LOG(kWarning) << "simulation hit max_time with " << outstanding_
                          << " jobs outstanding";
    }
    if (lossy_) {
      const ControlPlane::Counters& cc = comms_.counters();
      metrics_.suspicions = static_cast<int>(cc.suspicions);
      metrics_.false_suspicions = static_cast<int>(cc.false_suspicions);
      metrics_.dead_declared = static_cast<int>(cc.dead_declared);
      metrics_.heartbeats_dropped = cc.heartbeats_dropped;
      metrics_.commands_dropped = cc.commands_dropped;
      metrics_.stale_command_rejects = cc.stale_command_rejects;
      for (double latency : comms_.detection_latencies()) {
        metrics_.detection_latency.Add(latency);
      }
      ins_.detector_suspicions->Increment(cc.suspicions);
      ins_.detector_false_suspicions->Increment(cc.false_suspicions);
      ins_.detector_dead_declared->Increment(cc.dead_declared);
      ins_.detector_fenced_tasks->Increment(metrics_.fenced_tasks);
      ins_.detector_orphans_adopted->Increment(metrics_.orphans_adopted);
      ins_.detector_stale_bounces->Increment(metrics_.stale_placement_bounces);
      ins_.detector_heartbeats_dropped->Increment(cc.heartbeats_dropped);
      ins_.detector_commands_dropped->Increment(cc.commands_dropped);
    }
    metrics_.makespan = now_;
    metrics_.utilization =
        metrics_.makespan > 0
            ? busy_node_seconds_ / (static_cast<double>(cluster_.num_nodes()) *
                                    static_cast<double>(metrics_.makespan))
            : 0.0;
    return std::move(metrics_);
  }

 private:
  // At most one injected scheduler crash per cycle, at its scheduled phase. A
  // kBeforeCycle crash loses nothing uncommitted, so recovery runs first and
  // the cycle then proceeds on the rebuilt scheduler.
  const SchedulerCrashEvent* DueCrash() {
    if (persist_ == nullptr || next_crash_ >= crashes_.size() ||
        crashes_[next_crash_].at > now_) {
      return nullptr;
    }
    const SchedulerCrashEvent* crash = &crashes_[next_crash_++];
    if (crash->phase == CrashPhase::kBeforeCycle) {
      RecoverScheduler(crash->phase);
      return nullptr;
    }
    return crash;
  }

  // Detector pass (DESIGN.md §15): fold heartbeat arrivals up to now, apply
  // belief transitions, then act on them — recall believed-running gangs from
  // nodes the scheduler just gave up on (or that silently rebooted out from
  // under their tasks), and reconcile reachable nodes whose agents lag their
  // fence epoch.
  void DetectorPass() {
    ++cycle_count_;
    ControlPlane::Verdict verdict = comms_.Evaluate(now_, cycle_count_);
    for (NodeId node : verdict.newly_suspect) {
      RecallGangsOn(node, "suspected");
    }
    for (NodeId node : verdict.newly_dead) {
      RecallGangsOn(node, "dead");  // idempotent if recalled at suspicion
    }
    for (NodeId node : verdict.rebooted) {
      RecallGangsOn(node, "rebooted");
    }
    for (NodeId node : verdict.reconcilable) {
      ReconcileNode(node);
    }
  }

  std::vector<const Job*> PendingView() {
    std::vector<const Job*> pending;
    for (int i = 0; i < n_; ++i) {
      if (state_[i] != JobState::kPending) {
        continue;
      }
      if (eligible_at_[i] > now_) {
        continue;  // still backing off after a failure kill
      }
      if (config_.learn_estimates) {
        jobs_[i].learned_estimate_preferred =
            estimator_.Predict(jobs_[i], /*preferred=*/true);
        jobs_[i].learned_estimate_fallback =
            estimator_.Predict(jobs_[i], /*preferred=*/false);
      }
      pending.push_back(&jobs_[i]);
    }
    return pending;
  }

  // Failed nodes appear to policies as unpreemptible holds lasting until
  // their recovery time. Under a lossy control plane the scheduler cannot see
  // ground truth: the holds come from the detector's believed-down set
  // instead (no recovery ETA — a suspicion carries none), so the policy may
  // plan onto capacity that is actually gone (bounced at commit) and may
  // ignore capacity that is actually fine.
  std::vector<RunningHold> HoldsView() const {
    std::vector<RunningHold> holds;
    holds.reserve(running_.size() + failed_nodes_.size());
    if (lossy_) {
      const std::vector<char>& down = comms_.believed_down_mask();
      for (NodeId node = 0; node < cluster_.num_nodes(); ++node) {
        if (down[node]) {
          holds.push_back(FailedNodeHold(cluster_, node, kTimeNever));
        }
      }
    } else {
      for (const auto& [node, recover_at] : failed_nodes_) {
        holds.push_back(FailedNodeHold(cluster_, node, recover_at));
      }
    }
    for (const auto& [id, run] : running_) {
      holds.push_back(RunningJobHold(jobs_[index_.at(id)], run.start,
                                     run.counts, run.expected_end));
    }
    return holds;
  }

  SchedulerPolicy::Decision Decide(
      const std::vector<const Job*>& pending,
      const std::vector<RunningHold>& holds, const SchedulerCrashEvent* crash) {
    // In-OnCycle crash phases fire from the span hook: the first entry into
    // the targeted phase's span on this thread throws.
    const char* crash_span =
        crash != nullptr ? CrashPhaseSpanName(crash->phase) : nullptr;
    if (crash_span != nullptr) {
      span_internal::ArmSpanCrashHook(crash_span,
                                      [] { throw SchedulerCrashSignal{}; });
    }
    SchedulerPolicy::Decision decision = policy_->OnCycle(now_, pending, holds);
    if (crash_span != nullptr && span_internal::SpanCrashHookArmed()) {
      // The targeted phase never ran this cycle (the degradation ladder can
      // skip phases); the crash still fires, before the commit.
      span_internal::DisarmSpanCrashHook();
      throw SchedulerCrashSignal{};
    }
    RecordCycleStats(decision.stats, pending.size());
    return decision;
  }

  void RecordCycleStats(const CycleStats& stats, size_t pending) {
    Trace({now_, TraceEventKind::kCycle, -1, -1, static_cast<int32_t>(pending),
           stats.cycle_seconds * 1e3});
    ins_.cycles->Increment();
    ins_.pending_depth->Observe(static_cast<double>(pending));
    metrics_.cycle_latency_ms.Add(stats.cycle_seconds * 1e3);
    metrics_.solver_latency_ms.Add(stats.solver_seconds * 1e3);
    if (stats.milp_vars > 0) {
      metrics_.milp_vars.Add(stats.milp_vars);
      metrics_.milp_components.Add(stats.milp_components);
    }
    if (stats.used_fallback) {
      ++metrics_.fallback_cycles;
      ins_.fallback_cycles->Increment();
      // `count` carries the degradation-ladder rung that produced the plan
      // (1 = greedy first-fit, 2 = skip), not a placement count.
      Trace({now_, TraceEventKind::kFallback, -1, -1, stats.ladder_rung});
    }
    metrics_.validator_violations += stats.validator_rejects;
    ins_.validator_violations->Increment(stats.validator_rejects);
    if (stats.budget_blown) {
      ++metrics_.budget_blown_cycles;
    }
    if (stats.plan_ahead_adapted != 0) {
      ++metrics_.plan_ahead_adaptations;
    }
    metrics_.certifier_rejects += stats.certifier_rejects;
  }

  // Two-phase commit (DESIGN.md §11): journal the cycle's full intent before
  // any cluster mutation, journal each mutation after it lands, and close
  // with kCommitApplied carrying the policy's durable state. A crash anywhere
  // in between leaves an open intent that recovery reconciles against what
  // actually reached the cluster.
  void Commit(const SchedulerPolicy::Decision& decision,
              const SchedulerCrashEvent* crash) {
    if (persist_ != nullptr) {
      persist_->JournalIntent(now_, decision);
    }
    if (CrashesAt(crash, CrashPhase::kCommitIntent)) {
      throw SchedulerCrashSignal{};
    }
    // Preemptions first (they free capacity the placements may rely on).
    for (JobId id : decision.preempt) {
      Preempt(id);
    }
    for (JobId id : decision.drop) {
      Drop(id);
    }
    bool placed = false;
    for (const Placement& placement : decision.start_now) {
      if (!Launch(placement)) {
        continue;
      }
      // kMidCommit: the first launch landed on the cluster but its
      // kGangLaunch record did not — recovery must adopt this gang from the
      // open commit intent.
      if (!placed && CrashesAt(crash, CrashPhase::kMidCommit)) {
        throw SchedulerCrashSignal{};
      }
      placed = true;
      if (persist_ != nullptr) {
        persist_->JournalLaunch(now_, placement, now_);
      }
    }
    if (!placed && CrashesAt(crash, CrashPhase::kMidCommit)) {
      // Nothing was placed this cycle, so no launch fired the crash; it still
      // lands inside the commit window, before kCommitApplied.
      throw SchedulerCrashSignal{};
    }
    if (persist_ != nullptr) {
      persist_->JournalApplied(now_, policy_->ExportDurableState());
    }
    if (CrashesAt(crash, CrashPhase::kAfterCommit)) {
      throw SchedulerCrashSignal{};
    }
  }

  void Preempt(JobId id) {
    auto it = running_.find(id);
    if (it == running_.end()) {
      return;
    }
    int i = index_[id];
    Release(it->second.nodes);
    Trace({now_, TraceEventKind::kPreempt, id, -1,
           static_cast<int32_t>(it->second.nodes.size())});
    running_.erase(it);
    state_[i] = JobState::kPending;  // restarts from scratch
    ++metrics_.outcomes[i].preemptions;
    ++metrics_.preemptions;
    ins_.preemptions->Increment();
    prov_.Record(ProvKind::kPreempted, now_, id, "policy-preempt",
                 static_cast<double>(metrics_.outcomes[i].preemptions));
    if (persist_ != nullptr) {
      persist_->JournalPreempt(now_, id);
    }
  }

  void Drop(JobId id) {
    auto it = index_.find(id);
    if (it != index_.end() && state_[it->second] == JobState::kPending) {
      Retire(it->second, "culled");
    }
  }

  // Drops job `i` for good; `why` labels its provenance record.
  void Retire(int i, const char* why, double value = 0.0,
              std::string detail = {}) {
    const JobId id = jobs_[i].id;
    state_[i] = JobState::kDropped;
    metrics_.outcomes[i].dropped = true;
    Trace({now_, TraceEventKind::kDrop, id});
    ins_.jobs_dropped->Increment();
    prov_.Record(ProvKind::kDropped, now_, id, why, value, std::move(detail));
    --outstanding_;
    if (persist_ != nullptr) {
      persist_->JournalDrop(now_, id);
    }
  }

  // Starts one placement on ground truth, or refuses it. Returns whether the
  // gang now runs.
  bool Launch(const Placement& placement) {
    // Last line of defense: the scheduler's own ValidatePlan should have
    // caught malformed placements, but a buggy policy must never corrupt the
    // ledger — reject the placement, count it, and keep running.
    auto it = index_.find(placement.job);
    if (it == index_.end()) {
      Reject(placement, "unknown job id");
      return false;
    }
    int i = it->second;
    if (state_[i] != JobState::kPending) {
      Reject(placement, "job is not pending");
      return false;
    }
    // Availability-type jobs may legitimately place fewer tasks than k (one
    // per rack); everything else is an exact gang.
    if (placement.total_nodes() < 1 || placement.total_nodes() > jobs_[i].k) {
      Reject(placement, "gang size out of range");
      return false;
    }
    RunningJob run;
    if (!Place(placement, &run)) {
      return false;
    }
    Start(i, placement, std::move(run));
    return true;
  }

  // Takes the placement's nodes from the ledger, avoiding believed-down
  // nodes, and delivers the launch command to every member. The oracle has no
  // believed-down nodes and loses no commands, so there this is a plain
  // capacity check and acquisition.
  bool Place(const Placement& placement, RunningJob* run) {
    const std::vector<char>& down = comms_.believed_down_mask();
    for (const auto& [partition, count] : placement.counts) {
      if (partition < 0 || partition >= cluster_.num_partitions() ||
          count < 0) {
        Reject(placement, "partition out of range or negative count");
        return false;
      }
      if (count > ledger_.FreeAvoiding(partition, down)) {
        // With ground truth in view the policy over-committed. Under a lossy
        // control plane the plan is physically impossible (or satisfiable
        // only on believed-down nodes): the believed view was stale.
        if (lossy_) {
          Bounce(placement, "capacity");
        } else {
          Reject(placement, "exceeds free partition capacity");
        }
        return false;
      }
    }
    run->counts = placement.counts;
    for (const auto& [partition, count] : placement.counts) {
      std::vector<NodeId> nodes =
          ledger_.AcquireAvoiding(partition, count, down);
      run->nodes.insert(run->nodes.end(), nodes.begin(), nodes.end());
      if (static_cast<int>(nodes.size()) < count) {
        ledger_.Release(run->nodes);
        Bounce(placement, "short-take");
        return false;
      }
    }
    // The launch command must reach every member or none: a partial gang is
    // never started. A lost command aborts the whole launch (the agent-side
    // slots are released; the gang retries next cycle).
    for (NodeId member : run->nodes) {
      if (!comms_.DeliverCommand(member, now_)) {
        ledger_.Release(run->nodes);
        Bounce(placement, "command-lost");
        return false;
      }
    }
    // Delivered placement commands carry the current fence epoch; accepting
    // one adopts it.
    for (NodeId member : run->nodes) {
      comms_.AgentAdoptEpoch(member);
    }
    busy_nodes_ += static_cast<int>(run->nodes.size());
    return true;
  }

  void Start(int i, const Placement& placement, RunningJob run) {
    const Job& job = jobs_[i];
    // Ground truth runtime from the *actual* placement quality, stretched by
    // any fail-slow episode active on the gang's nodes at start.
    bool preferred = IsPreferredPlacement(cluster_, job, run.counts);
    SimDuration actual = job.ActualRuntime(preferred);
    double slow = StraggleFactor(run.nodes);
    if (slow > 1.0) {
      actual = static_cast<SimDuration>(
          std::llround(static_cast<double>(actual) * slow));
      ++metrics_.straggler_slowed_starts;
    }
    run.start = now_;
    run.actual_end = now_ + actual;
    run.expected_end = now_ + placement.est_duration;
    completions_.push({run.actual_end, job.id});
    running_[job.id] = std::move(run);

    state_[i] = JobState::kRunning;
    Trace({now_, TraceEventKind::kStart, job.id, -1, placement.total_nodes()});
    JobOutcome& outcome = metrics_.outcomes[i];
    outcome.started = true;
    if (outcome.start_time < 0) {
      outcome.start_time = now_;
    }
    ClearKillGap(i);
    outcome.preferred = preferred;
    outcome.placement = placement.counts;
    if (prov_.enabled()) {
      // Ground-truth placement quality (the scheduler only ever saw
      // estimates); this is what SLO-miss attribution keys on.
      prov_.Record(ProvKind::kStart, now_, job.id,
                   preferred ? "preferred" : "fallback",
                   static_cast<double>(placement.total_nodes()),
                   JsonObj()
                       .Field("nodes", placement.total_nodes())
                       .Field("est_duration",
                              static_cast<int64_t>(placement.est_duration))
                       .Field("actual_runtime", static_cast<int64_t>(actual))
                       .Field("straggler_factor", slow)
                       .str());
    }
  }

  void Reject(const Placement& placement, const char* why) {
    ++metrics_.validator_violations;
    ins_.validator_violations->Increment();
    Trace({now_, TraceEventKind::kPlanReject, placement.job});
    TETRI_LOG(kWarning) << "rejected placement of job " << placement.job << ": "
                        << why;
  }

  // A plan the scheduler built against a stale believed view is not a policy
  // bug: ground truth refuses it (the gang stays pending and is replanned
  // next cycle) without charging the validator.
  void Bounce(const Placement& placement, const char* why) {
    ++metrics_.stale_placement_bounces;
    Trace({now_, TraceEventKind::kPlanReject, placement.job});
    if (prov_.enabled()) {
      prov_.Record(ProvKind::kRejected, now_, placement.job, "stale-view", 0.0,
                   JsonObj().Field("why", why).str());
    }
  }

  // Oracle path: the scheduler learns of the failure instantly and kills +
  // requeues the whole gang on the spot.
  void KillGangOn(NodeId node) {
    for (auto it = running_.begin(); it != running_.end(); ++it) {
      auto& nodes = it->second.nodes;
      if (std::find(nodes.begin(), nodes.end(), node) == nodes.end()) {
        continue;
      }
      JobId victim = it->first;
      int i = index_[victim];
      Release(nodes);
      Trace({now_, TraceEventKind::kFailureKill, victim, node,
             static_cast<int32_t>(nodes.size())});
      running_.erase(it);
      RequeueAfterKill(i, victim, node);
      return;
    }
  }

  // Lossy path: the scheduler notices nothing yet. The copy on the node dies
  // with it; the rest of the gang keeps occupying its nodes. A
  // believed-running gang becomes broken (its completion is cancelled — a
  // gang with a dead member never finishes) and is recalled only once the
  // detector suspects the node or spots its reboot. An orphan copy just
  // shrinks.
  void BreakCopyOn(NodeId node) {
    for (auto& [id, run] : running_) {
      if (std::find(run.nodes.begin(), run.nodes.end(), node) ==
          run.nodes.end()) {
        continue;
      }
      auto dead = broken_.find(id);
      if (dead != broken_.end() && dead->second.count(node) != 0) {
        continue;  // this gang's copy there died in an earlier incarnation
      }
      broken_[id].insert(node);
      Release({node});
      run.actual_end = kTimeNever;
      return;
    }
    for (auto it = orphans_.begin(); it != orphans_.end(); ++it) {
      RunningJob& run = it->second.run;
      auto pos = std::find(run.nodes.begin(), run.nodes.end(), node);
      if (pos == run.nodes.end()) {
        continue;
      }
      run.nodes.erase(pos);
      Release({node});
      it->second.intact = false;
      if (run.nodes.empty()) {
        orphans_.erase(it);
      } else {
        run.counts = CountsOf(run.nodes);
      }
      return;
    }
  }

  // Post-kill retry/backoff bookkeeping, shared verbatim by the oracle's
  // instant-detection path and the lossy recall path (oracle-mode schedules
  // stay byte-identical because both run exactly this code). The caller has
  // already released the gang's reachable nodes and erased it from
  // `running_`; this decides drop-vs-requeue and journals the kill.
  void RequeueAfterKill(int i, JobId victim, NodeId cause_node) {
    ++metrics_.failure_kills;
    ins_.failure_kills->Increment();
    JobOutcome& outcome = metrics_.outcomes[i];
    ++outcome.retries;
    if (outcome.retries > config_.max_retries) {
      // Retry budget exhausted: drop instead of requeueing.
      ++metrics_.retries_exhausted;
      ins_.retries_exhausted->Increment();
      Retire(i, "retries-exhausted", static_cast<double>(outcome.retries),
             JsonObj()
                 .Field("node", cause_node)
                 .Field("retries", outcome.retries)
                 .str());
      return;
    }
    state_[i] = JobState::kPending;  // gang restarts from scratch
    last_kill_[i] = now_;
    SimDuration backoff = 0;
    if (config_.retry_backoff > 0) {
      backoff = std::min(config_.retry_backoff_cap,
                         config_.retry_backoff
                             << std::min(outcome.retries - 1, 30));
    }
    eligible_at_[i] = now_ + backoff;
    if (prov_.enabled()) {
      prov_.Record(ProvKind::kFailureKill, now_, victim, "node-failure",
                   static_cast<double>(outcome.retries),
                   JsonObj()
                       .Field("node", cause_node)
                       .Field("retries", outcome.retries)
                       .Field("eligible_at",
                              static_cast<int64_t>(eligible_at_[i]))
                       .str());
    }
    if (persist_ != nullptr) {
      persist_->JournalKill(now_, victim, outcome.retries, eligible_at_[i]);
    }
    Readmit(i);
  }

  // Shrink-or-drop re-admission: an accepted-SLO gang whose reserved slot can
  // no longer start on time gets one shot at a new reservation over the
  // remaining window; on rejection it is downgraded to unreserved (it keeps
  // running best-effort-style toward its deadline).
  void Readmit(int i) {
    Job& job = jobs_[i];
    if (config_.rayon == nullptr || job.slo_class != SloClass::kSloAccepted ||
        job.reservation.start >= eligible_at_[i]) {
      return;
    }
    config_.rayon->Release(job.reservation, job.k);
    if (persist_ != nullptr) {
      persist_->JournalRelease(now_, job);
    }
    RdlRequest request;
    request.requester = job.id;
    request.k = job.k;
    request.duration = job.EstimatedRuntime(/*preferred=*/true);
    request.window_start = eligible_at_[i];
    request.window_end = job.deadline;
    ReservationDecision redo = config_.rayon->Submit(request);
    JobOutcome& outcome = metrics_.outcomes[i];
    if (redo.accepted) {
      job.reservation = redo.interval;
      ++outcome.readmissions;
      ++metrics_.readmissions;
    } else {
      job.slo_class = SloClass::kSloUnreserved;
      job.reservation = {0, 0};
      outcome.reservation_dropped = true;
      ++metrics_.reservations_dropped;
    }
    if (persist_ != nullptr) {
      persist_->JournalAdmission(now_, job, redo);
    }
  }

  // Journals an epoch bump (WAL-first) and applies it to the control plane.
  void FenceNode(NodeId node) {
    if (persist_ != nullptr) {
      persist_->JournalEpochBump(now_, node, comms_.fence_epoch(node) + 1);
    }
    comms_.FenceNode(node);
  }

  // Lossy-mode recall: the detector gave up on `sus` (suspected, declared
  // dead, or observed to have silently rebooted); every believed-running gang
  // touching it is killed and requeued. Members the kill command reaches
  // release their nodes; unreachable members become an orphan copy whose
  // nodes each get a fence-epoch bump, so their agents reject any command
  // issued for the old incarnation of this placement.
  void RecallGangsOn(NodeId sus, const char* reason) {
    for (auto it = running_.begin(); it != running_.end();) {
      RunningJob& run = it->second;
      if (std::find(run.nodes.begin(), run.nodes.end(), sus) ==
          run.nodes.end()) {
        ++it;
        continue;
      }
      JobId victim = it->first;
      int i = index_[victim];
      if (prov_.enabled()) {
        prov_.Record(ProvKind::kSuspected, now_, victim, reason, 0.0,
                     JsonObj()
                         .Field("node", sus)
                         .Field("gang_nodes",
                                static_cast<int64_t>(run.nodes.size()))
                         .str());
      }
      auto dead = broken_.find(victim);
      std::vector<NodeId> killed;
      std::vector<NodeId> orphaned;
      for (NodeId member : run.nodes) {
        if (dead != broken_.end() && dead->second.count(member) != 0) {
          continue;  // copy died with its node; nothing to kill or release
        }
        if (Reachable(member) && comms_.DeliverCommand(member, now_)) {
          killed.push_back(member);
        } else {
          orphaned.push_back(member);
        }
      }
      if (!killed.empty()) {
        Release(killed);
      }
      Trace({now_, TraceEventKind::kFailureKill, victim, sus,
             static_cast<int32_t>(run.nodes.size())});
      if (!orphaned.empty()) {
        OrphanJob orphan;
        orphan.run = run;
        orphan.run.nodes = orphaned;
        orphan.run.counts = CountsOf(orphaned);
        orphan.intact = killed.empty() && broken_.count(victim) == 0;
        for (NodeId member : orphaned) {
          FenceNode(member);
        }
        orphans_[victim] = std::move(orphan);
      }
      broken_.erase(victim);
      it = running_.erase(it);
      RequeueAfterKill(i, victim, sus);
    }
  }

  // Lossy-mode reconciliation for a reachable node whose agent epoch lags its
  // fence epoch: each orphan copy on it is either adopted back wholesale
  // (survivor keeps the slot — the copy is intact, the job was never
  // re-placed, and every member is reachable) or fenced (stale tasks killed,
  // agents advance to the fence epoch). Undeliverable commands leave the
  // orphan in place: the node stays reconcilable and is retried next cycle.
  void ReconcileNode(NodeId node) {
    bool fully_reconciled = true;
    for (auto it = orphans_.begin(); it != orphans_.end();) {
      OrphanJob& orphan = it->second;
      if (std::find(orphan.run.nodes.begin(), orphan.run.nodes.end(), node) ==
          orphan.run.nodes.end()) {
        ++it;
        continue;
      }
      JobId id = it->first;
      int i = index_[id];
      bool adoptable = orphan.intact && state_[i] == JobState::kPending;
      if (adoptable) {
        for (NodeId member : orphan.run.nodes) {
          if (!Reachable(member)) {
            adoptable = false;
            break;
          }
        }
      }
      if (adoptable) {
        bool delivered = true;
        for (NodeId member : orphan.run.nodes) {
          if (!comms_.DeliverCommand(member, now_)) {
            delivered = false;
            break;
          }
        }
        if (!delivered) {
          fully_reconciled = false;
          ++it;
          continue;  // retry next cycle; epochs unchanged
        }
        RunningJob run = orphan.run;
        it = orphans_.erase(it);
        for (NodeId member : run.nodes) {
          comms_.AgentAdoptEpoch(member);
        }
        ++metrics_.orphans_adopted;
        state_[i] = JobState::kRunning;
        ClearKillGap(i);
        if (prov_.enabled()) {
          prov_.Record(ProvKind::kReconciled, now_, id, "adopted",
                       static_cast<double>(run.nodes.size()),
                       JsonObj()
                           .Field("node", node)
                           .Field("start", static_cast<int64_t>(run.start))
                           .str());
        }
        if (persist_ != nullptr) {
          persist_->JournalLaunch(
              now_, {id, run.counts, run.expected_end - run.start},
              run.start);
        }
        if (run.actual_end <= now_) {
          // The copy finished while orphaned; the completion surfaces with
          // the reconciliation (its report needed a reachable control
          // plane). Requeue it at `now_` — the stale-entry check accepts it
          // because actual_end is rewritten to match.
          run.actual_end = now_;
        }
        completions_.push({run.actual_end, id});
        running_[id] = std::move(run);
        continue;
      }
      std::vector<NodeId> fenced;
      std::vector<NodeId> remaining;
      for (NodeId member : orphan.run.nodes) {
        if (Reachable(member) && comms_.DeliverCommand(member, now_)) {
          fenced.push_back(member);
          comms_.AgentAdoptEpoch(member);
        } else {
          remaining.push_back(member);
        }
      }
      if (!fenced.empty()) {
        Release(fenced);
        metrics_.fenced_tasks += static_cast<int>(fenced.size());
        orphan.intact = false;
        if (prov_.enabled()) {
          prov_.Record(ProvKind::kFenced, now_, id, "stale-epoch",
                       static_cast<double>(fenced.size()),
                       JsonObj()
                           .Field("node", node)
                           .Field("remaining",
                                  static_cast<int64_t>(remaining.size()))
                           .str());
        }
      }
      if (remaining.empty()) {
        it = orphans_.erase(it);
      } else {
        fully_reconciled = false;
        orphan.run.nodes = std::move(remaining);
        orphan.run.counts = CountsOf(orphan.run.nodes);
        ++it;
      }
    }
    if (fully_reconciled) {
      // Nothing stale remains on this node: its agent accepts the current
      // epoch, clearing the reconcilable flag.
      comms_.AgentAdoptEpoch(node);
    }
  }

  // The §15 belief invariant, checked at every cycle boundary under a lossy
  // control plane: every occupied ledger node is owned by exactly one copy
  // (believed-running gang, orphan, or failed-node hold), and no node is
  // claimed twice. Double-occupancy or a lost slot is a bug, never a
  // consequence of message loss.
  void CheckBeliefInvariants() {
    std::vector<int> owners(cluster_.num_nodes(), 0);
    for (const auto& [id, run] : running_) {
      auto dead = broken_.find(id);
      for (NodeId member : run.nodes) {
        if (dead != broken_.end() && dead->second.count(member) != 0) {
          continue;  // believed-held only; the copy died with its node
        }
        ++owners[member];
      }
    }
    for (const auto& [id, orphan] : orphans_) {
      for (NodeId member : orphan.run.nodes) {
        ++owners[member];
      }
    }
    for (const auto& [node, recover_at] : failed_nodes_) {
      ++owners[node];
    }
    for (NodeId node = 0; node < cluster_.num_nodes(); ++node) {
      const bool occupied = !ledger_.is_free(node);
      if (owners[node] > 1 || occupied != (owners[node] == 1)) {
        ++metrics_.belief_invariant_violations;
        TETRI_LOG(kError) << "belief invariant violated at t=" << now_
                          << ": node " << node << " has " << owners[node]
                          << " owners, ledger "
                          << (occupied ? "occupied" : "free");
      }
    }
  }

  // Crash + recovery: the scheduler process dies, losing all RM-side state
  // (policy internals, Rayon agenda, retry/backoff, estimator). Cluster ground
  // truth — the ledger, running gangs, the jobs themselves — survives
  // (work-preserving restart). Recovery rebuilds the RM view from snapshot +
  // journal replay, reconciles it against the surviving cluster, re-validates
  // it, and checkpoints the reconciled image so the journal restarts clean.
  void RecoverScheduler(CrashPhase phase) {
    auto wall_start = std::chrono::steady_clock::now();
    ++metrics_.scheduler_crashes;
    ins_.scheduler_crashes->Increment();
    Trace({now_, TraceEventKind::kSchedulerCrash, -1, -1,
           static_cast<int32_t>(phase)});
    TETRI_LOG(kInfo) << "scheduler crash injected at t=" << now_ << " (phase "
                     << ToString(phase) << "); recovering";
    prov_.Record(ProvKind::kCrash, now_, -1, ToString(phase));

    RecoveryResult rec = persist_->Recover();
    RecoveredState st = std::move(rec.state);

    // 1. Rayon admission agenda.
    if (config_.rayon != nullptr) {
      config_.rayon->Restore(st.rayon);
    }
    // 2. SLO classes/reservations mutated since admission (re-admissions).
    for (const auto& [id, slo] : st.slo) {
      auto it = index_.find(id);
      if (it == index_.end()) {
        continue;
      }
      jobs_[it->second].slo_class = static_cast<SloClass>(slo.slo_class);
      jobs_[it->second].reservation = slo.reservation;
    }
    // 3. Retry/backoff state.
    for (const auto& [id, retry] : st.retries) {
      auto it = index_.find(id);
      if (it == index_.end()) {
        continue;
      }
      eligible_at_[it->second] = retry.eligible_at;
      last_kill_[it->second] = retry.last_kill;
    }
    // 4. Runtime estimator: retrained from the journaled completion stream
    //    in original observation order.
    if (config_.learn_estimates) {
      estimator_ = RuntimeEstimator();
      for (const CompletionRecord& completion : st.completions) {
        auto it = index_.find(completion.job);
        if (it != index_.end()) {
          estimator_.Observe(jobs_[it->second], completion.preferred,
                             completion.runtime);
        }
      }
    }
    // 4b. Fence epochs (DESIGN.md §15): kEpochBump records journal each bump
    //     *before* the in-memory table changes, so the recovered table is
    //     always >= any epoch a node agent may have adopted — a restart can
    //     never issue commands under a stale epoch and resurrect a fenced
    //     placement. Max-merge because the in-process control plane also
    //     survives the simulated crash.
    comms_.RestoreFenceEpochs(st.epochs);
    // 5. Reconcile the recovered RM view against cluster ground truth.
    ReconcileRecoveredRunning(st);

    // 6. Fresh scheduler process: rebuild the policy, import durable state.
    if (config_.policy_factory) {
      owned_policy_ = config_.policy_factory();
      policy_ = owned_policy_.get();
    }
    policy_->ImportDurableState(st.policy_state);

    // 7. Post-recovery validation.
    ValidateRecoveredRunning(st);

    // 8. The reconciled image is the new checkpoint; the journal restarts
    //    empty, so a crash during recovery replays to the same state.
    st.checkpoint_time = now_;
    persist_->Checkpoint(std::move(st));

    ++metrics_.recoveries;
    metrics_.journal_replayed += rec.replayed;
    metrics_.journal_dropped += rec.dropped;
    double ms = std::chrono::duration<double, std::milli>(
                    std::chrono::steady_clock::now() - wall_start)
                    .count();
    metrics_.recovery_ms.Add(ms);
    Trace({now_, TraceEventKind::kRecover, -1, -1, rec.replayed, ms});
    if (prov_.enabled()) {
      prov_.Record(ProvKind::kRecovery, now_, -1, "",
                   static_cast<double>(rec.replayed),
                   JsonObj()
                       .Field("replayed", rec.replayed)
                       .Field("dropped", rec.dropped)
                       .Field("snapshot_loaded", rec.snapshot_loaded)
                       .Field("ms", ms)
                       .str());
    }
  }

  // A gang the cluster runs but the journal never confirmed must come from a
  // commit interrupted between mutation and its kGangLaunch record — adopt it
  // from the pending intent. A gang the journal believes running but the
  // cluster does not is dropped from the recovered view.
  void ReconcileRecoveredRunning(RecoveredState& st) {
    for (const auto& [id, run] : running_) {
      if (st.running.count(id) != 0) {
        continue;
      }
      GangRecord gang;
      bool adopted = false;
      if (st.pending_intent.has_value()) {
        for (const GangRecord& g : st.pending_intent->gangs) {
          if (g.job == id) {
            gang = g;
            adopted = true;
            break;
          }
        }
      }
      if (adopted) {
        ++metrics_.recovery_adoptions;
      } else {
        ++metrics_.recovery_mismatches;
        TETRI_LOG(kWarning)
            << "recovery: adopting unjournaled running gang of job " << id
            << " from cluster ground truth";
        gang = {id, run.counts, run.start, run.expected_end,
                run.expected_end - run.start};
      }
      st.running[id] = std::move(gang);
    }
    for (auto it = st.running.begin(); it != st.running.end();) {
      if (running_.count(it->first) == 0) {
        ++metrics_.recovery_mismatches;
        TETRI_LOG(kWarning) << "recovery: journal believes job " << it->first
                            << " is running but the cluster does not";
        it = st.running.erase(it);
      } else {
        ++it;
      }
    }
    st.pending_intent.reset();
  }

  // The recovered running set, re-checked as a plan against full capacity
  // minus failed nodes. Zero violations is the recovery invariant.
  void ValidateRecoveredRunning(const RecoveredState& st) {
    std::vector<const Job*> believed_running;
    std::vector<Placement> recovered_plan;
    for (const auto& [id, gang] : st.running) {
      believed_running.push_back(&jobs_[index_.at(id)]);
      recovered_plan.push_back({id, gang.counts, gang.est_duration});
    }
    std::vector<RunningHold> failed_holds;
    for (const auto& [node, recover_at] : failed_nodes_) {
      failed_holds.push_back(FailedNodeHold(cluster_, node, recover_at));
    }
    for (const PlanViolation& violation : ValidatePlan(
             cluster_, believed_running, failed_holds, recovered_plan)) {
      ++metrics_.validator_violations;
      ins_.validator_violations->Increment();
      TETRI_LOG(kWarning) << "post-recovery validation: job " << violation.job
                          << ": " << violation.reason;
    }
  }

  double StraggleFactor(const std::vector<NodeId>& nodes) const {
    double factor = 1.0;
    for (const StragglerEvent& event : active_stragglers_) {
      if (std::find(nodes.begin(), nodes.end(), event.node) != nodes.end()) {
        factor = std::max(factor, event.slowdown);
      }
    }
    return factor;
  }

  std::map<PartitionId, int> CountsOf(
      const std::vector<NodeId>& nodes) const {
    std::map<PartitionId, int> counts;
    for (NodeId node : nodes) {
      ++counts[cluster_.partition_of(node)];
    }
    return counts;
  }

  // Gives a gang's nodes back to the ledger.
  void Release(const std::vector<NodeId>& nodes) {
    ledger_.Release(nodes);
    busy_nodes_ -= static_cast<int>(nodes.size());
  }

  // Whether a command to `node` can arrive at all (it may still be lost).
  bool Reachable(NodeId node) const {
    return comms_.node_up(node) && comms_.LinkUp(node, now_);
  }

  // A restart (or an adopted orphan) ends the job's kill -> restart gap.
  void ClearKillGap(int i) {
    if (last_kill_[i] >= 0) {
      SimDuration gap = now_ - last_kill_[i];
      metrics_.outcomes[i].recovery_latency += gap;
      metrics_.recovery_latency.Add(static_cast<double>(gap));
      last_kill_[i] = -1;
    }
  }

  void Trace(TraceEvent event) const {
    if (config_.trace != nullptr) {
      config_.trace->Record(event);
    }
  }

  const Cluster& cluster_;
  std::vector<Job>& jobs_;
  const SimConfig& config_;
  SimInstruments& ins_;
  ProvenanceRecorder& prov_;
  const int n_;
  SimMetrics metrics_;
  std::vector<JobState> state_;
  std::map<JobId, int> index_;

  NodeLedger ledger_;
  RuntimeEstimator estimator_;
  std::map<JobId, RunningJob> running_;
  MinHeap<std::pair<SimTime, JobId>> completions_;  // (actual end, job)

  // Fault injection. Scripted failure lists are validated up front:
  // entries with recover_at <= at, out-of-range node ids, or overlapping
  // duplicates are dropped with one warning each instead of being silently
  // skipped mid-run.
  std::vector<NodeFailure> failures_;
  size_t next_failure_ = 0;
  MinHeap<std::pair<SimTime, NodeId>> recoveries_;
  std::map<NodeId, SimTime> failed_nodes_;  // node -> recover_at
  // Fail-slow episodes activate at `at`, expire at `recover_at`, and only
  // affect gangs *started* while active.
  std::vector<StragglerEvent> stragglers_;
  size_t next_straggler_ = 0;
  std::vector<StragglerEvent> active_stragglers_;
  MinHeap<SimTime> straggler_ends_;
  // Retry/backoff state for failure-killed gangs.
  std::vector<SimTime> eligible_at_;
  std::vector<SimTime> last_kill_;

  // Lossy control plane (see the class comment).
  ControlPlane comms_;
  const bool lossy_;
  std::map<JobId, OrphanJob> orphans_;
  // Believed-running gangs with physically dead members (the copy died
  // with its node, but the scheduler has not noticed yet). Keyed by gang,
  // value = the dead members; run.nodes keeps listing them because they are
  // still part of the *belief*, so recall and the invariant check skip
  // them.
  std::map<JobId, std::set<NodeId>> broken_;
  int64_t cycle_count_ = 0;

  // Persistence and scheduler-crash harness (DESIGN.md §11). The active
  // policy is held by pointer so recovery can swap in a freshly built one.
  SchedulerPolicy* policy_;
  std::unique_ptr<SchedulerPolicy> owned_policy_;
  std::vector<SchedulerCrashEvent> crashes_;
  size_t next_crash_ = 0;
  std::unique_ptr<PersistenceManager> owned_persist_;
  PersistenceManager* persist_;

  int next_arrival_ = 0;
  int outstanding_;  // not yet completed/dropped
  SimTime now_ = 0;
  SimTime next_cycle_ = 0;
  SimTime last_event_ = 0;
  double busy_node_seconds_ = 0.0;
  int busy_nodes_ = 0;
};
// SLO-miss attribution (DESIGN.md §14): every SLO job that failed its
// deadline gets a closing kSloMiss record whose label is the attributed
// root cause and whose detail carries the evidence counts behind the
// verdict — the machine-checkable answer `tetrisched_explain --slo-misses`
// renders.
void AttributeSloMisses(ProvenanceRecorder& prov, const SimMetrics& metrics) {
  for (const JobOutcome& outcome : metrics.outcomes) {
    if (!outcome.is_slo() || outcome.MetDeadline()) {
      continue;
    }
    std::string evidence;
    const char* cause = ToString(prov.AttributeSloMiss(outcome.id, &evidence));
    prov.Record(ProvKind::kSloMiss, metrics.makespan, outcome.id, cause,
                outcome.completed ? static_cast<double>(outcome.completion -
                                                        outcome.deadline)
                                  : -1.0,  // never finished
                std::move(evidence));
  }
}

void WriteExports(const SimConfig& config) {
  UpdateProcessMetrics();
  if (!config.metrics_json_path.empty()) {
    WriteFileOrWarn(config.metrics_json_path, GlobalMetrics().ToJson());
  }
  if (!config.metrics_prom_path.empty()) {
    WriteFileOrWarn(config.metrics_prom_path,
                    GlobalMetrics().ToPrometheusText());
  }
  if (!config.trace_json_path.empty()) {
    WriteFileOrWarn(config.trace_json_path,
                    SpanCollector::Global().ToChromeTraceJson());
  }
}

}  // namespace

Simulator::Simulator(const Cluster& cluster, SchedulerPolicy& policy,
                     std::vector<Job> jobs, SimConfig config)
    : cluster_(cluster),
      policy_(policy),
      jobs_(std::move(jobs)),
      config_(config) {
  std::stable_sort(jobs_.begin(), jobs_.end(),
                   [](const Job& a, const Job& b) { return a.submit < b.submit; });
  // Export paths left empty by the caller default from the environment, so
  // `TETRISCHED_TRACE_JSON=trace.json bench/fig_churn` just works.
  auto env_default = [](std::string& field, const char* var) {
    if (field.empty()) {
      const char* value = std::getenv(var);
      if (value != nullptr && *value != '\0') {
        field = value;
      }
    }
  };
  env_default(config_.metrics_json_path, "TETRISCHED_METRICS_JSON");
  env_default(config_.metrics_prom_path, "TETRISCHED_METRICS_PROM");
  env_default(config_.trace_json_path, "TETRISCHED_TRACE_JSON");
  if (config_.provenance != SimConfig::ProvenanceMode::kOff) {
    env_default(config_.provenance_jsonl_path, "TETRISCHED_PROVENANCE_JSONL");
  }
}

SimMetrics Simulator::Run() {
  const bool exporting = !config_.metrics_json_path.empty() ||
                         !config_.metrics_prom_path.empty() ||
                         !config_.trace_json_path.empty();
  const bool prev_observability = ObservabilityEnabled();
  if (exporting) {
    SetObservabilityEnabled(true);
    if (!config_.trace_json_path.empty()) {
      // Each run's trace is self-contained: drop spans of earlier runs.
      SpanCollector::Global().Clear();
    }
  }
  // Decision provenance (DESIGN.md §14): the flight recorder runs under kOn,
  // or under kAuto when a JSONL export path is configured; kOff forces it
  // off (benches measure a provenance-free baseline this way even when the
  // environment requests an export). The caller's prior recorder state is
  // restored on exit so nested runs compose; buffered records survive the
  // restore, so tests can Snapshot() after Run().
  ProvenanceRecorder& prov = ProvenanceRecorder::Global();
  const bool prev_provenance = prov.enabled();
  const bool prov_on =
      config_.provenance == SimConfig::ProvenanceMode::kOn ||
      (config_.provenance == SimConfig::ProvenanceMode::kAuto &&
       !config_.provenance_jsonl_path.empty());
  if (prov_on) {
    prov.Enable(config_.provenance_ring);
  } else if (config_.provenance == SimConfig::ProvenanceMode::kOff) {
    prov.SetEnabled(false);
  }

  SimRun run(cluster_, policy_, jobs_, config_);
  while (!run.done()) {
    run.AdvanceTo(run.NextEvent());
    run.Arrivals();
    run.Completions();
    // Node recoveries before failures: a node recovering at exactly the
    // instant a later failure entry targets it must be back in circulation
    // first, or that failure would be silently skipped as a duplicate.
    run.NodeRecoveries();
    run.NodeFailures();
    run.Stragglers();
    run.Cycle();
  }
  SimMetrics metrics = run.Finish();

  if (prov.enabled()) {
    AttributeSloMisses(prov, metrics);
  }
  if (exporting) {
    WriteExports(config_);
    SetObservabilityEnabled(prev_observability);
  }
  if (prov_on && !config_.provenance_jsonl_path.empty()) {
    prov.ExportJsonl(config_.provenance_jsonl_path);
  }
  prov.SetEnabled(prev_provenance);
  return metrics;
}

namespace {

// Attainment over outcomes matching `match`: fraction completed by deadline.
template <typename Predicate>
double Attainment(const std::vector<JobOutcome>& outcomes, Predicate match) {
  int total = 0;
  int met = 0;
  for (const JobOutcome& outcome : outcomes) {
    if (!match(outcome)) {
      continue;
    }
    ++total;
    if (outcome.MetDeadline()) {
      ++met;
    }
  }
  return total > 0 ? static_cast<double>(met) / total : 0.0;
}

}  // namespace

double SimMetrics::AcceptedSloAttainment() const {
  return Attainment(outcomes, [](const JobOutcome& o) {
    return o.slo_class == SloClass::kSloAccepted;
  });
}

double SimMetrics::TotalSloAttainment() const {
  return Attainment(outcomes, [](const JobOutcome& o) { return o.is_slo(); });
}

double SimMetrics::UnreservedSloAttainment() const {
  return Attainment(outcomes, [](const JobOutcome& o) {
    return o.slo_class == SloClass::kSloUnreserved;
  });
}

double SimMetrics::MeanBestEffortLatency() const {
  double total = 0.0;
  int count = 0;
  for (const JobOutcome& outcome : outcomes) {
    if (outcome.is_slo() || !outcome.completed) {
      continue;
    }
    total += static_cast<double>(outcome.completion - outcome.submit);
    ++count;
  }
  return count > 0 ? total / count : 0.0;
}

int SimMetrics::CountJobs(SloClass slo_class) const {
  int count = 0;
  for (const JobOutcome& outcome : outcomes) {
    if (outcome.slo_class == slo_class) {
      ++count;
    }
  }
  return count;
}

std::string SimMetrics::Summary() const {
  std::ostringstream out;
  out << "SLO attainment: total " << FormatPercent(TotalSloAttainment(), 1.0)
      << ", accepted " << FormatPercent(AcceptedSloAttainment(), 1.0)
      << ", w/o reservation "
      << FormatPercent(UnreservedSloAttainment(), 1.0)
      << "; BE mean latency " << MeanBestEffortLatency()
      << " s; utilization " << FormatPercent(utilization, 1.0)
      << "; makespan " << makespan << " s";
  if (failure_kills > 0 || fallback_cycles > 0 || validator_violations > 0) {
    out << "; churn: " << failure_kills << " kills, " << retries_exhausted
        << " retry-exhausted, " << readmissions << " readmissions, "
        << reservations_dropped << " reservations dropped, "
        << fallback_cycles << " fallback cycles, " << validator_violations
        << " validator violations";
  }
  if (budget_blown_cycles > 0 || plan_ahead_adaptations > 0 ||
      certifier_rejects > 0) {
    out << "; budget: " << budget_blown_cycles << " blown cycles, "
        << plan_ahead_adaptations << " plan-ahead adaptations, "
        << certifier_rejects << " certifier rejects";
  }
  if (suspicions > 0 || stale_placement_bounces > 0 || fenced_tasks > 0 ||
      belief_invariant_violations > 0) {
    out << "; detector: " << suspicions << " suspicions ("
        << false_suspicions << " false), " << dead_declared << " dead, "
        << fenced_tasks << " fenced tasks, " << orphans_adopted
        << " orphans adopted, " << stale_placement_bounces
        << " stale bounces, " << belief_invariant_violations
        << " belief violations";
    if (detection_latency.count() > 0) {
      out << ", mean detection " << detection_latency.Mean() << " s";
    }
  }
  if (scheduler_crashes > 0) {
    out << "; crashes: " << scheduler_crashes << " injected, " << recoveries
        << " recoveries, " << journal_replayed << " records replayed, "
        << journal_dropped << " dropped, " << recovery_adoptions
        << " adoptions, " << recovery_mismatches << " mismatches";
  }
  return out.str();
}

}  // namespace tetrisched
