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

// Registry-backed simulator instruments (DESIGN.md §10): per-cycle pending
// depth plus churn/outcome event counters. SimMetrics stays the per-run
// snapshot computed locally; these accumulate process-wide.
struct SimInstruments {
  Histogram* pending_depth;  // pending jobs offered to the policy per cycle
  Counter* cycles;
  Counter* fallback_cycles;
  Counter* validator_violations;
  Counter* failure_kills;
  Counter* node_failures;
  Counter* node_recoveries;
  Counter* stragglers;
  Counter* preemptions;
  Counter* retries_exhausted;
  Counter* jobs_completed;
  Counter* jobs_dropped;
  Counter* scheduler_crashes;
  // Lossy-control-plane instruments (DESIGN.md §15).
  Counter* detector_suspicions;
  Counter* detector_false_suspicions;
  Counter* detector_dead_declared;
  Counter* detector_fenced_tasks;
  Counter* detector_orphans_adopted;
  Counter* detector_stale_bounces;
  Counter* detector_heartbeats_dropped;
  Counter* detector_commands_dropped;
};

SimInstruments& Instruments() {
  MetricsRegistry& registry = GlobalMetrics();
  static const std::vector<double> kDepthBounds{
      0, 1, 2, 5, 10, 20, 50, 100, 200, 500, 1000};
  static SimInstruments instruments{
      registry.GetHistogram("tetrisched_sim_pending_depth", kDepthBounds),
      registry.GetCounter("tetrisched_sim_cycles_total"),
      registry.GetCounter("tetrisched_sim_fallback_cycles_total"),
      registry.GetCounter("tetrisched_sim_validator_violations_total"),
      registry.GetCounter("tetrisched_sim_failure_kills_total"),
      registry.GetCounter("tetrisched_sim_node_failures_total"),
      registry.GetCounter("tetrisched_sim_node_recoveries_total"),
      registry.GetCounter("tetrisched_sim_stragglers_total"),
      registry.GetCounter("tetrisched_sim_preemptions_total"),
      registry.GetCounter("tetrisched_sim_retries_exhausted_total"),
      registry.GetCounter("tetrisched_sim_jobs_completed_total"),
      registry.GetCounter("tetrisched_sim_jobs_dropped_total"),
      registry.GetCounter("tetrisched_sim_scheduler_crashes_total"),
      registry.GetCounter("tetrisched_detector_suspicions_total"),
      registry.GetCounter("tetrisched_detector_false_suspicions_total"),
      registry.GetCounter("tetrisched_detector_dead_declared_total"),
      registry.GetCounter("tetrisched_detector_fenced_tasks_total"),
      registry.GetCounter("tetrisched_detector_orphans_adopted_total"),
      registry.GetCounter("tetrisched_detector_stale_bounces_total"),
      registry.GetCounter("tetrisched_detector_heartbeats_dropped_total"),
      registry.GetCounter("tetrisched_detector_commands_dropped_total"),
  };
  return instruments;
}

const char* SloClassLabel(SloClass slo_class) {
  switch (slo_class) {
    case SloClass::kSloAccepted:
      return "slo-accepted";
    case SloClass::kSloUnreserved:
      return "slo-unreserved";
    case SloClass::kBestEffort:
      return "best-effort";
  }
  return "unknown";
}

void WriteFileOrWarn(const std::string& path, const std::string& content) {
  // Crash-atomic: a run dying mid-export must never leave a truncated
  // artifact where consumers expect a complete one.
  if (!WriteFileAtomic(path, content)) {
    TETRI_LOG(kWarning) << "cannot write export " << path;
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
  SimInstruments& sim_ins = Instruments();
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

  SimMetrics metrics;
  const int n = static_cast<int>(jobs_.size());
  std::vector<JobState> state(n, JobState::kFuture);
  std::map<JobId, int> index;
  metrics.outcomes.resize(n);
  for (int i = 0; i < n; ++i) {
    const Job& job = jobs_[i];
    index[job.id] = i;
    JobOutcome& outcome = metrics.outcomes[i];
    outcome.id = job.id;
    outcome.slo_class = job.slo_class;
    outcome.type = job.type;
    outcome.submit = job.submit;
    outcome.deadline = job.deadline;
  }

  NodeLedger ledger(cluster_);
  RuntimeEstimator estimator;
  auto trace = [&](TraceEvent event) {
    if (config_.trace != nullptr) {
      config_.trace->Record(event);
    }
  };
  std::map<JobId, RunningJob> running;
  // (actual completion time, job id), earliest first.
  std::priority_queue<std::pair<SimTime, JobId>,
                      std::vector<std::pair<SimTime, JobId>>, std::greater<>>
      completions;

  // Fault injection bookkeeping. Scripted failure lists are validated up
  // front — entries with recover_at <= at, out-of-range node ids, or
  // overlapping duplicates are dropped with one warning each instead of
  // being silently skipped mid-run.
  std::vector<NodeFailure> failures =
      NormalizeNodeFailures(cluster_, config_.node_failures);
  size_t next_failure = 0;
  std::priority_queue<std::pair<SimTime, NodeId>,
                      std::vector<std::pair<SimTime, NodeId>>, std::greater<>>
      recoveries;
  std::map<NodeId, SimTime> failed_nodes;  // node -> recover_at

  // Fail-slow (straggler) bookkeeping: episodes activate at `at`, expire at
  // `recover_at`, and only affect gangs *started* while active.
  std::vector<StragglerEvent> stragglers = config_.stragglers;
  std::stable_sort(stragglers.begin(), stragglers.end(),
                   [](const StragglerEvent& a, const StragglerEvent& b) {
                     return a.at != b.at ? a.at < b.at : a.node < b.node;
                   });
  size_t next_straggler = 0;
  std::vector<StragglerEvent> active_stragglers;
  std::priority_queue<SimTime, std::vector<SimTime>, std::greater<>>
      straggler_ends;
  auto straggle_factor = [&](const std::vector<NodeId>& nodes) {
    double factor = 1.0;
    for (const StragglerEvent& event : active_stragglers) {
      if (std::find(nodes.begin(), nodes.end(), event.node) != nodes.end()) {
        factor = std::max(factor, event.slowdown);
      }
    }
    return factor;
  };

  // Retry/backoff state for failure-killed gangs.
  std::vector<SimTime> eligible_at(n, 0);
  std::vector<SimTime> last_kill(n, -1);

  // Lossy control plane (DESIGN.md §15). When active, `running` is the
  // scheduler's *believed* running set: a gang stays in it after a member
  // node physically dies (broken, it can never complete) until the failure
  // detector suspects the node and the gang is recalled. Copies the
  // scheduler recalled but could not kill (node down, partitioned, or the
  // kill command dropped) move to `orphans`: they still occupy ledger nodes
  // — ground truth — until reconciliation either adopts them back (intact
  // copy, job still pending, every member reachable) or fences them (stale
  // epoch). With `lossy` false none of this machinery runs and the code
  // path is byte-identical to the pre-§15 simulator.
  ControlPlane comms(cluster_, config_.comms);
  const bool lossy = comms.active();
  struct OrphanJob {
    RunningJob run;
    bool intact = true;  // no member killed or physically dead: adoptable
  };
  std::map<JobId, OrphanJob> orphans;
  // Believed-running gangs with physically dead members (the copy died with
  // its node, but the scheduler has not noticed yet). Keyed by gang, value =
  // the dead members; run.nodes keeps listing them because they are still
  // part of the *belief*, so recall and the invariant check must skip them.
  std::map<JobId, std::set<NodeId>> broken;
  int64_t cycle_count = 0;
  auto counts_of = [&](const std::vector<NodeId>& nodes) {
    std::map<PartitionId, int> counts;
    for (NodeId node : nodes) {
      ++counts[cluster_.partition_of(node)];
    }
    return counts;
  };

  // Persistence and scheduler-crash harness (DESIGN.md §11). The active
  // policy is held by pointer so recovery can swap in a freshly built one.
  SchedulerPolicy* policy = &policy_;
  std::unique_ptr<SchedulerPolicy> owned_policy;
  std::vector<SchedulerCrashEvent> crashes = config_.scheduler_crashes;
  std::stable_sort(crashes.begin(), crashes.end(),
                   [](const SchedulerCrashEvent& a,
                      const SchedulerCrashEvent& b) { return a.at < b.at; });
  size_t next_crash = 0;
  std::unique_ptr<PersistenceManager> owned_persist;
  PersistenceManager* persist = config_.persist;
  if (persist == nullptr && !crashes.empty()) {
    // Crashes need a journal to recover from; default to an in-memory one.
    owned_persist = std::make_unique<PersistenceManager>(
        std::make_unique<MemoryJournalStorage>());
    persist = owned_persist.get();
  }

  // Seed the manager's recovery image with the run's starting RM view; from
  // here on every Append mirrors into it (DESIGN.md §11).
  if (persist != nullptr) {
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
    seed.policy_state = policy->ExportDurableState();
    persist->Checkpoint(std::move(seed));
  }

  int next_arrival = 0;
  int outstanding = n;  // not yet completed/dropped
  SimTime now = 0;
  SimTime next_cycle = 0;
  SimTime last_event = 0;
  double busy_node_seconds = 0.0;
  int busy_nodes = 0;

  auto advance_to = [&](SimTime t) {
    busy_node_seconds += static_cast<double>(busy_nodes) *
                         static_cast<double>(t - last_event);
    last_event = t;
  };

  // Crash + recovery: the scheduler process dies, losing all RM-side state
  // (policy internals, Rayon agenda, retry/backoff, estimator). Cluster
  // ground truth — the ledger, running gangs, the jobs themselves — survives
  // (work-preserving restart). Recovery rebuilds the RM view from snapshot +
  // journal replay, reconciles it against the surviving cluster, re-validates
  // it, and checkpoints the reconciled image so the journal restarts clean.
  auto recover_scheduler = [&](CrashPhase phase) {
    auto wall_start = std::chrono::steady_clock::now();
    ++metrics.scheduler_crashes;
    sim_ins.scheduler_crashes->Increment();
    trace({now, TraceEventKind::kSchedulerCrash, -1, -1,
           static_cast<int32_t>(phase)});
    TETRI_LOG(kInfo) << "scheduler crash injected at t=" << now << " (phase "
                     << ToString(phase) << "); recovering";
    if (prov.enabled()) {
      ProvenanceRecord record;
      record.kind = ProvKind::kCrash;
      record.time = now;
      record.label = ToString(phase);
      prov.Record(std::move(record));
    }

    RecoveryResult rec = persist->Recover();
    RecoveredState st = std::move(rec.state);

    // 1. Rayon admission agenda.
    if (config_.rayon != nullptr) {
      config_.rayon->Restore(st.rayon);
    }
    // 2. SLO classes/reservations mutated since admission (re-admissions).
    for (const auto& [id, slo] : st.slo) {
      auto it = index.find(id);
      if (it == index.end()) {
        continue;
      }
      jobs_[it->second].slo_class = static_cast<SloClass>(slo.slo_class);
      jobs_[it->second].reservation = slo.reservation;
    }
    // 3. Retry/backoff state.
    for (const auto& [id, retry] : st.retries) {
      auto it = index.find(id);
      if (it == index.end()) {
        continue;
      }
      eligible_at[it->second] = retry.eligible_at;
      last_kill[it->second] = retry.last_kill;
    }
    // 4. Runtime estimator: retrained from the journaled completion stream
    //    in original observation order.
    if (config_.learn_estimates) {
      estimator = RuntimeEstimator();
      for (const CompletionRecord& completion : st.completions) {
        auto it = index.find(completion.job);
        if (it != index.end()) {
          estimator.Observe(jobs_[it->second], completion.preferred,
                            completion.runtime);
        }
      }
    }
    // 4b. Fence epochs (DESIGN.md §15): kEpochBump records journal each
    //     bump *before* the in-memory table changes, so the recovered table
    //     is always >= any epoch a node agent may have adopted — a restart
    //     can never issue commands under a stale epoch and resurrect a
    //     fenced placement. Max-merge because the in-process control plane
    //     also survives the simulated crash.
    comms.RestoreFenceEpochs(st.epochs);
    // 5. Reconcile the recovered RM view against cluster ground truth. A
    //    gang the cluster runs but the journal never confirmed must come
    //    from a commit interrupted between mutation and its kGangLaunch
    //    record — adopt it from the pending intent.
    for (const auto& [id, run] : running) {
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
        ++metrics.recovery_adoptions;
      } else {
        ++metrics.recovery_mismatches;
        TETRI_LOG(kWarning)
            << "recovery: adopting unjournaled running gang of job " << id
            << " from cluster ground truth";
        gang.job = id;
        gang.counts = run.counts;
        gang.start = run.start;
        gang.expected_end = run.expected_end;
        gang.est_duration = run.expected_end - run.start;
      }
      st.running[id] = std::move(gang);
    }
    for (auto it = st.running.begin(); it != st.running.end();) {
      if (running.count(it->first) == 0) {
        ++metrics.recovery_mismatches;
        TETRI_LOG(kWarning) << "recovery: journal believes job " << it->first
                            << " is running but the cluster does not";
        it = st.running.erase(it);
      } else {
        ++it;
      }
    }
    st.pending_intent.reset();

    // 6. Fresh scheduler process: rebuild the policy, import durable state.
    if (config_.policy_factory) {
      owned_policy = config_.policy_factory();
      policy = owned_policy.get();
    }
    policy->ImportDurableState(st.policy_state);

    // 7. Post-recovery validation: the recovered running set, re-checked as
    //    a plan against full capacity minus failed nodes. Zero violations is
    //    the recovery invariant.
    std::vector<const Job*> believed_running;
    std::vector<Placement> recovered_plan;
    for (const auto& [id, gang] : st.running) {
      believed_running.push_back(&jobs_[index[id]]);
      Placement placement;
      placement.job = id;
      placement.counts = gang.counts;
      placement.est_duration = gang.est_duration;
      recovered_plan.push_back(std::move(placement));
    }
    std::vector<RunningHold> failed_holds;
    for (const auto& [node, recover_at] : failed_nodes) {
      RunningHold hold;
      hold.job = -1000 - node;
      hold.counts[cluster_.partition_of(node)] = 1;
      hold.expected_end = recover_at;
      failed_holds.push_back(std::move(hold));
    }
    for (const PlanViolation& violation : ValidatePlan(
             cluster_, believed_running, failed_holds, recovered_plan)) {
      ++metrics.validator_violations;
      sim_ins.validator_violations->Increment();
      TETRI_LOG(kWarning) << "post-recovery validation: job " << violation.job
                          << ": " << violation.reason;
    }

    // 8. The reconciled image is the new checkpoint; the journal restarts
    //    empty, so a crash during recovery replays to the same state.
    st.checkpoint_time = now;
    persist->Checkpoint(std::move(st));

    ++metrics.recoveries;
    metrics.journal_replayed += rec.replayed;
    metrics.journal_dropped += rec.dropped;
    double ms = std::chrono::duration<double, std::milli>(
                    std::chrono::steady_clock::now() - wall_start)
                    .count();
    metrics.recovery_ms.Add(ms);
    trace({now, TraceEventKind::kRecover, -1, -1, rec.replayed, ms});
    if (prov.enabled()) {
      ProvenanceRecord record;
      record.kind = ProvKind::kRecovery;
      record.time = now;
      record.value = static_cast<double>(rec.replayed);
      record.detail = JsonObj()
                          .Field("replayed", rec.replayed)
                          .Field("dropped", rec.dropped)
                          .Field("snapshot_loaded", rec.snapshot_loaded)
                          .Field("ms", ms)
                          .str();
      prov.Record(std::move(record));
    }
  };

  // Post-kill retry/backoff bookkeeping, shared verbatim by the legacy
  // instant-detection path and the lossy recall path (oracle-mode schedules
  // stay byte-identical because both run exactly this code). The caller has
  // already released the gang's reachable nodes and erased it from
  // `running`; this decides drop-vs-requeue and journals the kill.
  auto requeue_after_kill = [&](int i, JobId victim, NodeId cause_node) {
    ++metrics.failure_kills;
    sim_ins.failure_kills->Increment();
    JobOutcome& outcome = metrics.outcomes[i];
    ++outcome.retries;
    if (outcome.retries > config_.max_retries) {
      // Retry budget exhausted: drop instead of requeueing.
      state[i] = JobState::kDropped;
      outcome.dropped = true;
      ++metrics.retries_exhausted;
      sim_ins.retries_exhausted->Increment();
      sim_ins.jobs_dropped->Increment();
      trace({now, TraceEventKind::kDrop, victim});
      if (prov.enabled()) {
        ProvenanceRecord record;
        record.kind = ProvKind::kDropped;
        record.time = now;
        record.job = victim;
        record.label = "retries-exhausted";
        record.value = static_cast<double>(outcome.retries);
        record.detail = JsonObj()
                            .Field("node", cause_node)
                            .Field("retries", outcome.retries)
                            .str();
        prov.Record(std::move(record));
      }
      if (persist != nullptr) {
        DurableEvent drop;
        drop.kind = DurableEventKind::kJobDropped;
        drop.time = now;
        drop.job = victim;
        persist->Append(drop);
      }
      --outstanding;
      return;
    }
    state[i] = JobState::kPending;  // gang restarts from scratch
    last_kill[i] = now;
    SimDuration backoff = 0;
    if (config_.retry_backoff > 0) {
      backoff = std::min(config_.retry_backoff_cap,
                         config_.retry_backoff
                             << std::min(outcome.retries - 1, 30));
    }
    eligible_at[i] = now + backoff;
    if (prov.enabled()) {
      ProvenanceRecord record;
      record.kind = ProvKind::kFailureKill;
      record.time = now;
      record.job = victim;
      record.label = "node-failure";
      record.value = static_cast<double>(outcome.retries);
      record.detail =
          JsonObj()
              .Field("node", cause_node)
              .Field("retries", outcome.retries)
              .Field("eligible_at", static_cast<int64_t>(eligible_at[i]))
              .str();
      prov.Record(std::move(record));
    }
    if (persist != nullptr) {
      DurableEvent kill;
      kill.kind = DurableEventKind::kGangKill;
      kill.time = now;
      kill.job = victim;
      kill.retries = outcome.retries;
      kill.eligible_at = eligible_at[i];
      persist->Append(kill);
    }

    // Shrink-or-drop re-admission: an accepted-SLO gang whose
    // reserved slot can no longer start on time gets one shot at a
    // new reservation over the remaining window; on rejection it is
    // downgraded to unreserved (it keeps running best-effort-style
    // toward its deadline).
    Job& job = jobs_[i];
    if (config_.rayon != nullptr &&
        job.slo_class == SloClass::kSloAccepted &&
        job.reservation.start < eligible_at[i]) {
      config_.rayon->Release(job.reservation, job.k);
      if (persist != nullptr) {
        DurableEvent release;
        release.kind = DurableEventKind::kRayonRelease;
        release.time = now;
        release.job = job.id;
        release.k = job.k;
        release.interval = job.reservation;
        persist->Append(release);
      }
      RdlRequest request;
      request.requester = job.id;
      request.k = job.k;
      request.duration = job.EstimatedRuntime(/*preferred=*/true);
      request.window_start = eligible_at[i];
      request.window_end = job.deadline;
      ReservationDecision redo = config_.rayon->Submit(request);
      if (redo.accepted) {
        job.reservation = redo.interval;
        ++outcome.readmissions;
        ++metrics.readmissions;
      } else {
        job.slo_class = SloClass::kSloUnreserved;
        job.reservation = {0, 0};
        outcome.reservation_dropped = true;
        ++metrics.reservations_dropped;
      }
      if (persist != nullptr) {
        DurableEvent admit;
        admit.kind = redo.accepted ? DurableEventKind::kRayonAdmit
                                   : DurableEventKind::kRayonReject;
        admit.time = now;
        admit.job = job.id;
        admit.k = job.k;
        admit.interval = redo.interval;
        persist->Append(admit);
        DurableEvent slo;
        slo.kind = DurableEventKind::kSloUpdate;
        slo.time = now;
        slo.job = job.id;
        slo.slo_class = static_cast<uint8_t>(job.slo_class);
        slo.interval = job.reservation;
        persist->Append(slo);
      }
    }
  };

  // Journals an epoch bump (WAL-first) and applies it to the control plane.
  auto fence_node = [&](NodeId node) {
    if (persist != nullptr) {
      DurableEvent bump;
      bump.kind = DurableEventKind::kEpochBump;
      bump.time = now;
      bump.node = node;
      bump.epoch = comms.fence_epoch(node) + 1;
      persist->Append(bump);
    }
    comms.FenceNode(node);
  };

  // Lossy-mode recall: the detector gave up on `sus` (suspected, declared
  // dead, or observed to have silently rebooted); every believed-running
  // gang touching it is killed and requeued. Members the kill command
  // reaches release their nodes; unreachable members become an orphan copy
  // whose nodes each get a fence-epoch bump, so their agents reject any
  // command issued for the old incarnation of this placement.
  auto recall_gangs_on = [&](NodeId sus, const char* reason) {
    for (auto it = running.begin(); it != running.end();) {
      RunningJob& run = it->second;
      if (std::find(run.nodes.begin(), run.nodes.end(), sus) ==
          run.nodes.end()) {
        ++it;
        continue;
      }
      JobId victim = it->first;
      int i = index[victim];
      if (prov.enabled()) {
        ProvenanceRecord record;
        record.kind = ProvKind::kSuspected;
        record.time = now;
        record.job = victim;
        record.label = reason;
        record.detail = JsonObj()
                            .Field("node", sus)
                            .Field("gang_nodes",
                                   static_cast<int64_t>(run.nodes.size()))
                            .str();
        prov.Record(std::move(record));
      }
      auto dead = broken.find(victim);
      std::vector<NodeId> killed;
      std::vector<NodeId> orphaned;
      for (NodeId member : run.nodes) {
        if (dead != broken.end() && dead->second.count(member) != 0) {
          continue;  // copy died with its node; nothing to kill or release
        }
        if (comms.node_up(member) && comms.LinkUp(member, now) &&
            comms.DeliverCommand(member, now)) {
          killed.push_back(member);
        } else {
          orphaned.push_back(member);
        }
      }
      if (!killed.empty()) {
        ledger.Release(killed);
        busy_nodes -= static_cast<int>(killed.size());
      }
      trace({now, TraceEventKind::kFailureKill, victim, sus,
             static_cast<int32_t>(run.nodes.size())});
      if (!orphaned.empty()) {
        OrphanJob orphan;
        orphan.run = run;
        orphan.run.nodes = orphaned;
        orphan.run.counts = counts_of(orphaned);
        orphan.intact = killed.empty() && broken.count(victim) == 0;
        for (NodeId member : orphaned) {
          fence_node(member);
        }
        orphans[victim] = std::move(orphan);
      }
      broken.erase(victim);
      it = running.erase(it);
      requeue_after_kill(i, victim, sus);
    }
  };

  // Lossy-mode reconciliation for a reachable node whose agent epoch lags
  // its fence epoch: each orphan copy on it is either adopted back wholesale
  // (survivor keeps the slot — the copy is intact, the job was never
  // re-placed, and every member is reachable) or fenced (stale tasks
  // killed, agents advance to the fence epoch). Undeliverable commands
  // leave the orphan in place: the node stays reconcilable and is retried
  // next cycle.
  auto reconcile_node = [&](NodeId node) {
    bool fully_reconciled = true;
    for (auto it = orphans.begin(); it != orphans.end();) {
      OrphanJob& orphan = it->second;
      if (std::find(orphan.run.nodes.begin(), orphan.run.nodes.end(), node) ==
          orphan.run.nodes.end()) {
        ++it;
        continue;
      }
      JobId id = it->first;
      int i = index[id];
      bool adoptable = orphan.intact && state[i] == JobState::kPending;
      if (adoptable) {
        for (NodeId member : orphan.run.nodes) {
          if (!comms.node_up(member) || !comms.LinkUp(member, now)) {
            adoptable = false;
            break;
          }
        }
      }
      if (adoptable) {
        bool delivered = true;
        for (NodeId member : orphan.run.nodes) {
          if (!comms.DeliverCommand(member, now)) {
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
        it = orphans.erase(it);
        for (NodeId member : run.nodes) {
          comms.AgentAdoptEpoch(member);
        }
        ++metrics.orphans_adopted;
        state[i] = JobState::kRunning;
        JobOutcome& outcome = metrics.outcomes[i];
        if (last_kill[i] >= 0) {
          SimDuration gap = now - last_kill[i];
          outcome.recovery_latency += gap;
          metrics.recovery_latency.Add(static_cast<double>(gap));
          last_kill[i] = -1;
        }
        if (prov.enabled()) {
          ProvenanceRecord record;
          record.kind = ProvKind::kReconciled;
          record.time = now;
          record.job = id;
          record.label = "adopted";
          record.value = static_cast<double>(run.nodes.size());
          record.detail = JsonObj()
                              .Field("node", node)
                              .Field("start", static_cast<int64_t>(run.start))
                              .str();
          prov.Record(std::move(record));
        }
        if (persist != nullptr) {
          Placement adopted;
          adopted.job = id;
          adopted.counts = run.counts;
          adopted.est_duration = run.expected_end - run.start;
          persist->JournalLaunch(now, adopted, run.start);
        }
        if (run.actual_end <= now) {
          // The copy finished while orphaned; the completion surfaces with
          // the reconciliation (its report needed a reachable control
          // plane). Requeue it at `now` — the stale-entry check accepts it
          // because actual_end is rewritten to match.
          run.actual_end = now;
        }
        completions.push({run.actual_end, id});
        running[id] = std::move(run);
      } else {
        std::vector<NodeId> fenced;
        std::vector<NodeId> remaining;
        for (NodeId member : orphan.run.nodes) {
          if (comms.node_up(member) && comms.LinkUp(member, now) &&
              comms.DeliverCommand(member, now)) {
            fenced.push_back(member);
            comms.AgentAdoptEpoch(member);
          } else {
            remaining.push_back(member);
          }
        }
        if (!fenced.empty()) {
          ledger.Release(fenced);
          busy_nodes -= static_cast<int>(fenced.size());
          metrics.fenced_tasks += static_cast<int>(fenced.size());
          orphan.intact = false;
          if (prov.enabled()) {
            ProvenanceRecord record;
            record.kind = ProvKind::kFenced;
            record.time = now;
            record.job = id;
            record.label = "stale-epoch";
            record.value = static_cast<double>(fenced.size());
            record.detail =
                JsonObj()
                    .Field("node", node)
                    .Field("remaining",
                           static_cast<int64_t>(remaining.size()))
                    .str();
            prov.Record(std::move(record));
          }
        }
        if (remaining.empty()) {
          it = orphans.erase(it);
        } else {
          fully_reconciled = false;
          orphan.run.nodes = std::move(remaining);
          orphan.run.counts = counts_of(orphan.run.nodes);
          ++it;
        }
      }
    }
    if (fully_reconciled) {
      // Nothing stale remains on this node: its agent accepts the current
      // epoch, clearing the reconcilable flag.
      comms.AgentAdoptEpoch(node);
    }
  };

  // The §15 belief invariant, checked at every cycle boundary under a lossy
  // control plane: every occupied ledger node is owned by exactly one copy
  // (believed-running gang, orphan, or failed-node hold), and no node is
  // claimed twice. Double-occupancy or a lost slot is a bug, never a
  // consequence of message loss.
  auto check_belief_invariants = [&]() {
    std::vector<int> owners(cluster_.num_nodes(), 0);
    for (const auto& [id, run] : running) {
      auto dead = broken.find(id);
      for (NodeId member : run.nodes) {
        if (dead != broken.end() && dead->second.count(member) != 0) {
          continue;  // believed-held only; the copy died with its node
        }
        ++owners[member];
      }
    }
    for (const auto& [id, orphan] : orphans) {
      for (NodeId member : orphan.run.nodes) {
        ++owners[member];
      }
    }
    for (const auto& [node, recover_at] : failed_nodes) {
      ++owners[node];
    }
    for (NodeId node = 0; node < cluster_.num_nodes(); ++node) {
      const bool occupied = !ledger.is_free(node);
      if (owners[node] > 1 || occupied != (owners[node] == 1)) {
        ++metrics.belief_invariant_violations;
        TETRI_LOG(kError) << "belief invariant violated at t=" << now
                          << ": node " << node << " has " << owners[node]
                          << " owners, ledger "
                          << (occupied ? "occupied" : "free");
      }
    }
  };

  while (outstanding > 0 && now <= config_.max_time) {
    SimTime next_event = next_cycle;
    if (next_arrival < n) {
      next_event = std::min(next_event, jobs_[next_arrival].submit);
    }
    if (!completions.empty()) {
      next_event = std::min(next_event, completions.top().first);
    }
    if (next_failure < failures.size()) {
      next_event = std::min(next_event, failures[next_failure].at);
    }
    if (!recoveries.empty()) {
      next_event = std::min(next_event, recoveries.top().first);
    }
    if (next_straggler < stragglers.size()) {
      next_event = std::min(next_event, stragglers[next_straggler].at);
    }
    if (!straggler_ends.empty()) {
      next_event = std::min(next_event, straggler_ends.top());
    }
    now = next_event;
    advance_to(now);

    // Arrivals.
    while (next_arrival < n && jobs_[next_arrival].submit <= now) {
      state[next_arrival] = JobState::kPending;
      trace({now, TraceEventKind::kSubmit, jobs_[next_arrival].id});
      if (prov.enabled()) {
        const Job& job = jobs_[next_arrival];
        ProvenanceRecord record;
        record.kind = ProvKind::kArrival;
        record.time = now;
        record.job = job.id;
        record.label = SloClassLabel(job.slo_class);
        record.value = static_cast<double>(job.k);
        record.detail = JsonObj()
                            .Field("k", job.k)
                            .Field("deadline", static_cast<int64_t>(job.deadline))
                            .str();
        prov.Record(std::move(record));
      }
      ++next_arrival;
    }

    // Completions.
    while (!completions.empty() && completions.top().first <= now) {
      auto [time, id] = completions.top();
      completions.pop();
      auto it = running.find(id);
      if (it == running.end() || it->second.actual_end != time) {
        continue;  // stale entry (job was preempted and rescheduled)
      }
      int i = index[id];
      ledger.Release(it->second.nodes);
      busy_nodes -= static_cast<int>(it->second.nodes.size());
      if (config_.learn_estimates) {
        estimator.Observe(jobs_[i], metrics.outcomes[i].preferred,
                          time - it->second.start);
      }
      int released = static_cast<int>(it->second.nodes.size());
      if (persist != nullptr) {
        DurableEvent complete;
        complete.kind = DurableEventKind::kGangComplete;
        complete.time = time;
        complete.job = id;
        complete.preferred = metrics.outcomes[i].preferred;
        complete.runtime = time - it->second.start;
        persist->Append(complete);
      }
      if (prov.enabled()) {
        const Job& job = jobs_[i];
        ProvenanceRecord record;
        record.kind = ProvKind::kCompleted;
        record.time = time;
        record.job = id;
        record.label = time <= job.deadline ? "met" : "late";
        record.value = static_cast<double>(time - it->second.start);
        record.detail =
            JsonObj()
                .Field("runtime", static_cast<int64_t>(time - it->second.start))
                .Field("deadline", static_cast<int64_t>(job.deadline))
                .Field("preferred", metrics.outcomes[i].preferred)
                .str();
        prov.Record(std::move(record));
      }
      running.erase(it);
      state[i] = JobState::kCompleted;
      metrics.outcomes[i].completed = true;
      metrics.outcomes[i].completion = time;
      trace({time, TraceEventKind::kComplete, id, -1, released});
      sim_ins.jobs_completed->Increment();
      --outstanding;
    }

    // Node recoveries before failures: a node recovering at exactly the
    // instant a later failure entry targets it must be back in circulation
    // first, or that failure would be silently skipped as a duplicate.
    while (!recoveries.empty() && recoveries.top().first <= now) {
      auto [time, node] = recoveries.top();
      recoveries.pop();
      ledger.ReturnSpecific(node);
      trace({now, TraceEventKind::kNodeRecover, -1, node});
      sim_ins.node_recoveries->Increment();
      failed_nodes.erase(node);
      if (lossy) {
        // The agent reboots with a bumped incarnation; its heartbeats
        // resume from here and the detector notices on its next pass.
        comms.NodeUp(node, now);
      }
    }

    // Node failures: kill whatever ran on the node, requeue the gang under
    // the retry policy, and take the node out of circulation until recovery.
    while (next_failure < failures.size() &&
           failures[next_failure].at <= now) {
      const NodeFailure& failure = failures[next_failure++];
      if (failure.node < 0 || failure.node >= cluster_.num_nodes() ||
          failed_nodes.count(failure.node) != 0) {
        continue;
      }
      if (!ledger.is_free(failure.node) && !lossy) {
        // Oracle path: the scheduler learns of the failure instantly and
        // kills + requeues the whole gang on the spot.
        for (auto it = running.begin(); it != running.end(); ++it) {
          auto& nodes = it->second.nodes;
          if (std::find(nodes.begin(), nodes.end(), failure.node) ==
              nodes.end()) {
            continue;
          }
          JobId victim = it->first;
          int i = index[victim];
          ledger.Release(nodes);
          busy_nodes -= static_cast<int>(nodes.size());
          trace({now, TraceEventKind::kFailureKill, victim, failure.node,
                 static_cast<int32_t>(nodes.size())});
          running.erase(it);
          requeue_after_kill(i, victim, failure.node);
          break;
        }
      } else if (!ledger.is_free(failure.node)) {
        // Lossy path: the scheduler notices nothing yet. The copy on the
        // node dies with it; the rest of the gang keeps occupying its
        // nodes. A believed-running gang becomes `broken` (its completion
        // is cancelled — a gang with a dead member never finishes) and is
        // recalled only once the detector suspects the node or spots its
        // reboot. An orphan copy just shrinks.
        bool found = false;
        for (auto& [id, run] : running) {
          auto pos =
              std::find(run.nodes.begin(), run.nodes.end(), failure.node);
          if (pos == run.nodes.end()) {
            continue;
          }
          auto dead = broken.find(id);
          if (dead != broken.end() && dead->second.count(failure.node) != 0) {
            continue;  // this gang's copy there died in an earlier incarnation
          }
          broken[id].insert(failure.node);
          ledger.Release({failure.node});
          --busy_nodes;
          run.actual_end = kTimeNever;
          found = true;
          break;
        }
        if (!found) {
          for (auto it = orphans.begin(); it != orphans.end(); ++it) {
            auto& run = it->second.run;
            auto pos =
                std::find(run.nodes.begin(), run.nodes.end(), failure.node);
            if (pos == run.nodes.end()) {
              continue;
            }
            run.nodes.erase(pos);
            ledger.Release({failure.node});
            --busy_nodes;
            it->second.intact = false;
            if (run.nodes.empty()) {
              orphans.erase(it);
            } else {
              run.counts = counts_of(run.nodes);
            }
            break;
          }
        }
      }
      ledger.TakeSpecific(failure.node);
      trace({now, TraceEventKind::kNodeFail, -1, failure.node});
      sim_ins.node_failures->Increment();
      failed_nodes[failure.node] = failure.recover_at;
      if (failure.recover_at != kTimeNever) {
        recoveries.push({failure.recover_at, failure.node});
      }
      if (lossy) {
        comms.NodeDown(failure.node, now);
      }
    }

    // Fail-slow episodes: expire finished ones, then activate those due.
    if (!straggler_ends.empty() && straggler_ends.top() <= now) {
      while (!straggler_ends.empty() && straggler_ends.top() <= now) {
        straggler_ends.pop();
      }
      for (auto it = active_stragglers.begin();
           it != active_stragglers.end();) {
        if (it->recover_at <= now) {
          trace({now, TraceEventKind::kNodeSlowRecover, -1, it->node});
          it = active_stragglers.erase(it);
        } else {
          ++it;
        }
      }
    }
    while (next_straggler < stragglers.size() &&
           stragglers[next_straggler].at <= now) {
      const StragglerEvent& event = stragglers[next_straggler++];
      if (event.node < 0 || event.node >= cluster_.num_nodes() ||
          event.recover_at <= event.at || event.slowdown <= 1.0) {
        continue;
      }
      active_stragglers.push_back(event);
      straggler_ends.push(event.recover_at);
      sim_ins.stragglers->Increment();
      trace({now, TraceEventKind::kNodeSlow, -1, event.node, 0,
             event.slowdown});
    }

    if (now < next_cycle) {
      continue;
    }
    next_cycle = now + config_.cycle_period;

    // At most one injected scheduler crash per cycle, at its scheduled
    // phase. A kBeforeCycle crash loses nothing uncommitted, so recovery
    // runs first and the cycle then proceeds on the rebuilt scheduler.
    const SchedulerCrashEvent* crash = nullptr;
    if (persist != nullptr && next_crash < crashes.size() &&
        crashes[next_crash].at <= now) {
      crash = &crashes[next_crash++];
      if (crash->phase == CrashPhase::kBeforeCycle) {
        recover_scheduler(crash->phase);
        crash = nullptr;
      }
    }

    // Detector pass (DESIGN.md §15): fold heartbeat arrivals up to now,
    // apply belief transitions, then act on them — recall believed-running
    // gangs from nodes the scheduler just gave up on (or that silently
    // rebooted out from under their tasks), and reconcile reachable nodes
    // whose agents lag their fence epoch.
    if (lossy) {
      ++cycle_count;
      ControlPlane::Verdict verdict = comms.Evaluate(now, cycle_count);
      for (NodeId node : verdict.newly_suspect) {
        recall_gangs_on(node, "suspected");
      }
      for (NodeId node : verdict.newly_dead) {
        recall_gangs_on(node, "dead");  // idempotent if recalled at suspicion
      }
      for (NodeId node : verdict.rebooted) {
        recall_gangs_on(node, "rebooted");
      }
      for (NodeId node : verdict.reconcilable) {
        reconcile_node(node);
      }
    }

    // Build the policy's view.
    std::vector<const Job*> pending;
    for (int i = 0; i < n; ++i) {
      if (state[i] != JobState::kPending) {
        continue;
      }
      if (eligible_at[i] > now) {
        continue;  // still backing off after a failure kill
      }
      if (config_.learn_estimates) {
        jobs_[i].learned_estimate_preferred =
            estimator.Predict(jobs_[i], /*preferred=*/true);
        jobs_[i].learned_estimate_fallback =
            estimator.Predict(jobs_[i], /*preferred=*/false);
      }
      pending.push_back(&jobs_[i]);
    }
    std::vector<RunningHold> holds;
    holds.reserve(running.size() + failed_nodes.size());
    // Failed nodes appear to policies as unpreemptible holds lasting until
    // their recovery time. Under a lossy control plane the scheduler cannot
    // see ground truth: the holds come from the detector's believed-down
    // set instead (no recovery ETA — a suspicion carries none), so the
    // policy may plan onto capacity that is actually gone (bounced at
    // commit) and may ignore capacity that is actually fine.
    if (!lossy) {
      for (const auto& [node, recover_at] : failed_nodes) {
        RunningHold hold;
        hold.job = -1000 - node;  // synthetic id, never matches a real job
        hold.slo_class = SloClass::kSloAccepted;
        hold.reservation_end = kTimeNever;
        hold.counts[cluster_.partition_of(node)] = 1;
        hold.expected_end = recover_at;
        holds.push_back(std::move(hold));
      }
    } else {
      const std::vector<char>& down = comms.believed_down_mask();
      for (NodeId node = 0; node < cluster_.num_nodes(); ++node) {
        if (!down[node]) {
          continue;
        }
        RunningHold hold;
        hold.job = -1000 - node;  // synthetic id, never matches a real job
        hold.slo_class = SloClass::kSloAccepted;
        hold.reservation_end = kTimeNever;
        hold.counts[cluster_.partition_of(node)] = 1;
        hold.expected_end = kTimeNever;
        holds.push_back(std::move(hold));
      }
    }
    for (const auto& [id, run] : running) {
      const Job& job = jobs_[index[id]];
      SimTime reservation_end = job.slo_class == SloClass::kSloAccepted
                                    ? job.reservation.end
                                    : kTimeNever;
      holds.push_back({id, job.slo_class, run.start, reservation_end,
                       run.counts, run.expected_end});
    }

    try {
      // In-OnCycle crash phases fire from the span hook: the first entry
      // into the targeted phase's span on this thread throws.
      const char* crash_span =
          crash != nullptr ? CrashPhaseSpanName(crash->phase) : nullptr;
      if (crash_span != nullptr) {
        span_internal::ArmSpanCrashHook(crash_span,
                                        [] { throw SchedulerCrashSignal{}; });
      }
      SchedulerPolicy::Decision decision =
          policy->OnCycle(now, pending, holds);
      if (crash_span != nullptr && span_internal::SpanCrashHookArmed()) {
        // The targeted phase never ran this cycle (the degradation ladder
        // can skip phases); the crash still fires, before the commit.
        span_internal::DisarmSpanCrashHook();
        throw SchedulerCrashSignal{};
      }
      trace({now, TraceEventKind::kCycle, -1, -1,
             static_cast<int32_t>(pending.size()),
             decision.stats.cycle_seconds * 1e3});
      sim_ins.cycles->Increment();
      sim_ins.pending_depth->Observe(static_cast<double>(pending.size()));
      metrics.cycle_latency_ms.Add(decision.stats.cycle_seconds * 1e3);
      metrics.solver_latency_ms.Add(decision.stats.solver_seconds * 1e3);
      if (decision.stats.milp_vars > 0) {
        metrics.milp_vars.Add(decision.stats.milp_vars);
        metrics.milp_components.Add(decision.stats.milp_components);
      }
      if (decision.stats.used_fallback) {
        ++metrics.fallback_cycles;
        sim_ins.fallback_cycles->Increment();
        // `count` carries the degradation-ladder rung that produced the plan
        // (1 = greedy first-fit, 2 = skip), not a placement count.
        trace({now, TraceEventKind::kFallback, -1, -1,
               decision.stats.ladder_rung});
      }
      metrics.validator_violations += decision.stats.validator_rejects;
      sim_ins.validator_violations->Increment(
          decision.stats.validator_rejects);
      if (decision.stats.budget_blown) {
        ++metrics.budget_blown_cycles;
      }
      if (decision.stats.plan_ahead_adapted != 0) {
        ++metrics.plan_ahead_adaptations;
      }
      metrics.certifier_rejects += decision.stats.certifier_rejects;

      // Two-phase commit (DESIGN.md §11): journal the cycle's full intent
      // before any cluster mutation, journal each mutation after it lands,
      // and close with kCommitApplied carrying the policy's durable state.
      // A crash anywhere in between leaves an open intent that recovery
      // reconciles against what actually reached the cluster.
      if (persist != nullptr) {
        persist->JournalIntent(now, decision);
      }
      if (crash != nullptr && crash->phase == CrashPhase::kCommitIntent) {
        throw SchedulerCrashSignal{};
      }

      // Preemptions first (they free capacity the placements may rely on).
      for (JobId id : decision.preempt) {
        auto it = running.find(id);
        if (it == running.end()) {
          continue;
        }
        int i = index[id];
        ledger.Release(it->second.nodes);
        busy_nodes -= static_cast<int>(it->second.nodes.size());
        trace({now, TraceEventKind::kPreempt, id, -1,
               static_cast<int32_t>(it->second.nodes.size())});
        running.erase(it);
        state[i] = JobState::kPending;  // restarts from scratch
        ++metrics.outcomes[i].preemptions;
        ++metrics.preemptions;
        sim_ins.preemptions->Increment();
        if (prov.enabled()) {
          ProvenanceRecord record;
          record.kind = ProvKind::kPreempted;
          record.time = now;
          record.job = id;
          record.label = "policy-preempt";
          record.value = static_cast<double>(metrics.outcomes[i].preemptions);
          prov.Record(std::move(record));
        }
        if (persist != nullptr) {
          DurableEvent preempt;
          preempt.kind = DurableEventKind::kGangPreempt;
          preempt.time = now;
          preempt.job = id;
          persist->Append(preempt);
        }
      }

      for (JobId id : decision.drop) {
        auto it = index.find(id);
        if (it == index.end() || state[it->second] != JobState::kPending) {
          continue;
        }
        state[it->second] = JobState::kDropped;
        metrics.outcomes[it->second].dropped = true;
        trace({now, TraceEventKind::kDrop, id});
        sim_ins.jobs_dropped->Increment();
        if (prov.enabled()) {
          ProvenanceRecord record;
          record.kind = ProvKind::kDropped;
          record.time = now;
          record.job = id;
          record.label = "culled";
          prov.Record(std::move(record));
        }
        --outstanding;
        if (persist != nullptr) {
          DurableEvent drop;
          drop.kind = DurableEventKind::kJobDropped;
          drop.time = now;
          drop.job = id;
          persist->Append(drop);
        }
      }

      bool first_placement = true;
      for (const Placement& placement : decision.start_now) {
        // Last line of defense: the scheduler's own ValidatePlan should have
        // caught malformed placements, but a buggy policy must never corrupt
        // the ledger — reject the placement, count it, and keep running.
        auto reject = [&](const char* why) {
          ++metrics.validator_violations;
          sim_ins.validator_violations->Increment();
          trace({now, TraceEventKind::kPlanReject, placement.job});
          TETRI_LOG(kWarning) << "rejected placement of job " << placement.job
                              << ": " << why;
        };
        auto it = index.find(placement.job);
        if (it == index.end()) {
          reject("unknown job id");
          continue;
        }
        int i = it->second;
        if (state[i] != JobState::kPending) {
          reject("job is not pending");
          continue;
        }
        const Job& job = jobs_[i];
        // Availability-type jobs may legitimately place fewer tasks than k
        // (one per rack); everything else is an exact gang.
        if (placement.total_nodes() < 1 || placement.total_nodes() > job.k) {
          reject("gang size out of range");
          continue;
        }
        // A plan the scheduler built against a stale believed view is not a
        // policy bug: ground truth refuses it (the gang stays pending and is
        // replanned next cycle) without charging the validator.
        auto bounce = [&](const char* why) {
          ++metrics.stale_placement_bounces;
          trace({now, TraceEventKind::kPlanReject, placement.job});
          if (prov.enabled()) {
            ProvenanceRecord record;
            record.kind = ProvKind::kRejected;
            record.time = now;
            record.job = placement.job;
            record.label = "stale-view";
            record.detail = JsonObj().Field("why", why).str();
            prov.Record(std::move(record));
          }
        };
        bool fits = true;
        bool stale = false;
        for (const auto& [partition, count] : placement.counts) {
          if (partition < 0 || partition >= cluster_.num_partitions() ||
              count < 0) {
            fits = false;
            break;
          }
          if (!lossy) {
            if (count > ledger.free_in_partition(partition)) {
              fits = false;
              break;
            }
          } else if (count > ledger.FreeAvoiding(
                                 partition, comms.believed_down_mask())) {
            // Physically impossible (or only satisfiable by placing onto
            // believed-down nodes): the believed view was stale.
            stale = true;
            break;
          }
        }
        if (!fits) {
          reject("exceeds free partition capacity");
          continue;
        }
        if (stale) {
          bounce("capacity");
          continue;
        }

        RunningJob run;
        run.counts = placement.counts;
        if (!lossy) {
          for (const auto& [partition, count] : placement.counts) {
            std::vector<NodeId> nodes = ledger.Acquire(partition, count);
            run.nodes.insert(run.nodes.end(), nodes.begin(), nodes.end());
          }
        } else {
          bool short_take = false;
          for (const auto& [partition, count] : placement.counts) {
            std::vector<NodeId> nodes = ledger.AcquireAvoiding(
                partition, count, comms.believed_down_mask());
            run.nodes.insert(run.nodes.end(), nodes.begin(), nodes.end());
            if (static_cast<int>(nodes.size()) < count) {
              short_take = true;
              break;
            }
          }
          if (short_take) {
            ledger.Release(run.nodes);
            bounce("short-take");
            continue;
          }
          // The launch command must reach every member or none: a partial
          // gang is never started. A lost command aborts the whole launch
          // (the agent-side slots are released; the gang retries next
          // cycle).
          bool delivered = true;
          for (NodeId member : run.nodes) {
            if (!comms.DeliverCommand(member, now)) {
              delivered = false;
              break;
            }
          }
          if (!delivered) {
            ledger.Release(run.nodes);
            bounce("command-lost");
            continue;
          }
          // Delivered placement commands carry the current fence epoch;
          // accepting one adopts it.
          for (NodeId member : run.nodes) {
            comms.AgentAdoptEpoch(member);
          }
        }
        busy_nodes += static_cast<int>(run.nodes.size());

        // Ground truth runtime from the *actual* placement quality,
        // stretched by any fail-slow episode active on the gang's nodes at
        // start.
        bool preferred = IsPreferredPlacement(cluster_, job, run.counts);
        SimDuration actual = job.ActualRuntime(preferred);
        double slow = straggle_factor(run.nodes);
        if (slow > 1.0) {
          actual = static_cast<SimDuration>(
              std::llround(static_cast<double>(actual) * slow));
          ++metrics.straggler_slowed_starts;
        }
        run.start = now;
        run.actual_end = now + actual;
        run.expected_end = now + placement.est_duration;
        completions.push({run.actual_end, job.id});
        running[job.id] = std::move(run);

        state[i] = JobState::kRunning;
        trace({now, TraceEventKind::kStart, job.id, -1,
               placement.total_nodes()});
        JobOutcome& outcome = metrics.outcomes[i];
        outcome.started = true;
        if (outcome.start_time < 0) {
          outcome.start_time = now;
        }
        if (last_kill[i] >= 0) {
          SimDuration gap = now - last_kill[i];
          outcome.recovery_latency += gap;
          metrics.recovery_latency.Add(static_cast<double>(gap));
          last_kill[i] = -1;
        }
        outcome.preferred = preferred;
        outcome.placement = placement.counts;
        if (prov.enabled()) {
          // Ground-truth placement quality (the scheduler only ever saw
          // estimates); this is what SLO-miss attribution keys on.
          ProvenanceRecord record;
          record.kind = ProvKind::kStart;
          record.time = now;
          record.job = job.id;
          record.label = preferred ? "preferred" : "fallback";
          record.value = static_cast<double>(placement.total_nodes());
          record.detail =
              JsonObj()
                  .Field("nodes", placement.total_nodes())
                  .Field("est_duration",
                         static_cast<int64_t>(placement.est_duration))
                  .Field("actual_runtime", static_cast<int64_t>(actual))
                  .Field("straggler_factor", slow)
                  .str();
          prov.Record(std::move(record));
        }

        if (first_placement) {
          first_placement = false;
          // kMidCommit: the cluster mutation landed but its kGangLaunch
          // record did not — recovery must adopt this gang from the open
          // commit intent.
          if (crash != nullptr && crash->phase == CrashPhase::kMidCommit) {
            throw SchedulerCrashSignal{};
          }
        }
        if (persist != nullptr) {
          persist->JournalLaunch(now, placement, now);
        }
      }

      if (crash != nullptr && crash->phase == CrashPhase::kMidCommit &&
          first_placement) {
        // Nothing was placed this cycle, so no launch fired the crash; it
        // still lands inside the commit window, before kCommitApplied.
        throw SchedulerCrashSignal{};
      }

      if (persist != nullptr) {
        persist->JournalApplied(now, policy->ExportDurableState());
      }
      if (crash != nullptr && crash->phase == CrashPhase::kAfterCommit) {
        throw SchedulerCrashSignal{};
      }
    } catch (const SchedulerCrashSignal&) {
      // The cycle died mid-flight. Ground-truth mutations that already
      // landed stand; recovery rebuilds the RM view around them, and the
      // unapplied remainder of this cycle's plan is replanned next period.
      recover_scheduler(crash != nullptr ? crash->phase
                                         : CrashPhase::kBeforeCycle);
    }
    if (lossy) {
      check_belief_invariants();
    }
  }

  if (now > config_.max_time) {
    TETRI_LOG(kWarning) << "simulation hit max_time with " << outstanding
                        << " jobs outstanding";
  }
  if (lossy) {
    const ControlPlane::Counters& cc = comms.counters();
    metrics.suspicions = static_cast<int>(cc.suspicions);
    metrics.false_suspicions = static_cast<int>(cc.false_suspicions);
    metrics.dead_declared = static_cast<int>(cc.dead_declared);
    metrics.heartbeats_dropped = cc.heartbeats_dropped;
    metrics.commands_dropped = cc.commands_dropped;
    metrics.stale_command_rejects = cc.stale_command_rejects;
    for (double latency : comms.detection_latencies()) {
      metrics.detection_latency.Add(latency);
    }
    sim_ins.detector_suspicions->Increment(cc.suspicions);
    sim_ins.detector_false_suspicions->Increment(cc.false_suspicions);
    sim_ins.detector_dead_declared->Increment(cc.dead_declared);
    sim_ins.detector_fenced_tasks->Increment(metrics.fenced_tasks);
    sim_ins.detector_orphans_adopted->Increment(metrics.orphans_adopted);
    sim_ins.detector_stale_bounces->Increment(
        metrics.stale_placement_bounces);
    sim_ins.detector_heartbeats_dropped->Increment(cc.heartbeats_dropped);
    sim_ins.detector_commands_dropped->Increment(cc.commands_dropped);
  }
  metrics.makespan = now;
  metrics.utilization =
      metrics.makespan > 0
          ? busy_node_seconds / (static_cast<double>(cluster_.num_nodes()) *
                                 static_cast<double>(metrics.makespan))
          : 0.0;

  if (prov.enabled()) {
    // SLO-miss attribution (DESIGN.md §14): every SLO job that failed its
    // deadline gets a closing kSloMiss record whose label is the attributed
    // root cause and whose detail carries the evidence counts behind the
    // verdict — the machine-checkable answer `tetrisched_explain
    // --slo-misses` renders.
    for (const JobOutcome& outcome : metrics.outcomes) {
      if (!outcome.is_slo() || outcome.MetDeadline()) {
        continue;
      }
      ProvenanceRecord record;
      record.kind = ProvKind::kSloMiss;
      record.time = now;
      record.job = outcome.id;
      std::string evidence;
      record.label = ToString(prov.AttributeSloMiss(outcome.id, &evidence));
      record.detail = std::move(evidence);
      record.value = outcome.completed
                         ? static_cast<double>(outcome.completion -
                                               outcome.deadline)
                         : -1.0;  // never finished
      prov.Record(std::move(record));
    }
  }

  if (exporting) {
    UpdateProcessMetrics();
    if (!config_.metrics_json_path.empty()) {
      WriteFileOrWarn(config_.metrics_json_path, GlobalMetrics().ToJson());
    }
    if (!config_.metrics_prom_path.empty()) {
      WriteFileOrWarn(config_.metrics_prom_path,
                      GlobalMetrics().ToPrometheusText());
    }
    if (!config_.trace_json_path.empty()) {
      WriteFileOrWarn(config_.trace_json_path,
                      SpanCollector::Global().ToChromeTraceJson());
    }
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
