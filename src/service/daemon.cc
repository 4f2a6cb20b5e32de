#include "src/service/daemon.h"

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <limits>

#include "src/common/json.h"
#include "src/common/logging.h"
#include "src/common/metrics.h"
#include "src/core/plan_check.h"
#include "src/obs/explain.h"
#include "src/obs/provenance.h"
#include "src/service/jobspec.h"
#include "src/service/signals.h"

namespace tetrisched {

namespace {

using SteadyClock = std::chrono::steady_clock;

double MsSince(SteadyClock::time_point start) {
  return std::chrono::duration<double, std::milli>(SteadyClock::now() - start)
      .count();
}

struct ServiceInstruments {
  Counter* admitted;
  Counter* rejected;
  Counter* completed;
  Counter* dropped;
  Counter* cancelled;
  Counter* requests;
  Counter* frames;
  Counter* resyncs;
  Counter* oversized;
  Gauge* inflight;
  Gauge* connections;
  Histogram* request_ms;
  Histogram* cycle_ms;
  Counter* cycle_overruns;
};

ServiceInstruments& Instruments() {
  static ServiceInstruments instruments = [] {
    MetricsRegistry& registry = GlobalMetrics();
    ServiceInstruments i;
    i.admitted = registry.GetCounter("tetrisched_service_admitted_total");
    i.rejected = registry.GetCounter("tetrisched_service_rejected_total");
    i.completed = registry.GetCounter("tetrisched_service_completed_total");
    i.dropped = registry.GetCounter("tetrisched_service_dropped_total");
    i.cancelled = registry.GetCounter("tetrisched_service_cancelled_total");
    i.requests = registry.GetCounter("tetrisched_service_requests_total");
    i.frames = registry.GetCounter("tetrisched_net_frames_total");
    i.resyncs = registry.GetCounter("tetrisched_net_resyncs_total");
    i.oversized = registry.GetCounter("tetrisched_net_oversized_total");
    i.inflight = registry.GetGauge("tetrisched_service_inflight_total");
    i.connections = registry.GetGauge("tetrisched_service_connections");
    i.request_ms = registry.GetHistogram("tetrisched_service_request_ms");
    i.cycle_ms = registry.GetHistogram("tetrisched_service_cycle_ms");
    i.cycle_overruns =
        registry.GetCounter("tetrisched_service_cycle_overruns_total");
    return i;
  }();
  return instruments;
}

}  // namespace

SteadyClock::time_point NextCycleDue(SteadyClock::time_point due,
                                     SteadyClock::time_point ended,
                                     SteadyClock::duration period) {
  return std::max(due + period, ended);
}

int CyclePollTimeoutMs(SteadyClock::time_point now,
                       SteadyClock::time_point due) {
  if (now >= due) {
    return 0;
  }
  const auto ms =
      std::chrono::ceil<std::chrono::milliseconds>(due - now).count();
  return static_cast<int>(
      std::min<int64_t>(ms, std::numeric_limits<int>::max()));
}

const char* SchedulerDaemon::ToString(JobState state) {
  switch (state) {
    case JobState::kQueued:
      return "queued";
    case JobState::kPending:
      return "pending";
    case JobState::kRunning:
      return "running";
    case JobState::kCompleted:
      return "completed";
    case JobState::kDropped:
      return "dropped";
    case JobState::kCancelled:
      return "cancelled";
  }
  return "?";
}

SchedulerDaemon::SchedulerDaemon(DaemonOptions options)
    : options_([&options] {
        // The cycle budget defaults to the real cycle period so the solver
        // cannot overrun the serving cadence (DESIGN.md §13 reuse).
        if (options.scheduler.budget.budget_seconds == 0.0) {
          options.scheduler.budget.budget_seconds =
              static_cast<double>(options.cycle_period_ms) / 1000.0;
        }
        options.admission.cycle_period_ms =
            std::max<int64_t>(1, options.cycle_period_ms);
        return options;
      }()),
      cluster_(MakeUniformCluster(options_.racks, options_.nodes_per_rack,
                                  options_.gpu_racks)),
      scheduler_(cluster_, options_.scheduler),
      rayon_(cluster_.num_nodes()),
      intake_(options_.admission) {
  if (options_.storage != nullptr) {
    PersistOptions persist_options;
    persist_options.snapshot_every = options_.snapshot_every;
    persist_ = std::make_unique<PersistenceManager>(
        std::make_unique<ForwardingStorage>(options_.storage),
        persist_options);
  }
  if (options_.enable_provenance) {
    ProvenanceRecorder::Global().Enable(options_.provenance_ring);
  }
}

SchedulerDaemon::~SchedulerDaemon() = default;

bool SchedulerDaemon::Start() {
  RecoverFromJournal();
  bool ok = true;
  if (!options_.unix_socket_path.empty()) {
    UniqueFd fd = ListenUnix(options_.unix_socket_path);
    if (fd.valid()) {
      int raw = fd.get();
      listeners_.push_back(std::move(fd));
      loop_.Add(raw, [this, raw](uint32_t) { OnListenerReadable(raw); });
    } else {
      ok = false;
    }
  }
  if (options_.tcp_port >= 0) {
    UniqueFd fd = ListenTcpLoopback(options_.tcp_port, &bound_tcp_port_);
    if (fd.valid()) {
      int raw = fd.get();
      listeners_.push_back(std::move(fd));
      loop_.Add(raw, [this, raw](uint32_t) { OnListenerReadable(raw); });
    } else {
      ok = false;
    }
  }
  PublishStatus();
  return ok;
}

void SchedulerDaemon::RecoverFromJournal() {
  if (persist_ == nullptr) {
    return;
  }
  RecoveryResult result = persist_->Recover();
  const RecoveredState& state = result.state;
  if (!result.snapshot_loaded && result.replayed == 0) {
    // First start: seed the recovery image with the live Rayon agenda (its
    // capacity is the cluster's, which no journal record carries) and the
    // fresh policy's state, as the simulator does at run start.
    RecoveredState seed;
    seed.rayon = rayon_.ExportState();
    seed.policy_state = scheduler_.ExportDurableState();
    persist_->Checkpoint(std::move(seed));
  } else {
    now_ = state.checkpoint_time;
    rayon_.Restore(state.rayon);
    scheduler_.ImportDurableState(state.policy_state);
  }
  JobId max_id = 0;
  for (const auto& [job_id, spec_json] : state.service_jobs) {
    JsonValue spec;
    std::string error;
    if (!JsonParse(spec_json, &spec, &error)) {
      TETRI_LOG(kWarning) << "recovery: undecodable job spec for job "
                          << job_id << ": " << error;
      continue;
    }
    JobEntry entry;
    if (!JobSpecFromJson(spec, now_, &entry.job, &error)) {
      TETRI_LOG(kWarning) << "recovery: invalid job spec for job " << job_id
                          << ": " << error;
      continue;
    }
    entry.job.id = job_id;
    entry.job.slo_class = BaseSloClass(entry.job);
    entry.client = "(recovered)";
    entry.accepted_at = entry.job.submit;
    max_id = std::max(max_id, job_id);
    // Rayon's verdict survives via the journaled kSloUpdate records.
    auto slo = state.slo.find(job_id);
    if (slo != state.slo.end()) {
      entry.job.slo_class = static_cast<SloClass>(slo->second.slo_class);
      entry.job.reservation = slo->second.reservation;
    }
    if (auto gang = state.running.find(job_id);
        gang != state.running.end()) {
      // Adopt the journaled running gang: the daemon persists its RM view,
      // and (as in the paper's YARN deployment) running work survives a
      // scheduler restart. The journal holds the scheduler's estimate; the
      // true end follows from the job's actual runtime on the placement
      // quality that estimate was planned for.
      entry.state = JobState::kRunning;
      entry.start = gang->second.start;
      entry.placement = gang->second.counts;
      entry.preferred = gang->second.est_duration <=
                        entry.job.EstimatedRuntime(/*preferred=*/true);
      entry.end = entry.start + entry.job.ActualRuntime(entry.preferred);
      running_.emplace(entry.end, job_id);
      ++recovered_running_;
    } else {
      if (entry.job.wants_reservation && slo == state.slo.end()) {
        Reserve(entry.job);  // accepted but still queued at the crash
      }
      entry.state = JobState::kPending;
      pending_.push_back(job_id);
      ++recovered_pending_;
    }
    jobs_.emplace(job_id, std::move(entry));
  }
  next_job_id_ = std::max<JobId>(next_job_id_, max_id + 1);
  if (result.replayed > 0 || result.snapshot_loaded) {
    TETRI_LOG(kInfo) << "tetrischedd recovered at t=" << now_ << ": "
                     << recovered_pending_ << " pending + "
                     << recovered_running_ << " running jobs (replayed "
                     << result.replayed << " records, dropped "
                     << result.dropped << ")";
  }
  ProvenanceRecorder::Global().Record(ProvKind::kRecovery, now_, -1, "",
                                      static_cast<double>(result.replayed));
}

void SchedulerDaemon::FinalCheckpoint() {
  if (persist_ == nullptr) {
    return;
  }
  persist_->Checkpoint(now_);
  TETRI_LOG(kInfo) << "tetrischedd final checkpoint at t=" << now_ << " ("
                   << jobs_.size() << " jobs tracked)";
}

// --- serving ---------------------------------------------------------------

void SchedulerDaemon::OnListenerReadable(int listener_fd) {
  for (;;) {
    UniqueFd fd = AcceptOne(listener_fd);
    if (!fd.valid()) {
      break;
    }
    AdoptConnection(std::move(fd));
  }
}

void SchedulerDaemon::AdoptConnection(UniqueFd fd) {
  int64_t id = next_connection_id_++;
  auto connection = std::make_unique<FramedConnection>(
      std::move(fd), options_.max_frame_bytes, id);
  int raw = connection->fd();
  connections_.emplace(id, std::move(connection));
  loop_.Add(raw, [this, id](uint32_t events) {
    OnConnectionEvent(id, events);
  });
  Instruments().connections->Set(static_cast<double>(connections_.size()));
}

void SchedulerDaemon::AdoptPendingFds() {
  std::vector<UniqueFd> adopted;
  {
    std::lock_guard<std::mutex> lock(adopted_mu_);
    adopted.swap(adopted_fds_);
  }
  for (UniqueFd& fd : adopted) {
    AdoptConnection(std::move(fd));
  }
}

void SchedulerDaemon::AddConnectionFd(int fd) {
  {
    std::lock_guard<std::mutex> lock(adopted_mu_);
    adopted_fds_.emplace_back(fd);
  }
  loop_.Wakeup();
}

void SchedulerDaemon::CloseConnection(int64_t connection_id) {
  auto it = connections_.find(connection_id);
  if (it == connections_.end()) {
    return;
  }
  loop_.Remove(it->second->fd());
  connections_.erase(it);
  Instruments().connections->Set(static_cast<double>(connections_.size()));
}

void SchedulerDaemon::OnConnectionEvent(int64_t connection_id,
                                        uint32_t events) {
  auto it = connections_.find(connection_id);
  if (it == connections_.end()) {
    return;
  }
  FramedConnection& connection = *it->second;
  bool open = true;
  if (events & (EventLoop::kReadable | EventLoop::kError)) {
    FrameDecoder& decoder = connection.decoder();
    int64_t frames_before = decoder.frames_decoded();
    int64_t resyncs_before = decoder.resyncs();
    int64_t oversized_before = decoder.oversized_rejected();
    std::vector<std::string> frames;
    open = connection.ReadInto(&frames);
    Instruments().frames->Increment(decoder.frames_decoded() - frames_before);
    Instruments().resyncs->Increment(decoder.resyncs() - resyncs_before);
    Instruments().oversized->Increment(decoder.oversized_rejected() -
                                       oversized_before);
    for (const std::string& payload : frames) {
      std::string response = HandleRequest(connection_id, payload);
      if (!connection.SendFrame(response)) {
        open = false;
        break;
      }
    }
  }
  if (open && (events & EventLoop::kWritable)) {
    open = connection.FlushWrites();
  }
  if (!open || connection.closed()) {
    CloseConnection(connection_id);
    return;
  }
  loop_.SetWriteInterest(connection.fd(), connection.wants_write());
}

void SchedulerDaemon::EvictIdleConnections() {
  if (options_.idle_timeout_ms <= 0) {
    return;
  }
  auto deadline = SteadyClock::now() -
                  std::chrono::milliseconds(options_.idle_timeout_ms);
  std::vector<int64_t> evict;
  for (const auto& [id, connection] : connections_) {
    if (connection->last_activity() < deadline) {
      evict.push_back(id);
    }
  }
  for (int64_t id : evict) {
    TETRI_LOG(kInfo) << "evicting idle connection " << id;
    CloseConnection(id);
  }
}

void SchedulerDaemon::Run() {
  const auto period = std::chrono::milliseconds(options_.cycle_period_ms);
  auto next_cycle = SteadyClock::now();
  while (!stopped_) {
    loop_.PollOnce(CyclePollTimeoutMs(SteadyClock::now(), next_cycle));
    AdoptPendingFds();
    if (int signo = ConsumeTerminationSignal(); signo != 0) {
      TETRI_LOG(kInfo) << "tetrischedd caught signal " << signo
                       << "; draining and checkpointing";
      stop_requested_.store(true, std::memory_order_relaxed);
    }
    if (drain_requested_.exchange(false)) {
      draining_ = true;
    }
    if (const auto started = SteadyClock::now(); started >= next_cycle) {
      RunCycle(started);
      const auto ended = SteadyClock::now();
      if (ended > next_cycle + period) {
        // The next cycle runs on the next loop turn; the virtual clock still
        // advances once per cycle run, not per wall period.
        Instruments().cycle_overruns->Increment();
      }
      next_cycle = NextCycleDue(next_cycle, ended, period);
      EvictIdleConnections();
    }
    if (stop_requested_.load(std::memory_order_relaxed)) {
      stopped_ = true;
    }
  }
  // Best-effort flush of queued responses (shutdown acks).
  for (auto& [id, connection] : connections_) {
    connection->FlushWrites();
  }
  FinalCheckpoint();
  PublishStatus();
  listeners_.clear();
  if (!options_.unix_socket_path.empty()) {
    // A stale socket file would make the next daemon's clients connect to
    // nothing; remove it now that no listener holds it.
    ::unlink(options_.unix_socket_path.c_str());
  }
}

void SchedulerDaemon::RequestStop() {
  stop_requested_.store(true, std::memory_order_relaxed);
  loop_.Wakeup();
}

void SchedulerDaemon::RequestDrain() {
  drain_requested_.store(true, std::memory_order_relaxed);
  loop_.Wakeup();
}

// --- cycle driver ----------------------------------------------------------

void SchedulerDaemon::CompleteFinishedGangs() {
  while (!running_.empty() && running_.begin()->first <= now_) {
    const JobId job_id = running_.begin()->second;
    running_.erase(running_.begin());
    JobEntry& entry = jobs_.at(job_id);
    entry.state = JobState::kCompleted;
    ++completed_;
    Instruments().completed->Increment();
    const SimDuration runtime = entry.end - entry.start;
    if (persist_ != nullptr) {
      persist_->JournalComplete(now_, job_id, entry.preferred, runtime);
    }
    // The simulator's vocabulary: met or late against the deadline.
    ProvenanceRecorder::Global().Record(
        ProvKind::kCompleted, now_, job_id,
        now_ <= entry.job.deadline ? "met" : "late",
        static_cast<double>(runtime));
  }
}

void SchedulerDaemon::DrainIntakeIntoPending() {
  int space = options_.max_pending_jobs - static_cast<int>(pending_.size());
  if (space <= 0) {
    return;
  }
  int budget = std::min(space, options_.admission.admit_per_cycle);
  for (QueuedSubmission& submission : intake_.DrainRoundRobin(budget)) {
    JobId job_id = submission.job.id;
    auto it = jobs_.find(job_id);
    if (it == jobs_.end() || it->second.state != JobState::kQueued) {
      continue;  // cancelled while queued
    }
    JobEntry& entry = it->second;
    if (entry.job.wants_reservation) {
      Reserve(entry.job);
    }
    entry.state = JobState::kPending;
    pending_.push_back(job_id);
    // The simulator's vocabulary: SLO class, gang size, and its deadline.
    ProvenanceRecorder::Global().Record(
        ProvKind::kArrival, now_, job_id,
        tetrisched::ToString(entry.job.slo_class),
        static_cast<double>(entry.job.k),
        JsonObj()
            .Field("k", entry.job.k)
            .Field("deadline", static_cast<int64_t>(entry.job.deadline))
            .str());
  }
}

void SchedulerDaemon::Reserve(Job& job) {
  // The fallback-placement runtime estimate sizes the block, so it holds
  // even on slow nodes (the simulator's ApplyAdmission uses the preferred).
  RdlRequest request;
  request.requester = job.id;
  request.k = job.k;
  request.duration = job.EstimatedRuntime(/*preferred=*/false);
  request.window_start = now_;
  request.window_end = job.deadline;
  ReservationDecision decision = rayon_.Submit(request);
  if (decision.accepted) {
    job.slo_class = SloClass::kSloAccepted;
    job.reservation = decision.interval;
  }
  if (persist_ != nullptr) {
    persist_->JournalAdmission(now_, job, decision);
  }
}

void SchedulerDaemon::DropJob(JobId job, JobState reason, const char* why) {
  auto it = jobs_.find(job);
  if (it == jobs_.end()) {
    return;
  }
  JobEntry& entry = it->second;
  if (entry.state == JobState::kRunning) {
    running_.erase({entry.end, job});
  }
  entry.state = reason;
  entry.end = now_;
  if (reason == JobState::kCancelled) {
    ++cancelled_;
    Instruments().cancelled->Increment();
  } else {
    ++dropped_;
    Instruments().dropped->Increment();
  }
  pending_.erase(std::remove(pending_.begin(), pending_.end(), job),
                 pending_.end());
  if (persist_ != nullptr) {
    persist_->JournalDrop(now_, job);
  }
  ProvenanceRecorder::Global().Record(ProvKind::kDropped, now_, job, why);
}

void SchedulerDaemon::ApplyDecision(const SchedulerPolicy::Decision& decision) {
  // Two-phase commit (DESIGN.md §11): intent first, then per-mutation
  // records, then the applied marker with the policy's durable state.
  if (persist_ != nullptr) {
    persist_->JournalIntent(now_, decision);
  }
  // Preemptions first: they free the capacity the placements rely on.
  for (JobId job : decision.preempt) {
    PreemptJob(job);
  }
  for (const Placement& placement : decision.start_now) {
    auto it = jobs_.find(placement.job);
    if (it == jobs_.end() || it->second.state != JobState::kPending) {
      continue;
    }
    JobEntry& entry = it->second;
    entry.state = JobState::kRunning;
    entry.start = now_;
    entry.preferred = placement.preferred_belief;
    entry.placement = placement.counts;
    // The scheduler planned with an estimate; the gang really ends after
    // the job's actual runtime on this placement quality.
    entry.end = now_ + entry.job.ActualRuntime(entry.preferred);
    running_.emplace(entry.end, placement.job);
    pending_.erase(
        std::remove(pending_.begin(), pending_.end(), placement.job),
        pending_.end());
    if (persist_ != nullptr) {
      persist_->JournalLaunch(now_, placement, now_);
    }
    // As in the simulator, valued by the gang's node count. The label is
    // the scheduler's belief about placement quality: the simulator records
    // the ground truth, which the daemon never knows.
    ProvenanceRecorder::Global().Record(
        ProvKind::kStart, now_, placement.job,
        entry.preferred ? "preferred" : "fallback",
        static_cast<double>(placement.total_nodes()),
        JsonObj().Field("nodes", placement.total_nodes()).str());
  }
  for (JobId job : decision.drop) {
    DropJob(job, JobState::kDropped, "deadline unreachable");
  }

  if (persist_ != nullptr) {
    persist_->JournalApplied(now_, scheduler_.ExportDurableState());
  }
}

void SchedulerDaemon::PreemptJob(JobId job) {
  auto it = jobs_.find(job);
  if (it == jobs_.end() || it->second.state != JobState::kRunning) {
    return;
  }
  JobEntry& entry = it->second;
  running_.erase({entry.end, job});
  entry.state = JobState::kPending;  // restarts from scratch
  entry.start = -1;
  entry.end = -1;
  entry.placement.clear();
  pending_.push_back(job);
  if (persist_ != nullptr) {
    persist_->JournalPreempt(now_, job);
  }
  ProvenanceRecorder::Global().Record(ProvKind::kPreempted, now_, job,
                                      "policy-preempt");
}

void SchedulerDaemon::RunCycle(SteadyClock::time_point started) {
  if (cycles_ > 0) {
    now_ += options_.sim_seconds_per_cycle;
  }
  ++cycles_;
  CompleteFinishedGangs();
  // Queued jobs were acknowledged (and journaled), so they drain into the
  // pending set even while draining; only new submissions are refused.
  DrainIntakeIntoPending();

  std::vector<const Job*> pending_jobs;
  pending_jobs.reserve(pending_.size());
  for (JobId job : pending_) {
    auto it = jobs_.find(job);
    if (it != jobs_.end() && it->second.state == JobState::kPending) {
      pending_jobs.push_back(&it->second.job);
    }
  }
  std::vector<RunningHold> running;
  running.reserve(running_.size());
  for (const auto& [end, job_id] : running_) {
    const JobEntry& entry = jobs_.at(job_id);
    running.push_back(
        RunningJobHold(entry.job, entry.start, entry.placement, entry.end));
  }

  if (!pending_jobs.empty() || !running.empty()) {
    SchedulerPolicy::Decision decision =
        scheduler_.OnCycle(now_, pending_jobs, running, started);
    // Defense in depth: the scheduler validates internally, but the
    // service revalidates before committing anything to its ledger (the
    // acceptance bar: zero violations across restarts). The plan may use
    // what its preemptions free, so the victims' holds do not count.
    std::erase_if(running, [&](const RunningHold& hold) {
      return std::find(decision.preempt.begin(), decision.preempt.end(),
                       hold.job) != decision.preempt.end();
    });
    std::vector<PlanViolation> violations =
        ValidatePlan(cluster_, pending_jobs, running, decision.start_now);
    if (!violations.empty()) {
      validator_violations_ += static_cast<int64_t>(violations.size());
      for (const PlanViolation& violation : violations) {
        TETRI_LOG(kWarning) << "service plan violation (job "
                            << violation.job << "): " << violation.reason;
      }
      decision.start_now.clear();  // skip the cycle; replan next period
      decision.preempt.clear();
    }
    ApplyDecision(decision);
  }

  Instruments().inflight->Set(static_cast<double>(
      intake_.size() + static_cast<int64_t>(pending_.size()) +
      static_cast<int64_t>(running_.size())));
  PublishStatus();
  Instruments().cycle_ms->Observe(MsSince(started));
}

bool SchedulerDaemon::RunningIndexConsistent() const {
  std::set<std::pair<SimTime, JobId>> expected;
  for (const auto& [job_id, entry] : jobs_) {
    if (entry.state == JobState::kRunning) {
      expected.emplace(entry.end, job_id);
    }
  }
  return expected == running_;
}

// --- protocol --------------------------------------------------------------

DaemonStatus SchedulerDaemon::UnlockedStatus() const {
  DaemonStatus status;
  status.now = now_;
  status.cycles = cycles_;
  status.queued = intake_.size();
  status.pending = static_cast<int64_t>(pending_.size());
  status.running = static_cast<int64_t>(running_.size());
  status.completed = completed_;
  status.dropped = dropped_;
  status.cancelled = cancelled_;
  status.admitted_total = admitted_total_;
  status.rejected_total = rejected_total_;
  status.validator_violations = validator_violations_;
  status.draining = draining_;
  status.drained = draining_ && status.queued == 0 && status.pending == 0 &&
                   status.running == 0;
  return status;
}

void SchedulerDaemon::PublishStatus() {
  std::lock_guard<std::mutex> lock(status_mu_);
  published_status_ = UnlockedStatus();
}

DaemonStatus SchedulerDaemon::StatusSnapshot() const {
  std::lock_guard<std::mutex> lock(status_mu_);
  return published_status_;
}

JsonObj SchedulerDaemon::JobStatusJson(const JobEntry& entry) const {
  JsonObj obj;
  obj.Field("job", entry.job.id);
  obj.Field("state", ToString(entry.state));
  obj.Field("client", entry.client);
  obj.Field("type", tetrisched::ToString(entry.job.type));
  obj.Field("slo_class", tetrisched::ToString(entry.job.slo_class));
  obj.Field("k", entry.job.k);
  obj.Field("accepted_at", entry.accepted_at);
  if (entry.job.deadline != kTimeNever) {
    obj.Field("deadline", entry.job.deadline);
  }
  if (entry.start >= 0) {
    obj.Field("start", entry.start);
    obj.Field("preferred", entry.preferred);
  }
  if (entry.end >= 0 && entry.state != JobState::kRunning) {
    obj.Field("end", entry.end);
  } else if (entry.state == JobState::kRunning) {
    obj.Field("expected_end", entry.end);
  }
  if (!entry.placement.empty()) {
    JsonObj placement;
    for (const auto& [partition, count] : entry.placement) {
      placement.Field("p" + std::to_string(partition), count);
    }
    obj.FieldRaw("placement", placement.str());
  }
  return obj;
}

std::string SchedulerDaemon::HandleSubmit(const ServiceRequest& request,
                                          const std::string& client,
                                          int64_t connection_id) {
  if (draining_ || stop_requested_.load(std::memory_order_relaxed)) {
    ++rejected_total_;
    Instruments().rejected->Increment();
    return ErrorResponse(request.req_id, kErrDraining,
                         "daemon is draining; submissions are closed");
  }
  Job job;
  std::string error;
  const JsonValue* strl = request.body.Find("strl");
  if (strl != nullptr && strl->is_string()) {
    if (!JobFromStrlText(strl->string, now_, cluster_.num_partitions(), &job,
                         &error)) {
      return ErrorResponse(request.req_id, kErrBadRequest, error);
    }
    // Optional overrides alongside raw STRL (deadline_in, reservation).
    if (const JsonValue* rel = request.body.Find("deadline_in");
        rel != nullptr && rel->is_number() && rel->number > 0) {
      job.deadline = now_ + static_cast<SimTime>(rel->number);
    }
    job.wants_reservation = request.body.BoolOr("reservation", false) &&
                            job.deadline != kTimeNever;
  } else if (const JsonValue* spec = request.body.Find("job");
             spec != nullptr) {
    if (!JobSpecFromJson(*spec, now_, &job, &error)) {
      return ErrorResponse(request.req_id, kErrBadRequest, error);
    }
  } else {
    return ErrorResponse(request.req_id, kErrBadRequest,
                         "submit needs a \"job\" object or \"strl\" text");
  }
  job.id = next_job_id_++;
  job.submit = now_;
  job.slo_class = BaseSloClass(job);

  QueuedSubmission submission;
  submission.job = job;
  submission.client = client;
  submission.connection_id = connection_id;
  AdmissionVerdict verdict = intake_.Offer(std::move(submission));
  if (!verdict.admitted) {
    ++rejected_total_;
    Instruments().rejected->Increment();
    --next_job_id_;  // id was never exposed; reuse it
    return ErrorResponse(request.req_id, kErrOverloaded, verdict.reason,
                         verdict.retry_after_ms);
  }
  // Acknowledged means durable: journal the acceptance before the reply.
  if (persist_ != nullptr) {
    persist_->JournalSubmit(now_, job.id, JobSpecToJson(job));
  }
  JobEntry entry;
  entry.job = job;
  entry.state = JobState::kQueued;
  entry.client = client;
  entry.accepted_at = now_;
  jobs_.emplace(job.id, std::move(entry));
  ++admitted_total_;
  Instruments().admitted->Increment();
  Instruments().inflight->Set(static_cast<double>(
      intake_.size() + static_cast<int64_t>(pending_.size()) +
      static_cast<int64_t>(running_.size())));

  JsonObj extra;
  extra.Field("job", job.id);
  extra.Field("state", "queued");
  extra.Field("queue_depth", intake_.size());
  return OkResponse(request.req_id, extra);
}

std::string SchedulerDaemon::HandleStatus(const ServiceRequest& request) {
  if (const JsonValue* job = request.body.Find("job");
      job != nullptr && job->is_number()) {
    auto it = jobs_.find(static_cast<JobId>(job->number));
    if (it == jobs_.end()) {
      return ErrorResponse(request.req_id, kErrNotFound,
                           "no such job " +
                               std::to_string(static_cast<JobId>(
                                   job->number)));
    }
    return OkResponse(request.req_id, JobStatusJson(it->second));
  }
  DaemonStatus status = UnlockedStatus();
  JsonObj extra;
  extra.Field("now", status.now);
  extra.Field("cycles", status.cycles);
  extra.Field("queued", status.queued);
  extra.Field("pending", status.pending);
  extra.Field("running", status.running);
  extra.Field("completed", status.completed);
  extra.Field("dropped", status.dropped);
  extra.Field("cancelled", status.cancelled);
  extra.Field("admitted_total", status.admitted_total);
  extra.Field("rejected_total", status.rejected_total);
  extra.Field("validator_violations", status.validator_violations);
  extra.Field("draining", status.draining);
  extra.Field("drained", status.drained);
  extra.Field("clients", intake_.active_clients());
  extra.Field("connections", static_cast<int64_t>(connections_.size()));
  extra.Field("effective_plan_ahead", scheduler_.effective_plan_ahead());
  return OkResponse(request.req_id, extra);
}

std::string SchedulerDaemon::HandleCancel(const ServiceRequest& request) {
  const JsonValue* job_field = request.body.Find("job");
  if (job_field == nullptr || !job_field->is_number()) {
    return ErrorResponse(request.req_id, kErrBadRequest,
                         "cancel needs a numeric \"job\"");
  }
  JobId job = static_cast<JobId>(job_field->number);
  auto it = jobs_.find(job);
  if (it == jobs_.end()) {
    return ErrorResponse(request.req_id, kErrNotFound,
                         "no such job " + std::to_string(job));
  }
  JobEntry& entry = it->second;
  switch (entry.state) {
    case JobState::kQueued:
      intake_.CancelJob(job);
      [[fallthrough]];
    case JobState::kPending:
    case JobState::kRunning:
      DropJob(job, JobState::kCancelled, "client cancel");
      break;
    case JobState::kCompleted:
    case JobState::kDropped:
    case JobState::kCancelled:
      return ErrorResponse(request.req_id, kErrConflict,
                           std::string("job already ") +
                               ToString(entry.state));
  }
  JsonObj extra;
  extra.Field("job", job);
  extra.Field("state", ToString(entry.state));
  return OkResponse(request.req_id, extra);
}

std::string SchedulerDaemon::HandleExplain(const ServiceRequest& request) {
  ProvenanceRecorder& recorder = ProvenanceRecorder::Global();
  if (!recorder.enabled()) {
    return ErrorResponse(request.req_id, kErrConflict,
                         "provenance recorder is disabled "
                         "(enable_provenance=false)");
  }
  ProvLog log = ParseProvenanceJsonl(recorder.ToJsonl());
  std::string report;
  if (const JsonValue* job = request.body.Find("job");
      job != nullptr && job->is_number()) {
    report = ExplainJob(log, static_cast<int64_t>(job->number));
  } else if (const JsonValue* cycle = request.body.Find("cycle");
             cycle != nullptr && cycle->is_number()) {
    report = ExplainCycle(log, static_cast<int64_t>(cycle->number));
  } else if (request.body.BoolOr("slo_misses", false)) {
    report = ExplainSloMisses(log);
  } else {
    report = ExplainSummary(log);
  }
  JsonObj extra;
  extra.Field("report", report);
  return OkResponse(request.req_id, extra);
}

std::string SchedulerDaemon::HandleMetrics(const ServiceRequest& request) {
  UpdateProcessMetrics();
  std::string format = request.body.StringOr("format", "json");
  JsonObj extra;
  if (format == "prom" || format == "prometheus") {
    extra.Field("format", "prom");
    extra.Field("metrics", GlobalMetrics().ToPrometheusText());
  } else if (format == "json") {
    extra.Field("format", "json");
    extra.FieldRaw("metrics", GlobalMetrics().ToJson());
  } else {
    return ErrorResponse(request.req_id, kErrBadRequest,
                         "unknown metrics format: " + format);
  }
  return OkResponse(request.req_id, extra);
}

std::string SchedulerDaemon::HandleRequest(int64_t connection_id,
                                           std::string_view payload) {
  auto started = SteadyClock::now();
  Instruments().requests->Increment();
  ServiceRequest request;
  std::string error_response;
  std::string response;
  if (!ParseServiceRequest(payload, &request, &error_response)) {
    response = std::move(error_response);
  } else {
    std::string client = request.client.empty()
                             ? "conn-" + std::to_string(connection_id)
                             : request.client;
    if (request.op == "submit") {
      response = HandleSubmit(request, client, connection_id);
    } else if (request.op == "status") {
      response = HandleStatus(request);
    } else if (request.op == "cancel") {
      response = HandleCancel(request);
    } else if (request.op == "explain") {
      response = HandleExplain(request);
    } else if (request.op == "metrics") {
      response = HandleMetrics(request);
    } else if (request.op == "drain") {
      draining_ = true;
      JsonObj extra;
      extra.Field("draining", true);
      response = OkResponse(request.req_id, extra);
    } else if (request.op == "shutdown") {
      stop_requested_.store(true, std::memory_order_relaxed);
      JsonObj extra;
      extra.Field("stopping", true);
      response = OkResponse(request.req_id, extra);
    } else {
      response = ErrorResponse(request.req_id, kErrUnknownOp,
                               "unknown op: " + request.op);
    }
  }
  Instruments().request_ms->Observe(MsSince(started));
  PublishStatus();
  return response;
}

}  // namespace tetrisched
