#include "src/obs/provenance.h"

#include <algorithm>
#include <cstdlib>
#include <utility>

#include "src/common/atomic_io.h"
#include "src/common/json.h"
#include "src/common/logging.h"
#include "src/common/span.h"

namespace tetrisched {

const char* ToString(ProvKind kind) {
  switch (kind) {
    case ProvKind::kArrival:
      return "arrival";
    case ProvKind::kOffered:
      return "offered";
    case ProvKind::kCulled:
      return "culled";
    case ProvKind::kSolve:
      return "solve";
    case ProvKind::kChosen:
      return "chosen";
    case ProvKind::kDeferred:
      return "deferred";
    case ProvKind::kRejected:
      return "rejected";
    case ProvKind::kFallback:
      return "fallback";
    case ProvKind::kCertifierReject:
      return "certifier-reject";
    case ProvKind::kPlanAheadAdapt:
      return "plan-ahead-adapt";
    case ProvKind::kPreemptRescue:
      return "preempt-rescue";
    case ProvKind::kStart:
      return "start";
    case ProvKind::kPreempted:
      return "preempted";
    case ProvKind::kFailureKill:
      return "failure-kill";
    case ProvKind::kDropped:
      return "dropped";
    case ProvKind::kCompleted:
      return "completed";
    case ProvKind::kSloMiss:
      return "slo-miss";
    case ProvKind::kCrash:
      return "crash";
    case ProvKind::kRecovery:
      return "recovery";
    case ProvKind::kReplay:
      return "replay";
    case ProvKind::kSuspected:
      return "suspected";
    case ProvKind::kFenced:
      return "fenced";
    case ProvKind::kReconciled:
      return "reconciled";
  }
  return "unknown";
}

const char* ToString(SloMissCause cause) {
  switch (cause) {
    case SloMissCause::kChurnKilled:
      return "churn-killed";
    case SloMissCause::kBudgetDegraded:
      return "budget-degraded";
    case SloMissCause::kQueuedBehindCapacity:
      return "queued-behind-capacity";
    case SloMissCause::kSolverRejected:
      return "solver-rejected";
    case SloMissCause::kDeadlineUnreachable:
      return "deadline-unreachable";
    case SloMissCause::kSlowPlacement:
      return "slow-placement";
    case SloMissCause::kMisestimated:
      return "misestimated";
    case SloMissCause::kUnknown:
      return "unknown";
  }
  return "unknown";
}

std::string ProvenanceRecordToJson(const ProvenanceRecord& record) {
  JsonObj obj;
  obj.Field("seq", record.seq)
      .Field("kind", ToString(record.kind))
      .Field("cycle", record.cycle)
      .Field("time", record.time)
      .Field("ts_us", record.ts_us)
      .Field("job", record.job);
  if (record.value != 0.0) {
    obj.Field("value", record.value);
  }
  if (!record.label.empty()) {
    obj.Field("label", record.label);
  }
  if (!record.detail.empty()) {
    obj.FieldRaw("detail", record.detail);
  }
  return obj.str();
}

ProvenanceRecorder& ProvenanceRecorder::Global() {
  static ProvenanceRecorder* recorder = new ProvenanceRecorder();
  return *recorder;
}

size_t ProvenanceRecorder::RingCapacityFromEnv() {
  constexpr size_t kDefault = 65536;
  constexpr size_t kMin = 16;
  const char* raw = std::getenv("TETRISCHED_PROVENANCE_RING");
  if (raw == nullptr || raw[0] == '\0') {
    return kDefault;
  }
  char* end = nullptr;
  long long parsed = std::strtoll(raw, &end, 10);
  if (end == raw || parsed <= 0) {
    return kDefault;
  }
  return std::max<size_t>(kMin, static_cast<size_t>(parsed));
}

void ProvenanceRecorder::Enable(size_t ring_capacity) {
  std::lock_guard<std::mutex> lock(mu_);
  ring_.clear();
  jobs_.clear();
  cycle_jobs_.clear();
  next_seq_ = 0;
  dropped_ = 0;
  cycle_ = -1;
  cycle_degraded_ = false;
  capacity_ = ring_capacity > 0 ? ring_capacity : RingCapacityFromEnv();
  enabled_.store(true, std::memory_order_relaxed);
}

void ProvenanceRecorder::Disable() {
  enabled_.store(false, std::memory_order_relaxed);
}

void ProvenanceRecorder::SetEnabled(bool enabled) {
  enabled_.store(enabled, std::memory_order_relaxed);
}

void ProvenanceRecorder::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  ring_.clear();
  jobs_.clear();
  cycle_jobs_.clear();
  next_seq_ = 0;
  dropped_ = 0;
  cycle_ = -1;
  cycle_degraded_ = false;
}

void ProvenanceRecorder::BeginCycle(SimTime now, bool degraded) {
  if (!enabled()) {
    return;
  }
  std::lock_guard<std::mutex> lock(mu_);
  ++cycle_;
  // When degraded, jobs recorded later this cycle pick the taint up in
  // MarkTouched.
  cycle_degraded_ = degraded;
  cycle_jobs_.clear();
  (void)now;
}

int64_t ProvenanceRecorder::cycle() const {
  std::lock_guard<std::mutex> lock(mu_);
  return cycle_;
}

void ProvenanceRecorder::MarkTouched(int64_t job) {
  if (job < 0) {
    return;
  }
  auto [it, inserted] = cycle_jobs_.emplace(job, false);
  JobProvSummary& summary = jobs_[job];
  if (cycle_degraded_ && !it->second) {
    ++summary.degraded_cycles;
    it->second = true;
  }
  (void)inserted;
}

void ProvenanceRecorder::MarkCycleDegraded() {
  cycle_degraded_ = true;
  for (auto& [job, counted] : cycle_jobs_) {
    if (!counted) {
      ++jobs_[job].degraded_cycles;
      counted = true;
    }
  }
}

void ProvenanceRecorder::Record(ProvKind kind, SimTime time, int64_t job,
                                std::string_view label, double value,
                                std::string detail) {
  if (!enabled()) {
    return;
  }
  ProvenanceRecord record;
  record.kind = kind;
  record.time = time;
  record.job = job;
  record.value = value;
  record.label = label;
  record.detail = std::move(detail);
  Record(std::move(record));
}

void ProvenanceRecorder::Record(ProvenanceRecord record) {
  if (!enabled()) {
    return;
  }
  std::lock_guard<std::mutex> lock(mu_);
  record.seq = next_seq_++;
  if (record.cycle < 0) {
    record.cycle = cycle_;
  }
  if (record.ts_us == 0) {
    record.ts_us = span_internal::NowMicros();
  }
  MarkTouched(record.job);
  JobProvSummary* summary =
      record.job >= 0 ? &jobs_[record.job] : nullptr;
  switch (record.kind) {
    case ProvKind::kOffered:
      if (summary != nullptr) {
        ++summary->offered_cycles;
      }
      break;
    case ProvKind::kChosen:
      if (summary != nullptr) {
        ++summary->chosen_cycles;
      }
      break;
    case ProvKind::kDeferred:
      if (summary != nullptr) {
        ++summary->deferred_cycles;
      }
      break;
    case ProvKind::kRejected:
      if (summary != nullptr) {
        ++summary->rejected_cycles;
        if (record.label == "capacity") {
          ++summary->capacity_cycles;
        }
      }
      break;
    case ProvKind::kCulled:
      if (summary != nullptr) {
        summary->culled = true;
      }
      break;
    case ProvKind::kFallback:
    case ProvKind::kCertifierReject:
      MarkCycleDegraded();
      break;
    case ProvKind::kStart:
      if (summary != nullptr) {
        summary->started = true;
        summary->started_preferred = record.label == "preferred";
      }
      break;
    case ProvKind::kFailureKill:
      if (summary != nullptr) {
        ++summary->kills;
      }
      break;
    case ProvKind::kPreempted:
      if (summary != nullptr) {
        ++summary->preemptions;
      }
      break;
    default:
      break;
  }
  ring_.push_back(std::move(record));
  while (ring_.size() > capacity_) {
    ring_.pop_front();
    ++dropped_;
  }
}

size_t ProvenanceRecorder::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return ring_.size();
}

uint64_t ProvenanceRecorder::dropped() const {
  std::lock_guard<std::mutex> lock(mu_);
  return dropped_;
}

size_t ProvenanceRecorder::ring_capacity() const {
  std::lock_guard<std::mutex> lock(mu_);
  return capacity_;
}

std::vector<ProvenanceRecord> ProvenanceRecorder::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  return std::vector<ProvenanceRecord>(ring_.begin(), ring_.end());
}

JobProvSummary ProvenanceRecorder::Summary(int64_t job) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = jobs_.find(job);
  return it != jobs_.end() ? it->second : JobProvSummary{};
}

SloMissCause ProvenanceRecorder::AttributeSloMiss(
    int64_t job, std::string* detail_json) const {
  JobProvSummary s = Summary(job);
  SloMissCause cause = SloMissCause::kUnknown;
  if (s.kills > 0) {
    cause = SloMissCause::kChurnKilled;
  } else if (s.degraded_cycles > 0) {
    cause = SloMissCause::kBudgetDegraded;
  } else if (s.rejected_cycles > 0 &&
             s.capacity_cycles * 2 >= s.rejected_cycles) {
    cause = SloMissCause::kQueuedBehindCapacity;
  } else if (s.rejected_cycles > 0) {
    cause = SloMissCause::kSolverRejected;
  } else if (s.culled && !s.started) {
    cause = SloMissCause::kDeadlineUnreachable;
  } else if (s.started && !s.started_preferred) {
    cause = SloMissCause::kSlowPlacement;
  } else if (s.started) {
    cause = SloMissCause::kMisestimated;
  }
  if (detail_json != nullptr) {
    *detail_json = JsonObj()
                       .Field("offered_cycles", s.offered_cycles)
                       .Field("chosen_cycles", s.chosen_cycles)
                       .Field("deferred_cycles", s.deferred_cycles)
                       .Field("rejected_cycles", s.rejected_cycles)
                       .Field("capacity_cycles", s.capacity_cycles)
                       .Field("degraded_cycles", s.degraded_cycles)
                       .Field("kills", s.kills)
                       .Field("preemptions", s.preemptions)
                       .Field("culled", s.culled)
                       .Field("started", s.started)
                       .Field("started_preferred", s.started_preferred)
                       .str();
  }
  return cause;
}

std::string ProvenanceRecorder::ToJsonl() const {
  std::vector<ProvenanceRecord> records = Snapshot();
  std::string out;
  out.reserve(records.size() * 96);
  for (const ProvenanceRecord& record : records) {
    out += ProvenanceRecordToJson(record);
    out += "\n";
  }
  return out;
}

bool ProvenanceRecorder::ExportJsonl(const std::string& path) const {
  if (!WriteFileAtomic(path, ToJsonl())) {
    TETRI_LOG(kWarning) << "failed to export provenance JSONL to " << path;
    return false;
  }
  return true;
}

}  // namespace tetrisched
