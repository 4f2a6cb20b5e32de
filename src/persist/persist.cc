#include "src/persist/persist.h"

#include <chrono>

#include "src/common/logging.h"
#include "src/common/metrics.h"
#include "src/obs/provenance.h"

namespace tetrisched {
namespace {

// Registry-backed persistence instruments (DESIGN.md §10). Process-wide,
// like every other tetrisched_* instrument; SimMetrics keeps per-run copies.
struct PersistInstruments {
  Counter* appends;
  Counter* snapshots;
  Counter* recoveries;
  Counter* replayed;
  Counter* dropped;
  Histogram* recovery_ms;
  Histogram* replay_records;
};

PersistInstruments& Instruments() {
  MetricsRegistry& registry = GlobalMetrics();
  static const std::vector<double> kRecordBounds{
      0, 1, 2, 5, 10, 20, 50, 100, 200, 500, 1000, 2000, 5000, 10000};
  static PersistInstruments instruments{
      registry.GetCounter("tetrisched_persist_journal_appends_total"),
      registry.GetCounter("tetrisched_persist_snapshots_total"),
      registry.GetCounter("tetrisched_persist_recoveries_total"),
      registry.GetCounter("tetrisched_persist_journal_replayed_total"),
      registry.GetCounter("tetrisched_persist_journal_dropped_total"),
      registry.GetHistogram("tetrisched_persist_recovery_ms"),
      registry.GetHistogram("tetrisched_persist_replay_records",
                            kRecordBounds),
  };
  return instruments;
}

}  // namespace

PersistenceManager::PersistenceManager(
    std::unique_ptr<JournalStorage> storage, PersistOptions options)
    : storage_(std::move(storage)), options_(options) {}

int64_t PersistenceManager::Append(const DurableEvent& event) {
  storage_->AppendJournal(EncodeFrame(EncodeEvent(event)));
  ApplyEvent(image_, event);
  ++journal_records_;
  Instruments().appends->Increment();
  return journal_records_;
}

void PersistenceManager::Checkpoint(SimTime now) {
  image_.checkpoint_time = now;
  storage_->WriteSnapshot(EncodeSnapshot(image_));
  storage_->TruncateJournal();
  journal_records_ = 0;
  ++snapshots_taken_;
  Instruments().snapshots->Increment();
}

void PersistenceManager::Checkpoint(RecoveredState state) {
  image_ = std::move(state);
  Checkpoint(image_.checkpoint_time);
}

bool PersistenceManager::MaybeCheckpoint(SimTime now) {
  if (options_.snapshot_every <= 0 ||
      journal_records_ < options_.snapshot_every) {
    return false;
  }
  Checkpoint(now);
  return true;
}

namespace {

GangRecord GangOf(const Placement& placement, SimTime start) {
  return GangRecord{placement.job, placement.counts, start,
                    start + placement.est_duration, placement.est_duration};
}

DurableEvent Record(DurableEventKind kind, SimTime now, JobId job = -1) {
  DurableEvent event;
  event.kind = kind;
  event.time = now;
  event.job = job;
  return event;
}

}  // namespace

void PersistenceManager::JournalIntent(
    SimTime now, const SchedulerPolicy::Decision& decision) {
  if (decision.stats.plan_ahead_adapted != 0) {
    // AIMD adaptation record (DESIGN.md §13): informational for journal
    // inspection; the authoritative adapted state rides the kCommitApplied
    // policy blob.
    DurableEvent adapt = Record(DurableEventKind::kPlanAheadAdapt, now);
    adapt.k = decision.stats.plan_ahead_adapted;
    adapt.runtime = decision.stats.effective_plan_ahead;
    Append(adapt);
  }
  DurableEvent intent = Record(DurableEventKind::kCommitIntent, now);
  for (const Placement& placement : decision.start_now) {
    intent.gangs.push_back(GangOf(placement, now));
  }
  intent.drops = decision.drop;
  intent.preempts = decision.preempt;
  Append(intent);
}

void PersistenceManager::JournalLaunch(SimTime now, const Placement& placement,
                                       SimTime start) {
  DurableEvent launch =
      Record(DurableEventKind::kGangLaunch, now, placement.job);
  launch.gang = GangOf(placement, start);
  Append(launch);
}

void PersistenceManager::JournalApplied(SimTime now,
                                        std::string policy_state) {
  // kCommitApplied closes the cycle even when nothing was placed, so a
  // stale warm-start blob never outlives the cycle that cleared it.
  DurableEvent applied = Record(DurableEventKind::kCommitApplied, now);
  applied.blob = std::move(policy_state);
  Append(applied);
  MaybeCheckpoint(now);
}

void PersistenceManager::JournalComplete(SimTime now, JobId job,
                                         bool preferred, SimDuration runtime) {
  DurableEvent complete = Record(DurableEventKind::kGangComplete, now, job);
  complete.preferred = preferred;
  complete.runtime = runtime;
  Append(complete);
}

void PersistenceManager::JournalPreempt(SimTime now, JobId job) {
  Append(Record(DurableEventKind::kGangPreempt, now, job));
}

void PersistenceManager::JournalDrop(SimTime now, JobId job) {
  Append(Record(DurableEventKind::kJobDropped, now, job));
}

void PersistenceManager::JournalKill(SimTime now, JobId job, int retries,
                                     SimTime eligible_at) {
  DurableEvent kill = Record(DurableEventKind::kGangKill, now, job);
  kill.retries = retries;
  kill.eligible_at = eligible_at;
  Append(kill);
}

void PersistenceManager::JournalRelease(SimTime now, const Job& job) {
  DurableEvent release = Record(DurableEventKind::kRayonRelease, now, job.id);
  release.k = job.k;
  release.interval = job.reservation;
  Append(release);
}

void PersistenceManager::JournalAdmission(
    SimTime now, const Job& job, const ReservationDecision& decision) {
  DurableEvent verdict =
      Record(decision.accepted ? DurableEventKind::kRayonAdmit
                               : DurableEventKind::kRayonReject,
             now, job.id);
  verdict.k = job.k;
  verdict.interval = decision.interval;
  Append(verdict);
  DurableEvent slo = Record(DurableEventKind::kSloUpdate, now, job.id);
  slo.slo_class = static_cast<uint8_t>(job.slo_class);
  slo.interval = job.reservation;
  Append(slo);
}

void PersistenceManager::JournalEpochBump(SimTime now, NodeId node,
                                          uint64_t epoch) {
  DurableEvent bump = Record(DurableEventKind::kEpochBump, now);
  bump.node = node;
  bump.epoch = epoch;
  Append(bump);
}

void PersistenceManager::JournalSubmit(SimTime now, JobId job,
                                       std::string spec) {
  DurableEvent submit = Record(DurableEventKind::kServiceSubmit, now, job);
  submit.blob = std::move(spec);
  Append(submit);
}

RecoveryResult PersistenceManager::Recover() {
  auto start = std::chrono::steady_clock::now();
  RecoveryResult result;

  std::string snapshot_bytes = storage_->ReadSnapshot();
  if (!snapshot_bytes.empty()) {
    if (DecodeSnapshot(snapshot_bytes, &result.state)) {
      result.snapshot_loaded = true;
    } else {
      // A half-written snapshot cannot exist (atomic replace); a corrupt
      // one means media damage. Recover what the journal alone holds.
      TETRI_LOG(kWarning)
          << "persist: snapshot failed to decode; replaying journal from "
             "an empty state";
      result.state = RecoveredState{};
    }
  }

  std::string journal_bytes = storage_->ReadJournal();
  DecodedJournal decoded =
      DecodeFrames(journal_bytes, options_.log_dropped);
  for (const std::string& payload : decoded.payloads) {
    DurableEvent event;
    if (!DecodeEvent(payload, &event)) {
      // CRC-clean but semantically undecodable (version skew): skip the
      // record but keep replaying — later records are independently framed.
      ++result.undecodable;
      TETRI_LOG(kWarning)
          << "persist: skipping undecodable journal record ("
          << payload.size() << " bytes)";
      continue;
    }
    ApplyEvent(result.state, event);
    ++result.replayed;
    // One provenance record per replayed journal record, so the flight
    // recorder shows exactly which durable history rebuilt the RM view.
    ProvenanceRecorder::Global().Record(ProvKind::kReplay, event.time,
                                        event.job, ToString(event.kind));
  }
  result.dropped = decoded.dropped_records;

  if (decoded.valid_bytes < journal_bytes.size()) {
    // Persist the truncation so a second recovery (or a crash during this
    // one) sees exactly the same intact prefix.
    std::string prefix = journal_bytes.substr(0, decoded.valid_bytes);
    storage_->TruncateJournal();
    storage_->AppendJournal(prefix);
  }
  journal_records_ = result.replayed;
  image_ = result.state;

  result.recover_ms =
      std::chrono::duration<double, std::milli>(
          std::chrono::steady_clock::now() - start)
          .count();
  PersistInstruments& instruments = Instruments();
  instruments.recoveries->Increment();
  instruments.replayed->Increment(result.replayed);
  if (result.dropped > 0) {
    instruments.dropped->Increment(result.dropped);
  }
  instruments.recovery_ms->Observe(result.recover_ms);
  instruments.replay_records->Observe(static_cast<double>(result.replayed));
  return result;
}

}  // namespace tetrisched
