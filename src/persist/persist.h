// Crash-tolerant scheduler state: write-ahead journaling, periodic
// snapshots, and recovery (DESIGN.md §11).
//
// PersistenceManager owns the durability policy on top of a JournalStorage
// and the one recovery image both front ends (simulator and tetrischedd)
// share:
//   * Append() frames one DurableEvent (CRC32, length-prefixed), appends it
//     to the journal, and mirrors it into image() through ApplyEvent, so the
//     image is by construction exactly what Recover() would rebuild,
//   * Checkpoint() serializes the image as the snapshot (replaced
//     crash-atomically) and truncates the journal; the RecoveredState
//     overload first replaces the image (seeding it),
//   * MaybeCheckpoint() applies the snapshot cadence
//     (PersistOptions::snapshot_every journal records),
//   * Recover() loads the snapshot, replays every intact journal record on
//     top of it, truncates a torn or corrupt tail at the first bad CRC (one
//     warning per dropped record) instead of aborting, and leaves the image
//     equal to the recovered state,
//   * JournalIntent/JournalLaunch/JournalApplied write the two-phase commit
//     records (records.h) from the policy's Decision and Placements.
//
// Recovery counters and durations flow into the global metrics registry
// (tetrisched_persist_* instruments, DESIGN.md §10).

#ifndef TETRISCHED_PERSIST_PERSIST_H_
#define TETRISCHED_PERSIST_PERSIST_H_

#include <cstdint>
#include <memory>

#include "src/core/policy.h"
#include "src/persist/journal.h"
#include "src/persist/records.h"

namespace tetrisched {

struct PersistOptions {
  // Journal records between snapshots; 0 disables automatic checkpoints
  // (the journal then grows until Checkpoint() is called explicitly).
  int snapshot_every = 256;
  // Warn per record dropped from a torn/corrupt journal tail.
  bool log_dropped = true;
};

struct RecoveryResult {
  RecoveredState state;
  bool snapshot_loaded = false;
  int replayed = 0;         // intact journal records applied
  int dropped = 0;          // torn/corrupt tail records truncated away
  int undecodable = 0;      // CRC-clean frames whose payload failed to parse
  double recover_ms = 0.0;  // wall-clock spent in Recover()
};

class PersistenceManager {
 public:
  explicit PersistenceManager(std::unique_ptr<JournalStorage> storage,
                              PersistOptions options = {});

  // Write-ahead append, mirrored into image(). Returns the number of
  // journal records accumulated since the last checkpoint.
  int64_t Append(const DurableEvent& event);

  // Snapshots the image stamped at `now` and truncates the journal.
  void Checkpoint(SimTime now);
  // Seeds the image with `state` (run start, post-crash reconciliation, a
  // daemon's first start), then snapshots it as it stands.
  void Checkpoint(RecoveredState state);

  // Checkpoint(now) iff the cadence says so; returns true when one was taken.
  bool MaybeCheckpoint(SimTime now);

  // Snapshot load + journal replay; truncates the journal's bad tail (the
  // surviving prefix is kept so a second recovery is byte-identical). The
  // image becomes the recovered state.
  RecoveryResult Recover();

  // Two-phase commit (DESIGN.md §11). JournalIntent lists the cycle's whole
  // plan before any mutation (preceded by a kPlanAheadAdapt record when the
  // policy adapted its window); JournalLaunch records one gang after it
  // landed on the cluster, started at `start`; JournalApplied closes the
  // cycle with the policy's durable state and applies the snapshot cadence.
  void JournalIntent(SimTime now, const SchedulerPolicy::Decision& decision);
  void JournalLaunch(SimTime now, const Placement& placement, SimTime start);
  void JournalApplied(SimTime now, std::string policy_state);

  // What Recover() would rebuild from the storage right now.
  const RecoveredState& image() const { return image_; }
  int64_t journal_records() const { return journal_records_; }
  int64_t snapshots_taken() const { return snapshots_taken_; }
  const PersistOptions& options() const { return options_; }
  JournalStorage& storage() { return *storage_; }

 private:
  std::unique_ptr<JournalStorage> storage_;
  PersistOptions options_;
  int64_t journal_records_ = 0;  // since the last checkpoint
  int64_t snapshots_taken_ = 0;
  RecoveredState image_;
};

}  // namespace tetrisched

#endif  // TETRISCHED_PERSIST_PERSIST_H_
