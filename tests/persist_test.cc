// Tests for the persistence subsystem (DESIGN.md §11): CRC32 framing,
// torn-tail/corruption truncation, the durable-event and snapshot codecs,
// journal replay semantics (ApplyEvent), Rayon agenda export/restore and
// replay equivalence, and the PersistenceManager checkpoint/recover cycle.

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "src/persist/journal.h"
#include "src/persist/persist.h"
#include "src/persist/records.h"
#include "src/rayon/rayon.h"

namespace tetrisched {
namespace {

// --- CRC32 and framing ------------------------------------------------------

TEST(Crc32Test, MatchesIeeeCheckValue) {
  EXPECT_EQ(Crc32("123456789"), 0xCBF43926u);
  EXPECT_EQ(Crc32(""), 0u);
  EXPECT_NE(Crc32("a"), Crc32("b"));
}

TEST(FrameTest, RoundTripsMultipleFrames) {
  std::string journal;
  std::vector<std::string> payloads = {"alpha", "", "gamma with spaces",
                                       std::string(1000, '\x7f')};
  for (const std::string& p : payloads) {
    journal += EncodeFrame(p);
  }
  DecodedJournal decoded = DecodeFrames(journal, /*log_dropped=*/false);
  EXPECT_EQ(decoded.payloads, payloads);
  EXPECT_EQ(decoded.valid_bytes, journal.size());
  EXPECT_EQ(decoded.dropped_records, 0);
}

TEST(FrameTest, TornTailTruncatedAtLastFrame) {
  std::string journal = EncodeFrame("first") + EncodeFrame("second");
  size_t intact = journal.size();
  journal += EncodeFrame("torn").substr(0, 10);  // header + partial payload
  DecodedJournal decoded = DecodeFrames(journal, /*log_dropped=*/false);
  ASSERT_EQ(decoded.payloads.size(), 2u);
  EXPECT_EQ(decoded.payloads[1], "second");
  EXPECT_EQ(decoded.valid_bytes, intact);
  EXPECT_EQ(decoded.dropped_records, 1);
}

TEST(FrameTest, BitFlipDropsEverythingFromFirstBadCrc) {
  std::string f1 = EncodeFrame("one");
  std::string f2 = EncodeFrame("two");
  std::string f3 = EncodeFrame("three");
  std::string journal = f1 + f2 + f3;
  journal[f1.size() + 8] ^= 0x01;  // flip a payload bit inside frame 2
  DecodedJournal decoded = DecodeFrames(journal, /*log_dropped=*/false);
  ASSERT_EQ(decoded.payloads.size(), 1u);
  EXPECT_EQ(decoded.payloads[0], "one");
  EXPECT_EQ(decoded.valid_bytes, f1.size());
  // Frames 2 and 3 are both past the first bad CRC: one warning each.
  EXPECT_EQ(decoded.dropped_records, 2);
}

TEST(FrameTest, GarbageJournalYieldsNothing) {
  DecodedJournal decoded =
      DecodeFrames("not a journal at all", /*log_dropped=*/false);
  EXPECT_TRUE(decoded.payloads.empty());
  EXPECT_EQ(decoded.valid_bytes, 0u);
  EXPECT_GE(decoded.dropped_records, 1);
}

// --- Durable-event codec ----------------------------------------------------

DurableEvent FullEvent() {
  DurableEvent event;
  event.kind = DurableEventKind::kCommitIntent;
  event.time = 1234;
  event.job = 7;
  event.k = 4;
  event.interval = {10, 90};
  event.retries = 2;
  event.eligible_at = 60;
  event.slo_class = 1;
  event.preferred = true;
  event.runtime = 33;
  event.gang = GangRecord{7, {{0, 2}, {3, 1}}, 12, 45, 33};
  event.gangs = {GangRecord{8, {{1, 1}}, 12, 20, 8},
                 GangRecord{9, {{2, 3}}, 12, 52, 40}};
  event.drops = {11, 12};
  event.preempts = {13};
  event.blob = std::string("opaque\0policy\x01state", 19);
  return event;
}

TEST(EventCodecTest, RoundTripsEveryField) {
  DurableEvent event = FullEvent();
  DurableEvent decoded;
  ASSERT_TRUE(DecodeEvent(EncodeEvent(event), &decoded));
  EXPECT_EQ(decoded, event);
}

TEST(EventCodecTest, RoundTripsEveryKind) {
  for (uint8_t kind = 1; kind <= 11; ++kind) {
    DurableEvent event = FullEvent();
    event.kind = static_cast<DurableEventKind>(kind);
    DurableEvent decoded;
    ASSERT_TRUE(DecodeEvent(EncodeEvent(event), &decoded))
        << ToString(event.kind);
    EXPECT_EQ(decoded, event) << ToString(event.kind);
  }
}

TEST(EventCodecTest, RejectsTruncatedAndTrailingBytes) {
  std::string bytes = EncodeEvent(FullEvent());
  DurableEvent decoded;
  EXPECT_FALSE(DecodeEvent(bytes.substr(0, bytes.size() / 2), &decoded));
  EXPECT_FALSE(DecodeEvent(bytes + "x", &decoded));
  EXPECT_FALSE(DecodeEvent("", &decoded));
}

// --- Snapshot codec ---------------------------------------------------------

RecoveredState FullState() {
  RecoveredState state;
  state.checkpoint_time = 400;
  state.rayon = RayonState{16, 5, 2, {{0, 4}, {100, -4}}};
  state.running[3] = GangRecord{3, {{0, 2}}, 380, 420, 40};
  state.running[5] = GangRecord{5, {{1, 1}, {2, 1}}, 396, 500, 104};
  state.retries[9] = RetryRecord{9, 2, 410, 390};
  state.finished = {1, 2};
  state.slo[3] = SloRecord{3, 1, {380, 430}};
  state.completions = {CompletionRecord{1, true, 50},
                       CompletionRecord{2, false, 61}};
  state.policy_state = "warm-start-blob";
  state.pending_intent =
      PendingIntent{400, {GangRecord{6, {{0, 1}}, 400, 440, 40}}, {8}, {5}};
  return state;
}

TEST(SnapshotCodecTest, RoundTripsFullState) {
  RecoveredState state = FullState();
  RecoveredState decoded;
  ASSERT_TRUE(DecodeSnapshot(EncodeSnapshot(state), &decoded));
  EXPECT_EQ(decoded, state);
}

TEST(SnapshotCodecTest, RoundTripsWithoutPendingIntent) {
  RecoveredState state = FullState();
  state.pending_intent.reset();
  RecoveredState decoded;
  ASSERT_TRUE(DecodeSnapshot(EncodeSnapshot(state), &decoded));
  EXPECT_EQ(decoded, state);
  EXPECT_FALSE(decoded.pending_intent.has_value());
}

TEST(SnapshotCodecTest, RejectsCorruptBytes) {
  std::string bytes = EncodeSnapshot(FullState());
  RecoveredState decoded;
  EXPECT_FALSE(DecodeSnapshot(bytes.substr(0, bytes.size() - 3), &decoded));
  EXPECT_FALSE(DecodeSnapshot("junk", &decoded));
}

// --- Replay semantics (ApplyEvent) ------------------------------------------

DurableEvent Launch(JobId job, SimTime start, SimDuration dur) {
  DurableEvent event;
  event.kind = DurableEventKind::kGangLaunch;
  event.time = start;
  event.gang = GangRecord{job, {{0, 1}}, start, start + dur, dur};
  return event;
}

TEST(ApplyEventTest, TwoPhaseCommitIntentThenApplied) {
  RecoveredState state;
  DurableEvent intent;
  intent.kind = DurableEventKind::kCommitIntent;
  intent.time = 8;
  intent.gangs = {GangRecord{1, {{0, 2}}, 8, 28, 20}};
  intent.drops = {4};
  ApplyEvent(state, intent);
  ASSERT_TRUE(state.pending_intent.has_value());
  EXPECT_EQ(state.pending_intent->gangs, intent.gangs);

  ApplyEvent(state, Launch(1, 8, 20));
  EXPECT_EQ(state.running.count(1), 1u);

  DurableEvent applied;
  applied.kind = DurableEventKind::kCommitApplied;
  applied.blob = "plan";
  ApplyEvent(state, applied);
  EXPECT_FALSE(state.pending_intent.has_value());
  EXPECT_EQ(state.policy_state, "plan");
}

TEST(ApplyEventTest, LaunchIsIdempotentAndClosesKillGap) {
  RecoveredState state;
  DurableEvent kill;
  kill.kind = DurableEventKind::kGangKill;
  kill.time = 50;
  kill.job = 1;
  kill.retries = 1;
  kill.eligible_at = 54;
  ApplyEvent(state, kill);
  EXPECT_EQ(state.running.count(1), 0u);
  EXPECT_EQ(state.retries[1].last_kill, 50);

  ApplyEvent(state, Launch(1, 60, 20));
  ApplyEvent(state, Launch(1, 60, 20));  // replay of the same record
  EXPECT_EQ(state.running.size(), 1u);
  EXPECT_EQ(state.retries[1].last_kill, -1);
  EXPECT_EQ(state.retries[1].retries, 1);  // kill count survives the restart
}

TEST(ApplyEventTest, CompleteAndDropRetireJobs) {
  RecoveredState state;
  ApplyEvent(state, Launch(1, 0, 10));
  ApplyEvent(state, Launch(2, 0, 10));

  DurableEvent complete;
  complete.kind = DurableEventKind::kGangComplete;
  complete.job = 1;
  complete.preferred = true;
  complete.runtime = 9;
  ApplyEvent(state, complete);

  DurableEvent dropped;
  dropped.kind = DurableEventKind::kJobDropped;
  dropped.job = 2;
  ApplyEvent(state, dropped);

  EXPECT_TRUE(state.running.empty());
  EXPECT_EQ(state.finished, (std::set<JobId>{1, 2}));
  ASSERT_EQ(state.completions.size(), 1u);
  EXPECT_EQ(state.completions[0].runtime, 9);
}

// --- Rayon export/restore and replay equivalence ----------------------------

TEST(RayonStateTest, RestoreOfExportIsExactNoOp) {
  RayonAdmission live(8);
  live.Submit({1, 4, 20, 0, 100});
  live.Submit({2, 6, 30, 0, 100});
  live.Submit({3, 8, 50, 0, 60});  // may reject: counters must round-trip too
  RayonState exported = live.ExportState();

  RayonAdmission restored(0);
  restored.Restore(exported);
  EXPECT_EQ(restored.ExportState(), exported);
  // Both must make identical future decisions.
  RayonAdmission copy(8);
  copy.Restore(exported);
  ReservationDecision a = restored.Submit({9, 3, 25, 0, 200});
  ReservationDecision b = copy.Submit({9, 3, 25, 0, 200});
  EXPECT_EQ(a.accepted, b.accepted);
  EXPECT_EQ(a.interval, b.interval);
}

TEST(RayonStateTest, JournalReplayMatchesLiveAgenda) {
  RayonAdmission live(8);
  RecoveredState image;
  image.rayon = live.ExportState();

  auto journal_admit = [&](JobId job, int k, SimDuration dur, SimTime lo,
                           SimTime hi) {
    ReservationDecision decision = live.Submit({job, k, dur, lo, hi});
    DurableEvent event;
    event.job = job;
    event.k = k;
    if (decision.accepted) {
      event.kind = DurableEventKind::kRayonAdmit;
      event.interval = decision.interval;
    } else {
      event.kind = DurableEventKind::kRayonReject;
    }
    ApplyEvent(image, event);
    return decision;
  };

  journal_admit(1, 4, 20, 0, 100);
  journal_admit(2, 6, 30, 0, 100);
  journal_admit(3, 8, 50, 0, 60);
  ReservationDecision first = journal_admit(4, 2, 10, 0, 40);

  // Release one accepted reservation and journal it.
  if (first.accepted) {
    live.Release(first.interval, 2);
    DurableEvent release;
    release.kind = DurableEventKind::kRayonRelease;
    release.job = 4;
    release.k = 2;
    release.interval = first.interval;
    ApplyEvent(image, release);
  }

  EXPECT_EQ(image.rayon, live.ExportState());
}

// --- PersistenceManager -----------------------------------------------------

DurableEvent SloEvent(JobId job, SimTime lo, SimTime hi) {
  DurableEvent event;
  event.kind = DurableEventKind::kSloUpdate;
  event.job = job;
  event.slo_class = 1;
  event.interval = {lo, hi};
  return event;
}

TEST(PersistenceManagerTest, RecoverReplaysSnapshotPlusJournal) {
  auto storage = std::make_unique<MemoryJournalStorage>();
  PersistenceManager persist(std::move(storage), {.snapshot_every = 0});

  RecoveredState base;
  base.checkpoint_time = 100;
  base.finished = {1};
  persist.Checkpoint(base);
  persist.Append(Launch(2, 104, 50));
  persist.Append(SloEvent(2, 104, 160));

  RecoveryResult rec = persist.Recover();
  EXPECT_TRUE(rec.snapshot_loaded);
  EXPECT_EQ(rec.replayed, 2);
  EXPECT_EQ(rec.dropped, 0);
  EXPECT_EQ(rec.state.checkpoint_time, 100);
  EXPECT_EQ(rec.state.finished, (std::set<JobId>{1}));
  EXPECT_EQ(rec.state.running.count(2), 1u);
  EXPECT_EQ(rec.state.slo.count(2), 1u);
}

TEST(PersistenceManagerTest, SnapshotCadenceTruncatesJournal) {
  auto storage = std::make_unique<MemoryJournalStorage>();
  MemoryJournalStorage* raw = storage.get();
  PersistenceManager persist(std::move(storage), {.snapshot_every = 3});

  RecoveredState image;
  for (JobId job = 1; job <= 2; ++job) {
    DurableEvent event = Launch(job, 0, 10);
    persist.Append(event);
    ApplyEvent(image, event);
    EXPECT_FALSE(persist.MaybeCheckpoint(0));
    EXPECT_EQ(persist.image(), image);
  }
  DurableEvent third = Launch(3, 0, 10);
  persist.Append(third);
  ApplyEvent(image, third);
  EXPECT_TRUE(persist.MaybeCheckpoint(0));
  EXPECT_EQ(persist.image(), image);
  EXPECT_TRUE(raw->ReadJournal().empty());
  EXPECT_EQ(persist.journal_records(), 0);
  EXPECT_EQ(persist.snapshots_taken(), 1);

  RecoveryResult rec = persist.Recover();
  EXPECT_TRUE(rec.snapshot_loaded);
  EXPECT_EQ(rec.replayed, 0);
  EXPECT_EQ(rec.state.running.size(), 3u);
}

TEST(PersistenceManagerTest, CorruptTailTruncatedAndPersisted) {
  auto storage = std::make_unique<MemoryJournalStorage>();
  MemoryJournalStorage* raw = storage.get();
  PersistenceManager persist(std::move(storage),
                             {.snapshot_every = 0, .log_dropped = false});

  persist.Append(Launch(1, 0, 10));
  size_t intact = raw->ReadJournal().size();
  persist.Append(Launch(2, 4, 10));
  raw->mutable_journal().back() ^= 0x40;  // corrupt the last record

  RecoveryResult rec = persist.Recover();
  EXPECT_EQ(rec.replayed, 1);
  EXPECT_EQ(rec.dropped, 1);
  EXPECT_EQ(rec.state.running.count(1), 1u);
  EXPECT_EQ(rec.state.running.count(2), 0u);
  // The bad tail was truncated on disk: the journal is the valid prefix.
  EXPECT_EQ(raw->ReadJournal().size(), intact);

  RecoveryResult again = persist.Recover();
  EXPECT_EQ(again.dropped, 0);
  EXPECT_EQ(again.state, rec.state);
}

TEST(PersistenceManagerTest, CorruptSnapshotFallsBackToEmptyState) {
  auto storage = std::make_unique<MemoryJournalStorage>();
  MemoryJournalStorage* raw = storage.get();
  PersistenceManager persist(std::move(storage), {.snapshot_every = 0});

  persist.Checkpoint(FullState());
  raw->mutable_snapshot().resize(raw->mutable_snapshot().size() / 2);
  persist.Append(Launch(1, 0, 10));

  RecoveryResult rec = persist.Recover();
  EXPECT_FALSE(rec.snapshot_loaded);
  EXPECT_EQ(rec.replayed, 1);  // journal still replays on the empty base
  EXPECT_EQ(rec.state.running.count(1), 1u);
}

// --- Recovery image property -----------------------------------------------

class RandomHistory {
 public:
  explicit RandomHistory(uint64_t seed) : rng_(seed) {}

  int Int(int lo, int hi) {
    return std::uniform_int_distribution<int>(lo, hi)(rng_);
  }

  GangRecord RandomGang(SimTime start) {
    SimDuration est = Int(1, 90);
    return GangRecord{AnyJob(), {{Int(0, 3), Int(1, 4)}}, start, start + est,
                      est};
  }

  Placement RandomPlacement() {
    Placement placement;
    placement.job = AnyJob();
    placement.counts[Int(0, 3)] = Int(1, 4);
    placement.est_duration = Int(1, 90);
    return placement;
  }

  std::vector<JobId> RandomJobs() {
    std::vector<JobId> jobs(Int(0, 2));
    for (JobId& job : jobs) {
      job = AnyJob();
    }
    return jobs;
  }

  // Every field filled, whatever the kind: replay must agree with the
  // mirror no matter which fields a record carries.
  DurableEvent RandomEvent(SimTime now) {
    DurableEvent event;
    event.kind = static_cast<DurableEventKind>(
        Int(1, static_cast<int>(DurableEventKind::kServiceSubmit)));
    event.time = now;
    event.job = AnyJob();
    event.k = Int(0, 4);
    SimTime start = now + Int(0, 50);
    event.interval = {start, start + Int(0, 60)};
    event.retries = Int(0, 3);
    event.eligible_at = now + Int(0, 30);
    event.slo_class = static_cast<uint8_t>(Int(0, 2));
    event.preferred = Int(0, 1) == 1;
    event.runtime = Int(1, 90);
    event.gang = RandomGang(now);
    for (int i = Int(0, 2); i > 0; --i) {
      event.gangs.push_back(RandomGang(now));
    }
    event.drops = RandomJobs();
    event.preempts = RandomJobs();
    event.blob = "blob-" + std::to_string(Int(0, 999));
    event.node = Int(0, 7);
    event.epoch = static_cast<uint64_t>(Int(0, 20));
    return event;
  }

  SchedulerPolicy::Decision RandomDecision() {
    SchedulerPolicy::Decision decision;
    for (int i = Int(0, 3); i > 0; --i) {
      decision.start_now.push_back(RandomPlacement());
    }
    decision.drop = RandomJobs();
    decision.preempt = RandomJobs();
    decision.stats.plan_ahead_adapted = Int(-1, 1);
    decision.stats.effective_plan_ahead = Int(0, 96);
    return decision;
  }

 private:
  JobId AnyJob() { return Int(1, 12); }

  std::mt19937_64 rng_;
};

// The manager's image is, after every write, exactly what a second manager
// recovers from the same storage: across every record kind, the two-phase
// commit helpers, explicit checkpoints, and random snapshot cadences.
TEST(PersistenceManagerTest, ImageEqualsRecoveryAfterEveryAppend) {
  for (uint64_t seed = 1; seed <= 24; ++seed) {
    RandomHistory history(seed);
    MemoryJournalStorage storage;
    PersistOptions options{.snapshot_every = history.Int(0, 8),
                           .log_dropped = false};
    PersistenceManager persist(std::make_unique<ForwardingStorage>(&storage),
                               options);
    RecoveredState seed_state;
    seed_state.rayon = RayonAdmission(16).ExportState();
    persist.Checkpoint(seed_state);

    for (int step = 0; step < 160; ++step) {
      SimTime now = 4 * step;
      switch (history.Int(0, 5)) {
        case 0:
          persist.JournalIntent(now, history.RandomDecision());
          break;
        case 1:
          persist.JournalLaunch(now, history.RandomPlacement(),
                                now - history.Int(0, 8));
          break;
        case 2:
          persist.JournalApplied(now, "policy@" + std::to_string(now));
          break;
        case 3:
          if (history.Int(0, 3) == 0) {
            persist.Checkpoint(now);
          }
          break;
        default:
          persist.Append(history.RandomEvent(now));
          persist.MaybeCheckpoint(now);
          break;
      }
      PersistenceManager reader(std::make_unique<ForwardingStorage>(&storage),
                                options);
      ASSERT_EQ(persist.image(), reader.Recover().state)
          << "seed " << seed << " step " << step;
    }
    RecoveryResult own = persist.Recover();
    EXPECT_EQ(persist.image(), own.state) << "seed " << seed;
  }
}

TEST(FileJournalStorageTest, PersistsAcrossReopen) {
  std::string dir =
      (std::filesystem::temp_directory_path() /
       ("tetri_persist_test_" + std::to_string(::getpid()))).string();
  std::filesystem::create_directories(dir);

  {
    PersistenceManager persist(std::make_unique<FileJournalStorage>(dir),
                               {.snapshot_every = 0});
    RecoveredState base;
    base.checkpoint_time = 7;
    persist.Checkpoint(base);
    persist.Append(Launch(1, 8, 10));
  }
  {
    PersistenceManager persist(std::make_unique<FileJournalStorage>(dir),
                               {.snapshot_every = 0});
    RecoveryResult rec = persist.Recover();
    EXPECT_TRUE(rec.snapshot_loaded);
    EXPECT_EQ(rec.state.checkpoint_time, 7);
    EXPECT_EQ(rec.replayed, 1);
    EXPECT_EQ(rec.state.running.count(1), 1u);
  }
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace tetrisched
