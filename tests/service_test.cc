// End-to-end tests for the tetrischedd service layer (DESIGN.md §16):
// daemon + clients over socketpairs, admission backpressure, drain
// semantics, and SIGTERM -> final checkpoint -> restart recovery.

#include <csignal>
#include <chrono>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "gtest/gtest.h"
#include "src/client/client.h"
#include "src/net/socket.h"
#include "src/persist/journal.h"
#include "src/obs/provenance.h"
#include "src/service/daemon.h"
#include "src/service/jobspec.h"
#include "src/service/signals.h"
#include "src/sim/simulator.h"

namespace tetrisched {
namespace {

using std::chrono::microseconds;
using std::chrono::milliseconds;
using std::chrono::steady_clock;

// Runs a daemon on a background thread and hands out socketpair-backed
// clients. Everything is in-process and loopback-free, so the tests are
// deterministic under sanitizers and need no filesystem or ports.
class DaemonHarness {
 public:
  explicit DaemonHarness(DaemonOptions options) {
    daemon_ = std::make_unique<SchedulerDaemon>(std::move(options));
  }

  ~DaemonHarness() { Stop(); }

  bool Start() {
    if (!daemon_->Start()) {
      return false;
    }
    thread_ = std::thread([this] { daemon_->Run(); });
    return true;
  }

  ServiceClient Connect(const std::string& name) {
    auto [daemon_end, client_end] = MakeSocketPair();
    daemon_->AddConnectionFd(daemon_end.Release());
    ServiceClient client = ServiceClient::Adopt(client_end.Release());
    client.set_client_name(name);
    client.set_timeout_ms(5000);
    return client;
  }

  void Stop() {
    if (thread_.joinable()) {
      daemon_->RequestStop();
      thread_.join();
    }
  }

  // Joins the serving thread without requesting a stop (the daemon is
  // expected to exit on its own, e.g. after a signal).
  void Join() {
    if (thread_.joinable()) {
      thread_.join();
    }
  }

  SchedulerDaemon& daemon() { return *daemon_; }

  // Polls the status snapshot until `done` holds or the deadline passes.
  bool WaitFor(const std::function<bool(const DaemonStatus&)>& done,
               int timeout_ms = 10000) {
    steady_clock::time_point deadline =
        steady_clock::now() + milliseconds(timeout_ms);
    while (steady_clock::now() < deadline) {
      if (done(daemon_->StatusSnapshot())) {
        return true;
      }
      std::this_thread::sleep_for(milliseconds(2));
    }
    return done(daemon_->StatusSnapshot());
  }

 private:
  std::unique_ptr<SchedulerDaemon> daemon_;
  std::thread thread_;
};

DaemonOptions FastOptions() {
  DaemonOptions options;
  options.racks = 2;
  options.nodes_per_rack = 4;
  options.gpu_racks = 1;
  options.cycle_period_ms = 5;  // virtual time runs 800x real time
  options.sim_seconds_per_cycle = 4;
  options.admission.cycle_period_ms = 5;
  return options;
}

JsonObj SmallJob(int64_t runtime = 4) {
  JsonObj spec;
  spec.Field("type", "unconstrained");
  spec.Field("k", static_cast<int64_t>(1));
  spec.Field("runtime", runtime);
  return spec;
}

// Journal storage a test can copy while the daemon thread writes to it: a
// copy taken between two records is exactly what a crash (no final
// checkpoint) leaves behind.
class CrashableStorage : public JournalStorage {
 public:
  void AppendJournal(std::string_view bytes) override {
    std::lock_guard<std::mutex> lock(mu_);
    inner_.AppendJournal(bytes);
  }
  std::string ReadJournal() const override {
    std::lock_guard<std::mutex> lock(mu_);
    return inner_.ReadJournal();
  }
  void TruncateJournal() override {
    std::lock_guard<std::mutex> lock(mu_);
    inner_.TruncateJournal();
  }
  void WriteSnapshot(std::string_view bytes) override {
    std::lock_guard<std::mutex> lock(mu_);
    inner_.WriteSnapshot(bytes);
  }
  std::string ReadSnapshot() const override {
    std::lock_guard<std::mutex> lock(mu_);
    return inner_.ReadSnapshot();
  }

  // The durable bytes as of now, as a fresh storage to restart from.
  std::unique_ptr<MemoryJournalStorage> CrashCopy() const {
    std::lock_guard<std::mutex> lock(mu_);
    auto copy = std::make_unique<MemoryJournalStorage>();
    copy->mutable_journal() = inner_.ReadJournal();
    copy->mutable_snapshot() = inner_.ReadSnapshot();
    return copy;
  }

 private:
  mutable std::mutex mu_;
  MemoryJournalStorage inner_;
};

// The acceptance scenario: two clients over socketpairs submit 20 jobs
// while a third floods past the admission bound. The flooder observes
// `overloaded` rejections with retry hints; the well-behaved clients'
// jobs all complete, and the plan validator never fires.
TEST(ServiceEndToEndTest, BackpressureIsolatesFloodingClient) {
  DaemonOptions options = FastOptions();
  options.admission.max_queued = 8;
  options.admission.admit_per_cycle = 4;
  DaemonHarness harness(options);
  ASSERT_TRUE(harness.Start());

  ServiceClient alice = harness.Connect("alice");
  ServiceClient bob = harness.Connect("bob");
  ServiceClient flood = harness.Connect("flood");
  ASSERT_TRUE(alice.connected());
  ASSERT_TRUE(bob.connected());
  ASSERT_TRUE(flood.connected());

  // The flooder fires 60 submissions back-to-back — far faster than the
  // queue drains at admit_per_cycle per 5 ms cycle.
  int flood_accepted = 0;
  int flood_overloaded = 0;
  for (int i = 0; i < 60; ++i) {
    ServiceReply reply = flood.SubmitSpec(SmallJob());
    ASSERT_TRUE(reply.transport_ok);
    if (reply.ok) {
      ++flood_accepted;
    } else if (reply.Overloaded()) {
      ++flood_overloaded;
      EXPECT_GT(reply.retry_after_ms, 0);
    } else {
      FAIL() << "unexpected error: " << reply.error;
    }
  }
  EXPECT_GT(flood_overloaded, 0) << "flood never hit the admission bound";

  // Meanwhile the polite clients submit 10 jobs each, honoring the retry
  // hints. All 20 must eventually be accepted despite the flood.
  std::vector<int64_t> polite_jobs;
  for (int i = 0; i < 20; ++i) {
    ServiceClient& client = (i % 2 == 0) ? alice : bob;
    for (;;) {
      ServiceReply reply = client.SubmitSpec(SmallJob());
      ASSERT_TRUE(reply.transport_ok);
      if (reply.ok) {
        polite_jobs.push_back(reply.body.IntOr("job", -1));
        break;
      }
      ASSERT_TRUE(reply.Overloaded()) << reply.error;
      std::this_thread::sleep_for(
          milliseconds(std::max<int64_t>(1, reply.retry_after_ms)));
    }
  }
  ASSERT_EQ(polite_jobs.size(), 20u);
  for (int64_t job : polite_jobs) {
    EXPECT_GT(job, 0);
  }

  // Everything accepted (polite + flood survivors) runs to completion.
  int64_t accepted = 20 + flood_accepted;
  ASSERT_TRUE(harness.WaitFor([&](const DaemonStatus& status) {
    return status.completed + status.dropped >= accepted;
  })) << "jobs did not finish";

  DaemonStatus status = harness.daemon().StatusSnapshot();
  EXPECT_EQ(status.validator_violations, 0);
  EXPECT_GE(status.rejected_total, flood_overloaded);
  EXPECT_EQ(status.completed + status.dropped, accepted);

  // Per-job status for a polite job reports a terminal state.
  ServiceReply reply = alice.StatusOf(polite_jobs.front());
  ASSERT_TRUE(reply.transport_ok);
  ASSERT_TRUE(reply.ok);
  EXPECT_EQ(reply.body.StringOr("state", ""), "completed");

  harness.Stop();
}

// `drain` stops intake (new submissions are refused) but in-flight work
// runs to completion, after which the status reports drained.
TEST(ServiceEndToEndTest, DrainFinishesInflightAndRefusesNewWork) {
  DaemonOptions options = FastOptions();
  DaemonHarness harness(options);
  ASSERT_TRUE(harness.Start());
  ServiceClient client = harness.Connect("drain-test");
  ASSERT_TRUE(client.connected());

  for (int i = 0; i < 6; ++i) {
    ServiceReply reply = client.SubmitSpec(SmallJob(/*runtime=*/20));
    ASSERT_TRUE(reply.transport_ok);
    ASSERT_TRUE(reply.ok) << reply.error;
  }
  // Let at least one job start before draining so there is in-flight work.
  ASSERT_TRUE(harness.WaitFor(
      [](const DaemonStatus& status) { return status.running > 0; }));

  ServiceReply drain = client.Drain();
  ASSERT_TRUE(drain.transport_ok);
  ASSERT_TRUE(drain.ok);

  ServiceReply refused = client.SubmitSpec(SmallJob());
  ASSERT_TRUE(refused.transport_ok);
  EXPECT_FALSE(refused.ok);
  EXPECT_EQ(refused.error, "draining");

  ASSERT_TRUE(harness.WaitFor(
      [](const DaemonStatus& status) { return status.drained; }));
  DaemonStatus status = harness.daemon().StatusSnapshot();
  EXPECT_EQ(status.completed + status.dropped, 6);
  EXPECT_EQ(status.queued, 0);
  EXPECT_EQ(status.pending, 0);
  EXPECT_EQ(status.running, 0);
  EXPECT_EQ(status.validator_violations, 0);

  harness.Stop();
}

// SIGTERM mid-run: the self-pipe handler wakes the loop, the daemon writes
// a final checkpoint, and a restarted daemon attached to the same journal
// storage resumes every accepted-but-unfinished job.
TEST(ServiceEndToEndTest, SigtermCheckpointsAndRestartRecovers) {
  MemoryJournalStorage storage;

  int64_t accepted = 0;
  int64_t finished_before_kill = 0;
  {
    DaemonOptions options = FastOptions();
    options.storage = &storage;
    options.admission.admit_per_cycle = 2;
    DaemonHarness harness(options);
    ASSERT_TRUE(harness.Start());
    ASSERT_TRUE(InstallTerminationSignalHandlers(harness.daemon().wakeup_fd()));

    ServiceClient client = harness.Connect("sigterm-test");
    ASSERT_TRUE(client.connected());
    for (int i = 0; i < 8; ++i) {
      // Long jobs: nothing finishes before the kill.
      ServiceReply reply = client.SubmitSpec(SmallJob(/*runtime=*/200));
      ASSERT_TRUE(reply.transport_ok);
      ASSERT_TRUE(reply.ok) << reply.error;
      ++accepted;
    }
    // Kill mid-run: some jobs running, the rest still queued/pending.
    ASSERT_TRUE(harness.WaitFor(
        [](const DaemonStatus& status) { return status.running > 0; }));
    finished_before_kill = harness.daemon().StatusSnapshot().completed;

    ASSERT_EQ(raise(SIGTERM), 0);
    harness.Join();  // daemon exits on its own via the self-pipe
    RestoreDefaultSignalHandlers();
    EXPECT_EQ(harness.daemon().StatusSnapshot().validator_violations, 0);
  }

  // The final checkpoint must have produced a snapshot.
  EXPECT_FALSE(storage.ReadSnapshot().empty());

  // Restart against the same storage: every accepted-but-unfinished job is
  // resumed (pending again or adopted as running) and runs to completion.
  {
    DaemonOptions options = FastOptions();
    options.storage = &storage;
    DaemonHarness harness(options);
    ASSERT_TRUE(harness.Start());
    int64_t recovered = harness.daemon().recovered_pending() +
                        harness.daemon().recovered_running();
    EXPECT_EQ(recovered, accepted - finished_before_kill);
    EXPECT_GT(harness.daemon().recovered_running(), 0);

    ASSERT_TRUE(harness.WaitFor(
        [&](const DaemonStatus& status) {
          return status.completed + status.dropped >= recovered;
        },
        /*timeout_ms=*/20000))
        << "recovered jobs did not finish after restart";
    DaemonStatus status = harness.daemon().StatusSnapshot();
    EXPECT_EQ(status.validator_violations, 0);
    harness.Stop();
  }
}

// The journal survives a *second* restart cycle: jobs accepted by the
// restarted daemon are themselves durable.
TEST(ServiceEndToEndTest, JournalAcceptsNewWorkAfterRestart) {
  MemoryJournalStorage storage;
  {
    DaemonOptions options = FastOptions();
    options.storage = &storage;
    DaemonHarness harness(options);
    ASSERT_TRUE(harness.Start());
    ServiceClient client = harness.Connect("gen1");
    ServiceReply reply = client.SubmitSpec(SmallJob(/*runtime=*/500));
    ASSERT_TRUE(reply.transport_ok);
    ASSERT_TRUE(reply.ok);
    ASSERT_TRUE(harness.WaitFor(
        [](const DaemonStatus& status) { return status.running > 0; }));
    harness.Stop();  // RequestStop also runs the final checkpoint
  }
  {
    DaemonOptions options = FastOptions();
    options.storage = &storage;
    DaemonHarness harness(options);
    ASSERT_TRUE(harness.Start());
    EXPECT_EQ(harness.daemon().recovered_pending() +
                  harness.daemon().recovered_running(),
              1);
    harness.Stop();
  }
}

// An acknowledged submission is durable: a crash while jobs still wait in
// the intake queue loses none of them, and reservation seekers Rayon never
// saw are admitted on recovery.
TEST(ServiceCrashTest, AcknowledgedQueuedSubmissionsSurviveCrash) {
  CrashableStorage storage;
  DaemonOptions options = FastOptions();
  options.storage = &storage;
  options.cycle_period_ms = 3000;  // the submissions stay queued
  options.admission.cycle_period_ms = 3000;
  options.admission.admit_per_cycle = 1;
  DaemonHarness harness(options);
  ASSERT_TRUE(harness.Start());
  ServiceClient client = harness.Connect("crash-queued");
  std::vector<int64_t> jobs;
  for (int i = 0; i < 5; ++i) {
    JsonObj spec = SmallJob(/*runtime=*/200);
    spec.Field("deadline_in", static_cast<int64_t>(100000));
    spec.Field("reservation", true);
    ServiceReply reply = client.SubmitSpec(spec);
    ASSERT_TRUE(reply.transport_ok);
    ASSERT_TRUE(reply.ok) << reply.error;
    jobs.push_back(reply.body.IntOr("job", -1));
  }
  std::unique_ptr<MemoryJournalStorage> crashed = storage.CrashCopy();
  harness.Stop();

  DaemonOptions restart = FastOptions();
  restart.storage = crashed.get();
  DaemonHarness restarted(restart);
  ASSERT_TRUE(restarted.Start());
  EXPECT_EQ(restarted.daemon().recovered_pending() +
                restarted.daemon().recovered_running(),
            5);
  ServiceClient after = restarted.Connect("after-crash");
  for (int64_t job : jobs) {
    ServiceReply status = after.StatusOf(job);
    ASSERT_TRUE(status.ok) << "job " << job << ": " << status.error;
    EXPECT_EQ(status.body.StringOr("slo_class", ""), "slo-accepted");
  }
}

// Submits `spec`, waits until the daemon reports it in `state`, and returns
// the job's status reply.
ServiceReply SubmitAndAwait(DaemonHarness& harness, ServiceClient& client,
                            const JsonObj& spec, const std::string& state,
                            int64_t* job) {
  ServiceReply reply = client.SubmitSpec(spec);
  EXPECT_TRUE(reply.ok) << reply.error;
  *job = reply.body.IntOr("job", -1);
  ServiceReply status;
  EXPECT_TRUE(harness.WaitFor([&](const DaemonStatus&) {
    status = client.StatusOf(*job);
    return status.ok && status.body.StringOr("state", "") == state;
  })) << "job " << *job << " never reached " << state;
  return status;
}

// Restarts a daemon on `storage` and returns `job`'s status reply.
ServiceReply StatusAfterRestart(JournalStorage* storage, int64_t job) {
  DaemonOptions options = FastOptions();
  options.storage = storage;
  DaemonHarness harness(options);
  EXPECT_TRUE(harness.Start());
  ServiceClient client = harness.Connect("after-crash");
  return client.StatusOf(job);
}

// A deadline job without a reservation is slo-unreserved, and journal
// recovery (no final checkpoint) derives the same class.
TEST(ServiceCrashTest, DeadlineJobKeepsSloClassThroughCrash) {
  CrashableStorage storage;
  DaemonOptions options = FastOptions();
  options.storage = &storage;
  DaemonHarness harness(options);
  ASSERT_TRUE(harness.Start());
  ServiceClient client = harness.Connect("crash-slo");
  JsonObj spec = SmallJob(/*runtime=*/2000);
  spec.Field("deadline_in", static_cast<int64_t>(100000));
  int64_t job = -1;
  ServiceReply before = SubmitAndAwait(harness, client, spec, "running", &job);
  EXPECT_EQ(before.body.StringOr("slo_class", ""), "slo-unreserved");
  std::unique_ptr<MemoryJournalStorage> crashed = storage.CrashCopy();
  harness.Stop();

  ServiceReply after = StatusAfterRestart(crashed.get(), job);
  ASSERT_TRUE(after.ok) << after.error;
  EXPECT_EQ(after.body.StringOr("slo_class", ""), "slo-unreserved");
}

// Rayon capacity is the cluster's: a daemon started on an empty journal
// grants the same reservation an ephemeral daemon grants.
TEST(ServiceCrashTest, JournaledDaemonGrantsReservations) {
  for (bool journaled : {false, true}) {
    MemoryJournalStorage storage;
    DaemonOptions options = FastOptions();
    options.storage = journaled ? &storage : nullptr;
    DaemonHarness harness(options);
    ASSERT_TRUE(harness.Start());
    ServiceClient client = harness.Connect("reserve");
    JsonObj spec = SmallJob(/*runtime=*/400);
    spec.Field("deadline_in", static_cast<int64_t>(4000));
    spec.Field("reservation", true);
    int64_t job = -1;
    ServiceReply status =
        SubmitAndAwait(harness, client, spec, "running", &job);
    EXPECT_EQ(status.body.StringOr("slo_class", ""), "slo-accepted")
        << (journaled ? "journaled" : "ephemeral");
    harness.Stop();
  }
}

// A running gang recovered from the journal ends when the job's actual
// runtime says, not when the scheduler's estimate said.
TEST(ServiceCrashTest, RunningGangRecoversTrueEnd) {
  CrashableStorage storage;
  DaemonOptions options = FastOptions();
  options.storage = &storage;
  DaemonHarness harness(options);
  ASSERT_TRUE(harness.Start());
  ServiceClient client = harness.Connect("crash-end");
  JsonObj spec = SmallJob(/*runtime=*/4000);
  spec.Field("estimate_error", 0.5);
  int64_t job = -1;
  ServiceReply before = SubmitAndAwait(harness, client, spec, "running", &job);
  EXPECT_EQ(before.body.IntOr("expected_end", -1), 4004);
  std::unique_ptr<MemoryJournalStorage> crashed = storage.CrashCopy();
  harness.Stop();

  ServiceReply after = StatusAfterRestart(crashed.get(), job);
  ASSERT_TRUE(after.ok) << after.error;
  EXPECT_EQ(after.body.StringOr("state", ""), "running");
  EXPECT_EQ(after.body.IntOr("expected_end", -1), 4004);
}

// STRL text submissions round-trip through the parser and schedule.
TEST(ServiceEndToEndTest, StrlSubmissionSchedules) {
  DaemonHarness harness(FastOptions());
  ASSERT_TRUE(harness.Start());
  ServiceClient client = harness.Connect("strl");
  ServiceReply reply = client.SubmitStrl(
      "nCk({p0,p1}, k=2, s=0, dur=8, v=4)");
  ASSERT_TRUE(reply.transport_ok);
  ASSERT_TRUE(reply.ok) << reply.error << ": " << reply.message;
  ASSERT_TRUE(harness.WaitFor([](const DaemonStatus& status) {
    return status.completed >= 1;
  })) << "STRL job never completed";
  harness.Stop();
}

// Cancel: a queued job is cancellable; a finished job reports conflict.
TEST(ServiceEndToEndTest, CancelQueuedAndFinishedJobs) {
  DaemonOptions options = FastOptions();
  options.cycle_period_ms = 50;  // slow cycles: jobs stay queued briefly
  options.admission.cycle_period_ms = 50;
  DaemonHarness harness(options);
  ASSERT_TRUE(harness.Start());
  ServiceClient client = harness.Connect("cancel-test");

  ServiceReply submit = client.SubmitSpec(SmallJob());
  ASSERT_TRUE(submit.ok);
  int64_t job = submit.body.IntOr("job", -1);
  ASSERT_GT(job, 0);
  ServiceReply cancel = client.Cancel(job);
  ASSERT_TRUE(cancel.transport_ok);
  if (cancel.ok) {  // lost the race with admission only on a very slow box
    ASSERT_TRUE(harness.WaitFor([&](const DaemonStatus& status) {
      return status.cancelled >= 1;
    }));
    ServiceReply again = client.Cancel(job);
    ASSERT_TRUE(again.transport_ok);
    EXPECT_FALSE(again.ok);  // already terminal
  }
  harness.Stop();
}

// The daemon-wide status and metrics ops answer over the wire with the
// service counters and the process/build-info gauges.
TEST(ServiceEndToEndTest, StatusAndMetricsOverTheWire) {
  DaemonHarness harness(FastOptions());
  ASSERT_TRUE(harness.Start());
  ServiceClient client = harness.Connect("obs");

  ServiceReply submit = client.SubmitSpec(SmallJob());
  ASSERT_TRUE(submit.ok);
  ASSERT_TRUE(harness.WaitFor(
      [](const DaemonStatus& status) { return status.completed >= 1; }));

  ServiceReply status = client.Status();
  ASSERT_TRUE(status.ok);
  EXPECT_GE(status.body.IntOr("completed", -1), 1);
  EXPECT_GE(status.body.IntOr("cycles", -1), 1);
  EXPECT_GE(status.body.IntOr("effective_plan_ahead", -1), 0);

  ServiceReply prom = client.Metrics("prom");
  ASSERT_TRUE(prom.ok);
  std::string text = prom.body.StringOr("metrics", "");
  EXPECT_NE(text.find("tetrisched_service_admitted_total"), std::string::npos);
  EXPECT_NE(text.find("tetrisched_process_uptime_seconds"), std::string::npos);
  EXPECT_NE(text.find("tetrisched_build_info{"), std::string::npos);

  ServiceReply explain = client.Explain(-1);
  ASSERT_TRUE(explain.ok);
  EXPECT_FALSE(explain.body.StringOr("report", "").empty());

  harness.Stop();
}

// Submits, completions, cancels and a restart from the journal all keep the
// running-gang index equal to the kRunning subset of the job table.
TEST(ServiceEndToEndTest, RunningIndexTracksRunningJobs) {
  MemoryJournalStorage storage;
  {
    DaemonOptions options = FastOptions();
    options.storage = &storage;
    DaemonHarness harness(options);
    ASSERT_TRUE(harness.Start());
    EXPECT_TRUE(harness.daemon().RunningIndexConsistent());
    ServiceClient client = harness.Connect("index");
    for (int i = 0; i < 3; ++i) {
      ASSERT_TRUE(client.SubmitSpec(SmallJob(/*runtime=*/4)).ok);
    }
    std::vector<int64_t> long_jobs;
    for (int i = 0; i < 3; ++i) {
      int64_t job = -1;
      SubmitAndAwait(harness, client, SmallJob(/*runtime=*/4000), "running",
                     &job);
      long_jobs.push_back(job);
    }
    ASSERT_TRUE(harness.WaitFor(
        [](const DaemonStatus& status) { return status.completed >= 3; }));
    ServiceReply cancel = client.Cancel(long_jobs.front());
    ASSERT_TRUE(cancel.ok) << cancel.error;
    ASSERT_TRUE(harness.WaitFor(
        [](const DaemonStatus& status) { return status.cancelled == 1; }));
    harness.Stop();
    EXPECT_TRUE(harness.daemon().RunningIndexConsistent());
    EXPECT_EQ(harness.daemon().StatusSnapshot().running, 2);
  }
  DaemonOptions options = FastOptions();
  options.storage = &storage;
  DaemonHarness restarted(options);
  ASSERT_TRUE(restarted.Start());
  EXPECT_EQ(restarted.daemon().recovered_running(), 2);
  EXPECT_TRUE(restarted.daemon().RunningIndexConsistent());
  ServiceClient client = restarted.Connect("after-restart");
  ASSERT_TRUE(client.SubmitSpec(SmallJob(/*runtime=*/4)).ok);
  ASSERT_TRUE(restarted.WaitFor(
      [](const DaemonStatus& status) { return status.completed >= 1; }));
  restarted.Stop();
  EXPECT_TRUE(restarted.daemon().RunningIndexConsistent());
  EXPECT_EQ(restarted.daemon().StatusSnapshot().running, 2);
}

// Rescue preemption through the service: a best-effort hog holds the whole
// cluster, an accepted SLO job is about to miss its last start time, and
// the scheduler preempts the hog to start it. The daemon must apply the
// preemption and check the plan against the surviving holds, not veto the
// rescue as over-committed.
TEST(ServiceEndToEndTest, PreemptionRescuesStrandedSloJob) {
  DaemonOptions options = FastOptions();
  options.scheduler.enable_preemption = true;
  // A budget cut-off would drop the rescue to the greedy rung, which never
  // preempts; a slow (sanitizer) build must not lose the window that way.
  options.scheduler.budget.budget_seconds = 10.0;
  DaemonHarness harness(options);
  ASSERT_TRUE(harness.Start());
  ServiceClient client = harness.Connect("preempt");
  auto whole_cluster_job = [](int64_t runtime) {
    JsonObj spec;
    spec.Field("type", "unconstrained");
    spec.Field("k", static_cast<int64_t>(8));
    spec.Field("runtime", runtime);
    return spec;
  };
  int64_t hog = -1;
  ServiceReply hog_status = SubmitAndAwait(
      harness, client, whole_cluster_job(/*runtime=*/4000), "running", &hog);
  const int64_t hog_start = hog_status.body.IntOr("start", -1);
  ASSERT_GE(hog_start, 0);

  // Drained one cycle (4 s) after acceptance, with its last start 16 s
  // after acceptance: inside the scheduler's two-quantum (16 s) rescue
  // horizon for the next four cycles.
  JsonObj slo = whole_cluster_job(/*runtime=*/60);
  slo.Field("deadline_in", static_cast<int64_t>(76));
  slo.Field("reservation", true);
  int64_t job = -1;
  ServiceReply status = SubmitAndAwait(harness, client, slo, "completed", &job);
  EXPECT_EQ(status.body.StringOr("slo_class", ""), "slo-accepted");
  EXPECT_LE(status.body.IntOr("end", -1), status.body.IntOr("deadline", -1));
  ServiceReply victim = client.StatusOf(hog);
  ASSERT_TRUE(victim.ok) << victim.error;
  EXPECT_NE(victim.body.IntOr("start", -1), hog_start);  // preempted
  // The flight recorder tells both stories in the simulator's labels.
  ServiceReply explain = client.Explain(job);
  ASSERT_TRUE(explain.ok) << explain.error;
  EXPECT_NE(explain.body.StringOr("report", "").find("[met]"),
            std::string::npos);
  explain = client.Explain(hog);
  ASSERT_TRUE(explain.ok) << explain.error;
  EXPECT_NE(explain.body.StringOr("report", "").find("[policy-preempt]"),
            std::string::npos);
  harness.Stop();
  EXPECT_EQ(harness.daemon().StatusSnapshot().validator_violations, 0);
  EXPECT_TRUE(harness.daemon().RunningIndexConsistent());
}

// The cycle driver's and the cycle budget's instruments reach both exports.
TEST(ServiceEndToEndTest, CycleInstrumentsExported) {
  DaemonHarness harness(FastOptions());
  ASSERT_TRUE(harness.Start());
  ServiceClient client = harness.Connect("cycle-obs");
  ASSERT_TRUE(client.SubmitSpec(SmallJob()).ok);
  ASSERT_TRUE(harness.WaitFor(
      [](const DaemonStatus& status) { return status.completed >= 1; }));
  const struct {
    const char* section;
    const char* name;
  } instruments[] = {
      {"histograms", "tetrisched_service_cycle_ms"},
      {"counters", "tetrisched_service_cycle_overruns_total"},
      {"counters", "tetrisched_budget_solver_cutoffs_total"},
  };

  ServiceReply prom = client.Metrics("prom");
  ASSERT_TRUE(prom.ok);
  const std::string text = prom.body.StringOr("metrics", "");
  for (const auto& instrument : instruments) {
    EXPECT_NE(text.find(std::string("# TYPE ") + instrument.name),
              std::string::npos)
        << instrument.name;
  }

  ServiceReply json = client.Metrics("json");
  ASSERT_TRUE(json.ok);
  const JsonValue* metrics = json.body.Find("metrics");
  ASSERT_NE(metrics, nullptr);
  for (const auto& instrument : instruments) {
    const JsonValue* section = metrics->Find(instrument.section);
    ASSERT_NE(section, nullptr) << instrument.section;
    EXPECT_NE(section->Find(instrument.name), nullptr) << instrument.name;
  }
  harness.Stop();
}

// Both front ends describe an arrival in one vocabulary: the SLO class as
// label and the gang size as value, with {k, deadline} as detail.
TEST(ServiceProvenanceTest, ArrivalMatchesTheSimulator) {
  JsonObj spec;
  spec.Field("type", "unconstrained");
  spec.Field("k", static_cast<int64_t>(2));
  spec.Field("runtime", static_cast<int64_t>(4));
  spec.Field("deadline_in", static_cast<int64_t>(400));
  auto arrival_of = [](JobId job) {
    for (const ProvenanceRecord& record :
         ProvenanceRecorder::Global().Snapshot()) {
      if (record.kind == ProvKind::kArrival && record.job == job) {
        return record;
      }
    }
    ADD_FAILURE() << "no arrival record for job " << job;
    return ProvenanceRecord{};
  };

  DaemonHarness harness(FastOptions());
  ASSERT_TRUE(harness.Start());
  ServiceClient client = harness.Connect("provenance");
  ServiceReply reply = client.SubmitSpec(spec);
  ASSERT_TRUE(reply.ok) << reply.error;
  const JobId daemon_job = reply.body.IntOr("job", -1);
  ASSERT_TRUE(harness.WaitFor(
      [](const DaemonStatus& status) { return status.completed >= 1; }));
  harness.Stop();
  const ProvenanceRecord from_daemon = arrival_of(daemon_job);

  JsonValue parsed;
  ASSERT_TRUE(JsonParse(spec.str(), &parsed));
  Job job;
  std::string error;
  ASSERT_TRUE(JobSpecFromJson(parsed, 0, &job, &error)) << error;
  job.id = 1;
  job.slo_class = BaseSloClass(job);
  const Cluster cluster = MakeUniformCluster(2, 4, 1);
  TetriScheduler scheduler(cluster, TetriSchedConfig::Full());
  SimConfig config;
  config.provenance = SimConfig::ProvenanceMode::kOn;
  Simulator(cluster, scheduler, {job}, config).Run();
  const ProvenanceRecord from_sim = arrival_of(job.id);

  EXPECT_EQ(from_daemon.label, ToString(SloClass::kSloUnreserved));
  EXPECT_EQ(from_daemon.label, from_sim.label);
  EXPECT_EQ(from_daemon.value, 2.0);
  EXPECT_EQ(from_daemon.value, from_sim.value);
  JsonValue detail;
  ASSERT_TRUE(JsonParse(from_daemon.detail, &detail));
  EXPECT_EQ(detail.IntOr("k", -1), 2);
  EXPECT_GT(detail.IntOr("deadline", -1), 0);
}

// Replays the serving loop over a list of (start lateness, duration) pairs:
// a cycle starts `late` after the later of its due time and the previous
// cycle's end. Returns the cycle start times.
std::vector<steady_clock::time_point> CycleStarts(
    const std::vector<std::pair<microseconds, milliseconds>>& cycles,
    milliseconds period) {
  std::vector<steady_clock::time_point> starts;
  steady_clock::time_point now{};
  steady_clock::time_point due = now;
  for (const auto& [late, duration] : cycles) {
    if (CyclePollTimeoutMs(now, due) > 0) {
      now = due;  // poll blocks until the cycle is due
    }
    const steady_clock::time_point started = now + late;
    starts.push_back(started);
    now = started + duration;
    due = NextCycleDue(due, now, period);
  }
  return starts;
}

// The cadence rule, on explicit instants: no clock, no daemon.
TEST(CycleCadenceTest, OnTimeCyclesKeepThePeriodGrid) {
  const milliseconds period(20);
  // Start jitter (a late poll wake-up, a request being served) does not
  // accumulate: every cycle that ends in time keeps the grid.
  std::vector<steady_clock::time_point> starts = CycleStarts(
      {{microseconds(0), milliseconds(5)},
       {microseconds(1500), milliseconds(15)},
       {microseconds(700), milliseconds(19)},
       {microseconds(3000), milliseconds(2)},
       {microseconds(0), milliseconds(5)}},
      period);
  const steady_clock::time_point t0{};
  EXPECT_EQ(starts[1], t0 + period + microseconds(1500));
  EXPECT_EQ(starts[2], t0 + 2 * period + microseconds(700));
  EXPECT_EQ(starts[3], t0 + 3 * period + microseconds(3000));
  EXPECT_EQ(starts[4], t0 + 4 * period);
}

TEST(CycleCadenceTest, OverrunMakesExactlyOneImmediateCycle) {
  const milliseconds period(20);
  for (milliseconds overrun : {milliseconds(23), milliseconds(39)}) {
    std::vector<steady_clock::time_point> starts = CycleStarts(
        {{microseconds(0), milliseconds(5)},
         {microseconds(0), overrun},
         {microseconds(0), milliseconds(5)},
         {microseconds(0), milliseconds(5)},
         {microseconds(0), milliseconds(5)}},
        period);
    // Cycle 2 starts the moment the overrunning cycle 1 ends ...
    EXPECT_EQ(starts[2], starts[1] + overrun) << overrun.count();
    // ... and re-anchors the grid: cycle 3 waits a full period for it.
    EXPECT_EQ(starts[3], starts[2] + period) << overrun.count();
    EXPECT_EQ(starts[4], starts[3] + period) << overrun.count();
  }
}

TEST(CycleCadenceTest, LongStallNeverYieldsMoreThanOneCycle) {
  const milliseconds period(20);
  std::vector<steady_clock::time_point> starts = CycleStarts(
      {{microseconds(0), milliseconds(1)},
       {microseconds(0), milliseconds(1000)},
       {microseconds(0), milliseconds(1)},
       {microseconds(0), milliseconds(1)},
       {microseconds(0), milliseconds(1)}},
      period);
  // 50 periods passed during the stall; one cycle runs for all of them.
  EXPECT_EQ(starts[2], starts[1] + milliseconds(1000));
  EXPECT_EQ(starts[3], starts[2] + period);
  EXPECT_EQ(starts[4], starts[3] + period);
}

TEST(CycleCadenceTest, PollTimeoutRoundsUpToTheDueTime) {
  const steady_clock::time_point t0{};
  EXPECT_EQ(CyclePollTimeoutMs(t0, t0), 0);
  EXPECT_EQ(CyclePollTimeoutMs(t0 + milliseconds(3), t0), 0);
  EXPECT_EQ(CyclePollTimeoutMs(t0, t0 + milliseconds(20)), 20);
  EXPECT_EQ(CyclePollTimeoutMs(t0, t0 + microseconds(19200)), 20);
  EXPECT_EQ(CyclePollTimeoutMs(t0, t0 + microseconds(1)), 1);
}

}  // namespace
}  // namespace tetrisched
