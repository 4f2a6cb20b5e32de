// The service workload: service_open_loop.
//
// An in-process tetrischedd (4 racks x 8 nodes, one GPU rack, 20 ms cycle
// period, in-memory journal behind a CountingStorage) is driven over
// socketpairs by open-loop clients: every request has a due time fixed in
// advance, is sent as soon as its client thread is free after that time,
// and is timed from when it was due, so a stall in the daemon delays later
// requests and is counted against them. Threads: the daemon's poll thread,
// kClientThreads client threads, and the main thread sampling
// StatusSnapshot().
//
// Phases:
//   steady  mixed unconstrained / GPU / MPI jobs, most with deadlines,
//           Poisson arrivals at kSteadyRps (below the cluster's capacity);
//           the daemon then settles and every steady job's fate is read back
//           over the wire (SLO attainment, best-effort latency);
//   flood   trivial 1-node jobs at each rate of kFloodLadder in turn; the
//           admission ceiling is the highest rate whose p99 stays within
//           kLatencyLimitMs with at most kRefusedLimit refused and no
//           growing queue;
//   restart the daemon is stopped (final checkpoint) and fresh daemons
//           recover from the same storage; Start() is timed.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "perfbench/layers.h"
#include "perfbench/report.h"
#include "src/client/client.h"
#include "src/common/metrics.h"
#include "src/common/rng.h"
#include "src/net/socket.h"
#include "src/persist/journal.h"
#include "src/service/daemon.h"

namespace perfbench {
namespace {

using namespace tetrisched;

constexpr int kClientThreads = 2;
constexpr int64_t kCyclePeriodMs = 20;
// Share of the run for each phase; the rest goes to settling and restarts.
constexpr double kSteadyShare = 0.5;
constexpr double kFloodShare = 0.4;
// Below the daemon's capacity for the steady mix: at 150 req/s slow cycles
// already feed back into a growing backlog on a 4-CPU host.
constexpr double kSteadyRps = 100.0;
constexpr double kFloodLadder[] = {500.0, 1000.0, 2000.0, 4000.0};
constexpr double kLatencyLimitMs = 50.0;
constexpr double kRefusedLimit = 0.01;
// A rung whose backlog (queued + pending) grows by more than one admission
// batch over the rung has a growing queue.
constexpr double kBacklogGrowthLimit = 64.0;
constexpr int kSetupRepeats = 15;
constexpr int kRestartRepeats = 5;
constexpr double kSettleLimitS = 3.0;

struct Request {
  double due_s = 0.0;  // offset from the phase start
  JsonObj spec;
  bool has_deadline = false;
  bool wants_reservation = false;
};

// What one request met, as seen by its client.
struct Outcome {
  enum Kind { kAdmitted, kRefused, kFailed };
  Kind kind = kFailed;
  double latency_ms = 0.0;  // reply time - due time
  double rtt_ms = 0.0;      // reply time - send time
  double late_ms = 0.0;     // send time - due time
  double reply_s = 0.0;     // reply time since the phase started
  int64_t job = -1;
};

struct PhaseResult {
  std::string name;
  double offered_rps = 0.0;
  double duration_s = 0.0;
  std::vector<Outcome> outcomes;  // indexed like the requests
  int64_t admitted = 0;
  int64_t refused = 0;
  int64_t failed = 0;
  std::vector<double> backlog_t;  // sampler time since phase start (s)
  std::vector<double> backlog;    // queued + pending at that time
  int64_t queued_max = 0;
  int64_t pending_max = 0;

  std::vector<double> Latencies() const {
    std::vector<double> values;
    for (const Outcome& outcome : outcomes) {
      values.push_back(outcome.latency_ms);
    }
    return values;
  }
  double LateMaxMs() const {
    double late = 0.0;
    for (const Outcome& outcome : outcomes) {
      late = std::max(late, outcome.late_ms);
    }
    return late;
  }
  // Admissions per second replied in the phase's second half, when a
  // saturating rung's queues are already full: the sustained admission rate.
  double SustainedAdmittedRps() const {
    int64_t admitted_late = 0;
    for (const Outcome& outcome : outcomes) {
      admitted_late += outcome.kind == Outcome::kAdmitted &&
                               outcome.reply_s >= duration_s / 2 &&
                               outcome.reply_s < duration_s
                           ? 1
                           : 0;
    }
    return admitted_late / (duration_s / 2);
  }
  // Least-squares backlog slope over the phase, times its duration.
  double BacklogGrowth() const {
    const size_t n = backlog.size();
    if (n < 2) {
      return 0.0;
    }
    const double mean_t = Mean(backlog_t);
    const double mean_b = Mean(backlog);
    double cov = 0.0;
    double var = 0.0;
    for (size_t i = 0; i < n; ++i) {
      cov += (backlog_t[i] - mean_t) * (backlog[i] - mean_b);
      var += (backlog_t[i] - mean_t) * (backlog_t[i] - mean_t);
    }
    return var > 0.0 ? cov / var * duration_s : 0.0;
  }
};

JsonObj JobSpec(const char* type, int64_t k, int64_t runtime, double slowdown,
                int64_t deadline_in, bool reservation) {
  JsonObj spec;
  spec.Field("type", type);
  spec.Field("k", k);
  spec.Field("runtime", runtime);
  spec.Field("slowdown", slowdown);
  if (deadline_in > 0) {
    spec.Field("deadline_in", deadline_in);
    spec.Field("reservation", reservation);
  }
  return spec;
}

// Poisson arrivals of the steady mix: 30% best-effort unconstrained jobs,
// then SLO jobs: 10% unconstrained, 30% GPU, 30% MPI, half of them asking
// Rayon for a reservation. Runtimes and deadlines are in virtual seconds.
std::vector<Request> SteadyRequests(Rng& rng, double seconds) {
  std::vector<Request> requests;
  double t = rng.Exponential(1.0 / kSteadyRps);
  while (t < seconds) {
    Request request;
    request.due_s = t;
    const double pick = rng.UniformReal(0.0, 1.0);
    const int64_t runtime = rng.UniformInt(4, 20);
    const int64_t deadline_in =
        static_cast<int64_t>(std::llround(runtime * rng.UniformReal(2.0, 4.0)));
    const bool reservation = rng.Bernoulli(0.5);
    if (pick < 0.3) {
      request.spec = JobSpec("unconstrained", rng.UniformInt(1, 4), runtime,
                             1.0, 0, false);
    } else if (pick < 0.4) {
      request.spec = JobSpec("unconstrained", rng.UniformInt(1, 4), runtime,
                             1.0, deadline_in, reservation);
    } else if (pick < 0.7) {
      request.spec = JobSpec("gpu", rng.UniformInt(1, 4), runtime, 2.0,
                             deadline_in, reservation);
    } else {
      request.spec = JobSpec("mpi", rng.UniformInt(2, 6), runtime, 1.5,
                             deadline_in, reservation);
    }
    request.has_deadline = pick >= 0.3;
    request.wants_reservation = request.has_deadline && reservation;
    requests.push_back(std::move(request));
    t += rng.Exponential(1.0 / kSteadyRps);
  }
  return requests;
}

// Evenly spaced trivial jobs at `rps` for `seconds`.
std::vector<Request> FloodRequests(double rps, double seconds) {
  std::vector<Request> requests;
  const int count = static_cast<int>(rps * seconds);
  for (int i = 0; i < count; ++i) {
    Request request;
    request.due_s = i / rps;
    request.spec = JobSpec("unconstrained", 1, 4, 1.0, 0, false);
    requests.push_back(std::move(request));
  }
  return requests;
}

struct Service {
  MemoryJournalStorage memory;
  std::unique_ptr<CountingStorage> storage;
  std::unique_ptr<SchedulerDaemon> daemon;
  std::vector<ServiceClient> clients;
};

DaemonOptions MakeDaemonOptions(JournalStorage* storage) {
  DaemonOptions options;
  options.racks = 4;
  options.nodes_per_rack = 8;
  options.gpu_racks = 1;
  options.cycle_period_ms = kCyclePeriodMs;
  options.storage = storage;
  options.enable_provenance = false;
  // One solver thread: the daemon thread solves, keeping the process at
  // kClientThreads + 2 threads.
  options.scheduler.milp.num_threads = 1;
  return options;
}

// Storage, daemon (started on empty storage) and connected clients.
std::unique_ptr<Service> SetUp() {
  auto service = std::make_unique<Service>();
  service->storage = std::make_unique<CountingStorage>(service->memory);
  service->daemon = std::make_unique<SchedulerDaemon>(
      MakeDaemonOptions(service->storage.get()));
  if (!service->daemon->Start()) {
    return nullptr;
  }
  for (int c = 0; c < kClientThreads; ++c) {
    auto [daemon_end, client_end] = MakeSocketPair();
    service->daemon->AddConnectionFd(daemon_end.Release());
    ServiceClient client = ServiceClient::Adopt(client_end.Release());
    client.set_client_name("perfbench-" + std::to_string(c));
    client.set_timeout_ms(10000);
    service->clients.push_back(std::move(client));
  }
  return service;
}

// Sends every request at (or as soon as possible after) its due time and
// samples the daemon's backlog from the calling thread meanwhile.
PhaseResult RunPhase(Service& service, const std::string& name,
                     double offered_rps, double duration_s,
                     const std::vector<Request>& requests) {
  PhaseResult phase;
  phase.name = name;
  phase.offered_rps = offered_rps;
  phase.duration_s = duration_s;
  phase.outcomes.resize(requests.size());
  const Clock::time_point start = Clock::now();
  std::atomic<int> running{kClientThreads};
  std::vector<std::thread> threads;
  for (int c = 0; c < kClientThreads; ++c) {
    threads.emplace_back([&, c] {
      ServiceClient& client = service.clients[c];
      for (size_t i = c; i < requests.size(); i += kClientThreads) {
        const Clock::time_point due =
            start + std::chrono::duration_cast<Clock::duration>(
                        std::chrono::duration<double>(requests[i].due_s));
        std::this_thread::sleep_until(due);
        const Clock::time_point sent = Clock::now();
        ServiceReply reply = client.SubmitSpec(requests[i].spec);
        const Clock::time_point replied = Clock::now();
        Outcome& outcome = phase.outcomes[i];
        outcome.latency_ms =
            std::chrono::duration<double, std::milli>(replied - due).count();
        outcome.rtt_ms =
            std::chrono::duration<double, std::milli>(replied - sent).count();
        outcome.late_ms =
            std::chrono::duration<double, std::milli>(sent - due).count();
        outcome.reply_s = std::chrono::duration<double>(replied - start).count();
        if (reply.transport_ok && reply.ok) {
          outcome.kind = Outcome::kAdmitted;
          outcome.job = reply.body.IntOr("job", -1);
        } else if (reply.transport_ok &&
                   (reply.Overloaded() || reply.error == "draining")) {
          outcome.kind = Outcome::kRefused;
        } else {
          outcome.kind = Outcome::kFailed;
        }
      }
      running.fetch_sub(1);
    });
  }
  while (running.load() > 0) {
    const DaemonStatus status = service.daemon->StatusSnapshot();
    phase.backlog_t.push_back(SecondsSince(start));
    phase.backlog.push_back(static_cast<double>(status.queued + status.pending));
    phase.queued_max = std::max(phase.queued_max, status.queued);
    phase.pending_max = std::max(phase.pending_max, status.pending);
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  for (std::thread& thread : threads) {
    thread.join();
  }
  for (const Outcome& outcome : phase.outcomes) {
    phase.admitted += outcome.kind == Outcome::kAdmitted ? 1 : 0;
    phase.refused += outcome.kind == Outcome::kRefused ? 1 : 0;
    phase.failed += outcome.kind == Outcome::kFailed ? 1 : 0;
  }
  return phase;
}

// Waits (bounded) until the daemon holds no queued, pending or running work.
bool Settle(const SchedulerDaemon& daemon, double limit_s) {
  const Clock::time_point start = Clock::now();
  while (SecondsSince(start) < limit_s) {
    const DaemonStatus status = daemon.StatusSnapshot();
    if (status.queued + status.pending + status.running == 0) {
      return true;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  return false;
}

void PrintPhase(const PhaseResult& phase) {
  const std::vector<double> latencies = phase.Latencies();
  std::printf("%-8s %9.0f %7zu %8lld %8lld %6lld %9.1f %9.3f %9.3f %9.3f "
              "%9.1f\n",
              phase.name.c_str(), phase.offered_rps, phase.outcomes.size(),
              static_cast<long long>(phase.admitted),
              static_cast<long long>(phase.refused),
              static_cast<long long>(phase.failed),
              phase.admitted / phase.duration_s,
              Percentile(latencies, 50.0), Percentile(latencies, 99.0),
              phase.LateMaxMs(), phase.BacklogGrowth());
}

int64_t CounterValue(const char* name) {
  return GlobalMetrics().GetCounter(name)->value();
}

}  // namespace

void RunServiceOpenLoop(const RunOptions& options, Report& report) {
  const double steady_s = kSteadyShare * options.seconds;
  const double rung_s =
      kFloodShare * options.seconds / std::size(kFloodLadder);
  std::printf("service_open_loop: seed %llu, steady %.0f req/s for %.1f s, "
              "flood ladder %.1f s per rung, %d client threads\n",
              static_cast<unsigned long long>(options.seed), kSteadyRps,
              steady_s, rung_s, kClientThreads);

  // Set-up: generate the request schedules, then start a daemon on empty
  // storage and connect the clients. The last set-up is the one measured.
  std::vector<double> setup_s;
  std::vector<double> generate_s;
  std::vector<Request> steady;
  std::vector<std::vector<Request>> ladder;
  std::unique_ptr<Service> service;
  for (int i = 0; i < kSetupRepeats; ++i) {
    service.reset();
    const Clock::time_point start = Clock::now();
    Rng rng(options.seed);
    steady = SteadyRequests(rng, steady_s);
    ladder.clear();
    for (double rps : kFloodLadder) {
      ladder.push_back(FloodRequests(rps, rung_s));
    }
    generate_s.push_back(SecondsSince(start));
    service = SetUp();
    setup_s.push_back(SecondsSince(start));
    if (service == nullptr) {
      report.Check(false, "daemon starts on empty storage");
      return;
    }
  }
  SchedulerDaemon& daemon = *service->daemon;
  std::thread serving([&daemon] { daemon.Run(); });
  const Clock::time_point serve_start = Clock::now();
  const int64_t cycles_before = CounterValue("tetrisched_cycles_total");
  const int64_t fallbacks_before =
      CounterValue("tetrisched_fallback_cycles_total");

  // --- steady phase, then read back every steady job's fate.
  PhaseResult steady_phase =
      RunPhase(*service, "steady", kSteadyRps, steady_s, steady);
  const bool settled = Settle(daemon, kSettleLimitS);
  report.Check(settled, "steady-phase jobs resolved within " +
                            std::to_string(kSettleLimitS) + " s");
  const int64_t steady_cycles =
      CounterValue("tetrisched_cycles_total") - cycles_before;
  const int64_t steady_fallbacks =
      CounterValue("tetrisched_fallback_cycles_total") - fallbacks_before;
  int deadline_jobs = 0;
  int deadline_met = 0;
  int reservations_wanted = 0;
  int reservations_accepted = 0;
  std::vector<double> be_latency;
  ServiceClient& reader = service->clients[0];
  for (size_t i = 0; i < steady.size(); ++i) {
    const Outcome& outcome = steady_phase.outcomes[i];
    deadline_jobs += steady[i].has_deadline ? 1 : 0;
    if (outcome.kind != Outcome::kAdmitted) {
      continue;  // refused or failed: a miss for SLO jobs
    }
    ServiceReply reply = reader.StatusOf(outcome.job);
    report.Check(reply.transport_ok && reply.ok,
                 "status of admitted job " + std::to_string(outcome.job));
    const std::string state = reply.body.StringOr("state", "");
    const bool completed = state == "completed";
    const int64_t end = reply.body.IntOr("end", -1);
    if (steady[i].has_deadline) {
      deadline_met +=
          completed && end <= reply.body.IntOr("deadline", -1) ? 1 : 0;
    } else if (completed) {
      be_latency.push_back(
          static_cast<double>(end - reply.body.IntOr("accepted_at", 0)));
    }
    if (steady[i].wants_reservation) {
      ++reservations_wanted;
      reservations_accepted +=
          reply.body.StringOr("slo_class", "") == "slo-accepted" ? 1 : 0;
    }
  }

  // The flood's peak depends on the largest cycle model the backlog built,
  // which varies from run to run; the end-to-end figure is the steady
  // daemon's, and the flood's is a per-layer figure.
  const double steady_peak_rss_mb = PeakRssMb();
  // --- flood ladder.
  std::vector<PhaseResult> rungs;
  double ceiling_rps = 0.0;
  for (size_t r = 0; r < std::size(kFloodLadder); ++r) {
    rungs.push_back(RunPhase(*service, "flood", kFloodLadder[r], rung_s,
                             ladder[r]));
    const PhaseResult& rung = rungs.back();
    const bool within =
        Percentile(rung.Latencies(), 99.0) <= kLatencyLimitMs &&
        rung.refused + rung.failed <=
            kRefusedLimit * static_cast<double>(rung.outcomes.size()) &&
        rung.BacklogGrowth() <= kBacklogGrowthLimit;
    if (within) {
      ceiling_rps = kFloodLadder[r];
    }
    if (r + 1 < std::size(kFloodLadder)) {
      Settle(daemon, 1.0);  // start the next rung from an empty backlog
    }
  }
  const double serve_s = SecondsSince(serve_start);
  const int64_t cycles_run = daemon.StatusSnapshot().cycles;

  // --- stop (final checkpoint) and restart from the journal.
  daemon.RequestStop();
  serving.join();
  const DaemonStatus last = daemon.StatusSnapshot();
  // The persist layer's work while serving; recoveries below may append too.
  const CountingStorage::Counts served = service->storage->counts();
  std::vector<double> restart_s;
  for (int i = 0; i < kRestartRepeats; ++i) {
    SchedulerDaemon restarted(MakeDaemonOptions(service->storage.get()));
    const Clock::time_point start = Clock::now();
    const bool started = restarted.Start();
    restart_s.push_back(SecondsSince(start));
    const DaemonStatus recovered = restarted.StatusSnapshot();
    report.Check(started && restarted.recovered_pending() ==
                                last.queued + last.pending &&
                     restarted.recovered_running() == last.running &&
                     recovered.pending == last.queued + last.pending &&
                     recovered.running == last.running,
                 "restart recovers the last status snapshot's " +
                     std::to_string(last.queued + last.pending) +
                     " pending and " + std::to_string(last.running) +
                     " running jobs");
  }

  // --- accounting checks.
  int64_t sent = 0;
  int64_t admitted = 0;
  int64_t refused = 0;
  int64_t failed = 0;
  std::printf("\n%-8s %9s %7s %8s %8s %6s %9s %9s %9s %9s %9s\n", "phase",
              "offered/s", "sent", "admitted", "refused", "failed",
              "admit/s", "p50_ms", "p99_ms", "late_max", "backlog+");
  std::vector<const PhaseResult*> phases = {&steady_phase};
  for (const PhaseResult& rung : rungs) {
    phases.push_back(&rung);
  }
  for (const PhaseResult* phase : phases) {
    PrintPhase(*phase);
    report.Check(phase->admitted + phase->refused + phase->failed ==
                     static_cast<int64_t>(phase->outcomes.size()),
                 phase->name + ": admitted + refused + failed == sent");
    sent += static_cast<int64_t>(phase->outcomes.size());
    admitted += phase->admitted;
    refused += phase->refused;
    failed += phase->failed;
  }
  report.attempted = sent;
  report.failed = failed;
  report.Check(last.admitted_total == admitted,
               "daemon admitted_total matches the clients' admitted count");
  report.Check(last.rejected_total == refused,
               "daemon rejected_total matches the clients' refused count");
  report.Check(last.admitted_total == last.queued + last.pending +
                                          last.running + last.completed +
                                          last.dropped + last.cancelled,
               "status totals reconcile (admitted == queued + pending + "
               "running + completed + dropped + cancelled)");
  report.Check(last.validator_violations == 0,
               "zero service validator violations");
  std::printf("admission ceiling: %.0f req/s (p99 <= %.0f ms, refused <= "
              "%.0f%%, backlog growth <= %.0f jobs per rung)\n",
              ceiling_rps, kLatencyLimitMs, 100.0 * kRefusedLimit,
              kBacklogGrowthLimit);

  // --- metrics.
  const std::vector<double> steady_latency = steady_phase.Latencies();
  std::vector<double> rtt;
  for (const Outcome& outcome : steady_phase.outcomes) {
    rtt.push_back(outcome.rtt_ms);
  }
  int64_t queued_max = 0;
  int64_t pending_max = 0;
  for (const PhaseResult* phase : phases) {
    queued_max = std::max(queued_max, phase->queued_max);
    pending_max = std::max(pending_max, phase->pending_max);
  }
  std::printf("steady: %zu requests; latency deciles (ms):",
              steady_latency.size());
  for (int d = 1; d < 10; ++d) {
    std::printf(" %.3f", Percentile(steady_latency, 10.0 * d));
  }
  std::printf(" | p95 %.3f p99 %.3f\n", Percentile(steady_latency, 95.0),
              Percentile(steady_latency, 99.0));

  report.Set("setup_s", Median(setup_s), "s");
  report.Set("peak_rss_mb", steady_peak_rss_mb, "MB");
  report.Set("slo_attainment_pct",
             deadline_jobs > 0 ? 100.0 * deadline_met / deadline_jobs : 0.0,
             "%");
  report.Set("be_latency_s", Mean(be_latency), "sim_s");
  report.Set("decision_ms_p50", Percentile(steady_latency, 50.0), "ms");
  report.Set("throughput_per_s", rungs.back().SustainedAdmittedRps(), "1/s");
  report.Set("milp_cycle_share",
             steady_cycles > 0
                 ? 1.0 - static_cast<double>(steady_fallbacks) / steady_cycles
                 : 0.0,
             "share");

  report.Set("service.cycle_cadence",
             static_cast<double>(cycles_run) /
                 (1e3 * serve_s / static_cast<double>(kCyclePeriodMs)),
             "share");
  report.Set("service.queued_max", static_cast<double>(queued_max), "jobs");
  report.Set("service.pending_max", static_cast<double>(pending_max), "jobs");
  report.Set("service.admitted", static_cast<double>(last.admitted_total),
             "count");
  report.Set("service.rejected", static_cast<double>(last.rejected_total),
             "count");
  report.Set("service.admit_ceiling_rps", ceiling_rps, "1/s");
  report.Set("service.restart_s", Median(restart_s), "s");
  report.Set("service.peak_rss_mb", PeakRssMb(), "MB");
  report.Set("client.rtt_ms_p50", Percentile(rtt, 50.0), "ms");
  report.Set("client.submit_ms_p90", Percentile(steady_latency, 90.0), "ms");
  report.Set("client.submit_ms_p99", Percentile(steady_latency, 99.0), "ms");
  report.Set("client.generator_late_ms_max", steady_phase.LateMaxMs(), "ms");
  report.Set("journal.appends", static_cast<double>(served.appends), "count");
  report.Set("journal.bytes", static_cast<double>(served.append_bytes),
             "bytes");
  report.Set("journal.append_ms_total", 1e3 * served.append_s, "ms");
  report.Set("snapshot.writes", static_cast<double>(served.snapshots),
             "count");
  report.Set("snapshot.ms_total", 1e3 * served.snapshot_s, "ms");
  report.Set("workload.generate_s", Median(generate_s), "s");
  report.Set("rayon.accepted_share",
             reservations_wanted > 0
                 ? static_cast<double>(reservations_accepted) /
                       reservations_wanted
                 : 0.0,
             "share");
  // Both modes take the same measurements here, so tracing adds nothing.
  report.Set("trace.overhead_pct", 0.0, "%");
  ReportIdleLayers(kSimOnlyLayers, report);
}

}  // namespace perfbench
