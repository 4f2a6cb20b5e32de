// Control-plane communication model between the scheduler and per-node
// agents (DESIGN.md §15).
//
// Every robustness layer before this one assumed the scheduler learns of
// node failures instantly and infallibly — an oracle no real deployment
// has. This module closes that gap: heartbeats from node agents flow to the
// scheduler through a seeded lossy channel (drop, delay, duplication,
// reordering, node- and rack-scoped partitions), a timeout / phi-accrual
// failure detector turns their arrival stream into a per-node
// kAlive/kSuspect/kDead *belief*, and the scheduler's cycle input becomes
// this believed ClusterView rather than ground truth. Correctness under
// false suspicion is enforced with monotonically increasing per-node fence
// epochs: the scheduler bumps a node's epoch when it gives up on it
// (journaled as kEpochBump so crash recovery never resurrects a fenced
// placement), and a node whose agent epoch lags the fence epoch has its
// stale tasks killed at reconciliation when it becomes reachable again.
//
// Determinism: every per-message decision (drop, delay jitter, duplicate,
// command loss) is a counter-based hash of (seed, node, stream, sequence),
// never a shared-stream draw, so two same-seed runs make byte-identical
// channel decisions regardless of evaluation order, and enabling one fault
// class never perturbs another.
//
// Oracle mode (no message faults, suspect_timeout == 0, no partitions) is
// the pre-§15 contract: belief equals ground truth at every instant. The
// simulator short-circuits to its legacy event path in that case, so
// oracle-mode schedules are byte-identical to a build without this module.

#ifndef TETRISCHED_SIM_COMMS_H_
#define TETRISCHED_SIM_COMMS_H_

#include <cstdint>
#include <map>
#include <vector>

#include "src/cluster/cluster.h"
#include "src/common/logging.h"
#include "src/common/time.h"

namespace tetrisched {

// Scheduler-side belief about one node, maintained by the failure detector.
enum class NodeBeliefState : uint8_t {
  kAlive = 0,   // heartbeats fresh
  kSuspect,     // heartbeats stale past the suspect threshold
  kDead,        // stale past the dead threshold (capacity written off)
};

const char* ToString(NodeBeliefState state);

// A control-plane partition: while active, no message crosses between the
// scheduler and the scoped nodes in either direction (heartbeats out,
// placement/kill commands in). Scope is one node (`node >= 0`) or one whole
// rack (`rack >= 0`); exactly one of the two must be set.
struct CommsPartitionEvent {
  SimTime at = 0;
  SimTime recover_at = kTimeNever;
  NodeId node = -1;
  RackId rack = -1;

  bool operator==(const CommsPartitionEvent& other) const = default;
};

// Per-message fault knobs of the channel. All probabilities are i.i.d. per
// message and drawn from counter-based hashes (see file comment).
struct MessageFaultParams {
  double drop_prob = 0.0;        // message lost outright
  double dup_prob = 0.0;         // message delivered twice (idempotence test)
  SimDuration delay = 0;         // fixed propagation delay, seconds
  SimDuration delay_jitter = 0;  // extra uniform [0, jitter] per message
  // With this probability a heartbeat takes one additional jitter draw of
  // delay — a late outlier that arrives out of order behind its successors.
  double reorder_prob = 0.0;
};

// Failure-detector knobs. suspect_timeout == 0 selects the oracle detector
// (belief == ground truth, no heartbeat machinery).
struct DetectorParams {
  SimDuration heartbeat_period = 1;  // agent send period, seconds
  SimDuration suspect_timeout = 0;   // silence before kSuspect; 0 = oracle
  SimDuration dead_timeout = 0;      // silence before kDead; 0 = 4x suspect
  // > 0 enables phi-accrual instead of the fixed timeout: a node is
  // suspected when the current silence exceeds `phi_threshold` times its
  // smoothed heartbeat inter-arrival gap (floored at suspect_timeout).
  double phi_threshold = 0.0;

  SimDuration effective_dead_timeout() const {
    return dead_timeout > 0 ? dead_timeout : 4 * suspect_timeout;
  }
};

// Top-level control-plane configuration carried by SimConfig::comms and
// derived from FaultModelParams by GenerateFaultSchedule.
struct CommsParams {
  bool enabled = false;
  uint64_t seed = 1;
  MessageFaultParams message;
  DetectorParams detector;
  std::vector<CommsPartitionEvent> partitions;

  // True when the model cannot deviate from ground truth: the simulator
  // keeps its legacy instant-detection path and schedules stay
  // byte-identical to pre-§15 behavior.
  bool oracle() const {
    return !enabled ||
           (message.drop_prob <= 0.0 && message.dup_prob <= 0.0 &&
            message.delay <= 0 && message.delay_jitter <= 0 &&
            message.reorder_prob <= 0.0 && detector.suspect_timeout <= 0 &&
            partitions.empty());
  }
};

// The scheduler's believed cluster state — what MILP compilation, the
// greedy ladder, and ValidatePlan actually plan against when the control
// plane is lossy. One entry per node.
struct NodeView {
  NodeBeliefState state = NodeBeliefState::kAlive;
  SimTime last_heard = 0;     // send time of the freshest delivered heartbeat
  uint64_t fence_epoch = 0;   // scheduler-side epoch (durable via the WAL)
  uint64_t seen_boot = 0;     // latest agent boot incarnation heard
};

struct ClusterView {
  std::vector<NodeView> nodes;

  int BelievedDown() const {
    int down = 0;
    for (const NodeView& node : nodes) {
      if (node.state != NodeBeliefState::kAlive) {
        ++down;
      }
    }
    return down;
  }
};

// Channel + detector + epoch state machine. The simulator owns one per run
// and calls it from three sides:
//   * ground truth: NodeDown / NodeUp as failures and recoveries happen
//     (drives which heartbeats exist at all, and agent boot counts),
//   * scheduler: Evaluate once per cycle to advance beliefs, then acts on
//     the returned transitions (recalls, fences, reconciliations),
//   * commit path: DeliverCommand per placement/kill command attempt.
// All RM-side state a crash must not lose (the fence-epoch table) is
// exported/restored explicitly; everything else is either ground truth
// (agent epochs, boot counts) or soft state the detector re-derives.
class ControlPlane {
 public:
  ControlPlane(const Cluster& cluster, const CommsParams& params);

  // Enabled and capable of diverging from ground truth. When false the
  // simulator never runs the detector; its commit path still acquires
  // through believed_down_mask() (all zero) and DeliverCommand (always
  // true), so it behaves as the oracle.
  bool active() const { return active_; }
  const CommsParams& params() const { return params_; }

  // --- ground-truth (physical) transitions -------------------------------
  void NodeDown(NodeId node, SimTime now);
  void NodeUp(NodeId node, SimTime now);
  bool node_up(NodeId node) const { return up_[node]; }
  uint64_t boot_count(NodeId node) const { return boot_[node]; }

  // --- detector ----------------------------------------------------------
  // Belief transitions produced by one evaluation at `now` (cycle start).
  struct Verdict {
    std::vector<NodeId> newly_suspect;  // kAlive -> kSuspect this evaluation
    std::vector<NodeId> newly_dead;     // kSuspect -> kDead
    std::vector<NodeId> recovered;      // kSuspect/kDead -> kAlive
    // Heartbeat carried a newer boot count: the node silently rebooted
    // (outage shorter than the suspect timeout); any task the scheduler
    // believes it runs is gone.
    std::vector<NodeId> rebooted;
    // Reachable nodes whose agent epoch lags the fence epoch: stale
    // placements on them must be fenced now (reconciliation).
    std::vector<NodeId> reconcilable;
  };
  // Advances heartbeat delivery to `now`, applies belief transitions, and
  // reports them. `cycle` feeds the rate-limited per-node WARN logs.
  Verdict Evaluate(SimTime now, int64_t cycle);

  const ClusterView& view() const { return view_; }
  NodeBeliefState belief(NodeId node) const {
    return view_.nodes[node].state;
  }
  bool BelievedDown(NodeId node) const {
    return view_.nodes[node].state != NodeBeliefState::kAlive;
  }
  // Per-node bitmap of believed-down nodes (the commit path's avoid set).
  const std::vector<char>& believed_down_mask() const { return down_mask_; }

  // --- fencing / epochs --------------------------------------------------
  // Bumps the scheduler-side fence epoch of `node` (call after journaling
  // the matching kEpochBump record) and returns the new epoch.
  uint64_t FenceNode(NodeId node);
  uint64_t fence_epoch(NodeId node) const {
    return view_.nodes[node].fence_epoch;
  }
  uint64_t agent_epoch(NodeId node) const { return agent_epoch_[node]; }
  // Node agent accepts the current fence epoch (a delivered placement
  // command, or the kill side of a reconciliation).
  void AgentAdoptEpoch(NodeId node);
  // Crash recovery: exports / restores the durable fence-epoch table.
  std::map<NodeId, uint64_t> ExportFenceEpochs() const;
  void RestoreFenceEpochs(const std::map<NodeId, uint64_t>& epochs);

  // --- command channel ---------------------------------------------------
  // One placement/kill command attempt to `node` at `now`. False when the
  // link is partitioned, the node is down, or the channel dropped the
  // message; the caller retries on a later cycle. Counts duplicate
  // deliveries (idempotently rejected by the agent) as stale rejects.
  bool DeliverCommand(NodeId node, SimTime now);
  // A command whose fence epoch no longer matches would be rejected by the
  // agent; exposed for the commit path's dup/stale accounting.
  void CountStaleReject() { ++counters_.stale_command_rejects; }

  bool LinkUp(NodeId node, SimTime now) const;

  // --- accounting --------------------------------------------------------
  struct Counters {
    int64_t heartbeats_sent = 0;
    int64_t heartbeats_dropped = 0;   // lost to drop_prob or a partition
    int64_t heartbeats_duplicated = 0;
    int64_t heartbeats_reordered = 0; // arrived behind a later-sent one
    int64_t commands_dropped = 0;
    int64_t stale_command_rejects = 0;
    int64_t suspicions = 0;
    int64_t false_suspicions = 0;     // node was actually up when suspected
    int64_t dead_declared = 0;
  };
  const Counters& counters() const { return counters_; }
  // Detection latency (failure -> suspicion) samples, seconds.
  const std::vector<double>& detection_latencies() const {
    return detection_latencies_;
  }

 private:
  struct PendingHeartbeat {
    SimTime arrive = 0;
    SimTime sent = 0;
    uint64_t boot = 0;
  };

  // Deterministic per-message draws (counter-based, order-independent).
  uint64_t Mix(NodeId node, uint64_t stream, uint64_t seq) const;
  double UnitDraw(NodeId node, uint64_t stream, uint64_t seq) const;

  // Advances node's heartbeat stream: evaluates sends up to `now`, queues
  // in-flight arrivals, folds arrivals <= now into last_heard/seen_boot.
  void PumpHeartbeats(NodeId node, SimTime now);

  const Cluster& cluster_;
  CommsParams params_;
  bool active_ = false;

  ClusterView view_;
  std::vector<char> down_mask_;       // believed-down bitmap
  std::vector<char> up_;              // ground truth: node in service
  std::vector<uint64_t> boot_;        // ground truth: agent incarnation
  std::vector<uint64_t> agent_epoch_; // ground truth: agent fence epoch
  std::vector<int64_t> next_seq_;     // next heartbeat ordinal to evaluate
  std::vector<SimTime> down_since_;   // ground truth failure time (or -1)
  std::vector<SimTime> last_arrival_; // freshest heartbeat arrival time
  std::vector<double> ema_gap_;       // smoothed inter-arrival gap (phi)
  std::vector<std::vector<PendingHeartbeat>> in_flight_;

  Counters counters_;
  std::vector<double> detection_latencies_;
  std::vector<int64_t> cmd_seq_;     // per-node command ordinal (draw counter)
  std::vector<char> reboot_flag_;    // boot bump folded since last Evaluate
  LogRateLimiter warn_limit_{16};    // one belief WARN per node per 16 cycles
};

}  // namespace tetrisched

#endif  // TETRISCHED_SIM_COMMS_H_
