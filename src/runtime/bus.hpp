// In-process message bus: one mailbox per node, crash/recover simulation,
// and a seeded fault-injection layer.
//
// Sends to crashed nodes are silently dropped, as are sends *from* crashed
// nodes, so a crashed replica is indistinguishable from a network-isolated
// one — which is exactly the failure model quorum consensus tolerates.
//
// With no FaultPlan installed the bus delivers every message exactly once,
// in order, instantly (the fail-stop ideal the paper assumes). A FaultPlan
// turns each directed link (from, to) into a lossy, duplicating, delaying,
// reordering channel — the baseline network model of Gray & Lamport's
// "Consensus on Transaction Commit" — driven by a deterministic per-link
// RNG stream, so a chaos run is reproducible from one 64-bit seed. Faults
// apply only to Send(); internal side channels (shutdown, peeks) push into
// mailboxes directly and stay reliable.
//
// One deliberate deviation from strict fail-stop: a message held by the
// injector (delayed or buffered for reorder) when its destination crashes
// is dropped only if the node is still down at delivery time. If the node
// recovers first, the straggler is delivered — real networks do exactly
// this, and it is why replicas must treat re-deliveries idempotently
// (Image::ApplyWrite rejects stale versions; see replica_handler.hpp).
#pragma once

#include <atomic>
#include <chrono>
#include <functional>
#include <memory>
#include <mutex>
#include <condition_variable>
#include <optional>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/rng.hpp"
#include "net/mailbox.hpp"
#include "net/transport.hpp"

namespace qcnt::runtime {

/// The substrate abstraction the runtime is written against; the Bus is
/// its in-process implementation, net::TcpTransport the cross-process
/// one (see net/transport.hpp).
using Transport = net::Transport;

/// Per-link fault injection plan. Probabilities are per message; decisions
/// are drawn from a per-link RNG seeded by (seed, from, to), so the same
/// seed and the same per-link send sequence yield the same drops,
/// duplicates, delays, and reorder keys on every run.
struct FaultPlan {
  /// P(message silently dropped).
  double drop = 0.0;
  /// P(message delivered twice). Copies take independent delay samples.
  double duplicate = 0.0;
  /// Uniform delivery delay in [delay_min, delay_max]; zero max = deliver
  /// inline. Delayed messages are released by a background network thread.
  std::chrono::microseconds delay_min{0};
  std::chrono::microseconds delay_max{0};
  /// Bounded reordering: each message draws a rank in [0, reorder_window]
  /// and passes through a per-link holdback buffer of that size, so a
  /// message can overtake at most reorder_window predecessors.
  std::size_t reorder_window = 0;
  /// Liveness valve for the holdback buffer: entries older than this are
  /// flushed (in rank order) by the network thread even if the buffer
  /// never fills, so a quiet link cannot strand its tail forever.
  std::chrono::microseconds reorder_hold{2000};
  /// Root seed for the per-link decision streams.
  std::uint64_t seed = 0x5eedfa017ull;

  bool Active() const {
    return drop > 0.0 || duplicate > 0.0 || delay_max.count() > 0 ||
           reorder_window > 0;
  }
};

/// Injection counters (what the fault layer actually did), alongside the
/// bus-level sent/dropped totals.
struct FaultStats {
  std::uint64_t dropped = 0;          // messages eaten by the drop dice
  std::uint64_t duplicated = 0;       // extra copies created
  std::uint64_t delayed = 0;          // deliveries deferred to the net thread
  std::uint64_t reordered = 0;        // messages routed through a holdback
  std::uint64_t partition_drops = 0;  // messages eaten by a partition
};

class Bus final : public Transport {
 public:
  explicit Bus(std::size_t nodes);
  ~Bus() override;

  /// Logical universe size: nodes created at construction plus AddNode
  /// calls. Slots beyond this (up to Capacity) are pre-allocated but dark.
  std::size_t NodeCount() const override {
    return count_.load(std::memory_order_acquire);
  }
  /// Pre-allocated universe ceiling; AddNode beyond it is a check failure.
  std::size_t Capacity() const { return mailboxes_.size(); }
  /// Grow the universe by one node (membership change). The slot's mailbox
  /// and up-flag were pre-allocated at construction, so no existing
  /// reference is invalidated and no send ever races a vector growth. The
  /// new node starts up, with an empty mailbox; fault plans and per-link
  /// streams cover its links lazily, exactly like links between founding
  /// nodes. Returns the new node's id.
  NodeId AddNode();
  net::Mailbox& MailboxOf(NodeId node) override;

  /// Deliver (or schedule) one message. Returns true when the message was
  /// delivered or handed to the fault layer for (possibly duplicated,
  /// delayed, reordered) delivery; false when it was dropped — sender or
  /// receiver down, link partitioned, or eaten by the drop dice. Callers
  /// that account for side effects (read repair) must count only true.
  bool Send(NodeId from, NodeId to, RtMessage msg) override;

  /// Fail-stop: mark the node down, then hand the queued backlog to the
  /// node's crash hook (which drains it in FIFO order and cuts at a
  /// deterministic position — see replica_server.hpp), or discard it
  /// here when no hook is installed. Either way the mailbox is empty
  /// when Crash returns.
  void Crash(NodeId node) override;
  /// Bring the node back up. Also reopens the node's mailbox: a crash that
  /// raced with CloseAll (shutdown ordering) leaves the mailbox closed, and
  /// without reopening it every post-recovery send would be dropped on the
  /// mailbox floor while the node counts as "up".
  void Recover(NodeId node) override;
  bool IsUp(NodeId node) const override { return up_[node].load(); }

  /// Install a callback that Crash(node) runs after the node is marked
  /// down. The hook owns the queued backlog: a replica server pushes a
  /// crash-drain marker and waits until everything delivered before the
  /// crash has been applied and everything after it refused, so the
  /// whole replica fail-stops at one deterministic point in its message
  /// stream. Pass nullptr to remove.
  void SetCrashHook(NodeId node, std::function<void()> hook) override;

  /// Install a callback that Recover(node) runs after the node is back
  /// up (crash-cut reset; see replica_server.hpp). Pass nullptr to
  /// remove.
  void SetRecoverHook(NodeId node, std::function<void()> hook) override;

  // --- Fault injection -----------------------------------------------------

  /// Install `plan` as the default for every link. Per-link overrides from
  /// SetLinkFaults take precedence. Install plans before traffic flows if
  /// you want the per-link decision streams reproducible from the seed
  /// (links lazily seed their RNG on first faulty send).
  void SetFaults(const FaultPlan& plan);
  /// Override the plan for one directed link.
  void SetLinkFaults(NodeId from, NodeId to, const FaultPlan& plan);
  /// Remove the default plan and all per-link overrides (partitions and
  /// in-flight held messages are untouched).
  void ClearFaults();

  /// Partition the two node sets from each other: sends from a member of
  /// `a` to a member of `b` are dropped, and symmetrically unless
  /// `symmetric` is false (asymmetric partitions model one-way link loss).
  void Partition(const std::vector<NodeId>& a, const std::vector<NodeId>& b,
                 bool symmetric = true);
  /// Heal every partition installed by Partition().
  void Heal();

  /// Deliver everything the fault layer is still holding — reorder
  /// buffers in rank order, then all delayed messages regardless of due
  /// time. A test's end-of-run drain; not part of the modeled network.
  void FlushFaults();

  FaultStats InjectedFaults() const;

  std::uint64_t MessagesSent() const override { return sent_.load(); }
  std::uint64_t MessagesDropped() const override { return dropped_.load(); }

  const char* Name() const override { return "bus"; }

  /// Close every mailbox (shutdown).
  void CloseAll() override;

 private:
  struct HeldMessage {
    std::uint64_t rank = 0;  // release order within the link
    std::chrono::steady_clock::time_point flush_at{};
    NodeId to = 0;
    Envelope e;
  };
  struct LinkState {
    std::optional<FaultPlan> plan;  // overrides the default plan
    Rng rng{0};
    bool seeded = false;
    std::uint64_t seq = 0;          // messages sent on this link
    std::vector<HeldMessage> held;  // reorder holdback (≤ window entries)
  };
  struct DelayedMessage {
    std::chrono::steady_clock::time_point due{};
    std::uint64_t tie = 0;  // FIFO among equal due times
    NodeId to = 0;
    Envelope e;
  };

  /// Directed-link key, stable under universe growth: (from << 32) | to.
  /// Keying (and seeding) by a NodeCount()-based index would re-map every
  /// link — and restart every per-link fault stream — whenever a node
  /// joins; the pair key keeps streams pinned to their link forever.
  static std::uint64_t LinkKey(NodeId from, NodeId to) {
    return (static_cast<std::uint64_t>(from) << 32) |
           static_cast<std::uint64_t>(to);
  }

  static bool DueLater(const DelayedMessage& a, const DelayedMessage& b);
  bool SendWithFaults(NodeId from, NodeId to, RtMessage msg);
  /// All helpers below require fault_mu_ held.
  const FaultPlan* PlanFor(LinkState& link) const;
  void SeedLink(LinkState& link, NodeId from, NodeId to,
                const FaultPlan& plan);
  void DeliverOrDelay(LinkState& link, const FaultPlan& plan, NodeId to,
                      Envelope e);
  void DeliverNow(NodeId to, Envelope e);
  void ReleaseLowestRank(LinkState& link, const FaultPlan& plan);
  void FlushLink(LinkState& link);
  void EnsureNetThread();
  void NetLoop();

  std::vector<std::unique_ptr<net::Mailbox>> mailboxes_;  // sized to Capacity()
  std::vector<std::atomic<bool>> up_;                // sized to Capacity()
  std::atomic<std::size_t> count_{0};                // logical node count
  mutable std::mutex hooks_mu_;
  std::vector<std::function<void()>> crash_hooks_;
  std::vector<std::function<void()>> recover_hooks_;
  std::atomic<std::uint64_t> sent_{0};
  std::atomic<std::uint64_t> dropped_{0};

  // Fault layer. The flag gates the hot path: with no plans and no
  // partitions ever installed, Send never touches fault_mu_.
  std::atomic<bool> faults_active_{false};
  mutable std::mutex fault_mu_;
  std::condition_variable fault_cv_;
  std::optional<FaultPlan> default_plan_;
  std::unordered_map<std::uint64_t, LinkState> links_;   // key: LinkKey
  std::unordered_set<std::uint64_t> blocked_;            // partitioned links
  FaultStats fault_stats_;
  std::vector<DelayedMessage> delayed_;  // min-heap on (due, tie)
  std::uint64_t delayed_tie_ = 0;
  std::thread net_thread_;
  bool net_stop_ = false;
};

}  // namespace qcnt::runtime
