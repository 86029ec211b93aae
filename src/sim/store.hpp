// A quorum-replicated store over the simulated network.
//
// The simulated counterpart of the threaded runtime, running the same
// code on both sides: each Replica owns a runtime::ReplicaHandler — the
// rules every runtime replica's loop thread runs (generation fence, Image
// merge, header stamp on every reply) — over an in-memory backend and
// sends its reply over the simulated network, and QuorumStoreClient runs
// runtime::QuorumCore — the sans-IO coordinator automaton every threaded
// client runs — from simulator events, on the simulator's virtual clock.
// The store holds a single item, key "" (the key a reconfigure's data leg
// carries). The installable configurations form one runtime::ConfigTable
// shared by every client.
#pragma once

#include <deque>
#include <memory>

#include "runtime/quorum_op.hpp"
#include "runtime/replica_handler.hpp"
#include "sim/network.hpp"

namespace qcnt::sim {

/// Replica process: node ids [0, n) on the network. A crash only makes
/// it unreachable; its state survives.
class Replica {
 public:
  Replica(Network& net, NodeId id);
  Replica(const Replica&) = delete;  // the network holds its address
  Replica& operator=(const Replica&) = delete;

  const storage::Image& State() const { return handler_.State(); }

 private:
  runtime::ReplicaHandler handler_;
};

/// Outcome of one logical operation.
struct OpResult {
  bool ok = false;
  std::int64_t value = 0;      // for reads
  std::uint64_t version = 0;   // read: the freshest seen; write: installed
  Time latency = 0.0;          // completion - launch
  std::uint64_t messages = 0;  // network sends while the op ran
};

class QuorumStoreClient {
  using Kind = runtime::QuorumOp::Kind;

 public:
  using Callback = std::function<void(const OpResult&)>;

  /// Entry `initial_config` of `table` is in force at generation 0. The
  /// client is node `id` (>= replica count). A crashed replica looks like
  /// a slow one: sends are never refused, so only timeouts and the
  /// options' retries (`max_attempts`) move an op along. Ops run one at
  /// a time in submission order, as the runtime client runs the ops of
  /// one key: the store's single item is every op's key.
  QuorumStoreClient(Simulator& sim, Network& net, NodeId id,
                    std::shared_ptr<runtime::ConfigTable> table,
                    std::uint32_t initial_config,
                    runtime::ClientOptions options);
  QuorumStoreClient(const QuorumStoreClient&) = delete;  // events hold it
  QuorumStoreClient& operator=(const QuorumStoreClient&) = delete;

  /// The configuration the client believes in (newest stamp seen).
  std::uint32_t BelievedConfig() const { return core_.ConfigId(); }
  std::uint64_t BelievedGeneration() const { return core_.Generation(); }

  void Read(Callback done) { Submit(Kind::kRead, 0, 0, std::move(done)); }
  void Write(std::int64_t value, Callback done) {
    Submit(Kind::kWrite, value, 0, std::move(done));
  }
  /// Install table entry `target`.
  void Reconfigure(std::uint32_t target, Callback done) {
    Submit(Kind::kReconfigure, 0, target, std::move(done));
  }

 private:
  struct Op {
    runtime::QuorumOp op;
    Time start = 0.0;
    std::uint64_t messages_before = 0;
    Callback done;
    /// Due time of the op's live timer event (older events are stale).
    runtime::TimePoint armed = runtime::TimePoint::max();
  };

  void Submit(Kind kind, std::int64_t value, std::uint32_t target,
              Callback done);
  /// Start the front op of the queue.
  void LaunchFront();
  /// The running op when its current attempt has id `op_id`, else null.
  std::shared_ptr<Op> Running(std::uint64_t op_id) const;
  void Apply(const std::shared_ptr<Op>& op, runtime::QuorumOp::Step step);
  void Arm(const std::shared_ptr<Op>& op);
  void OnMessage(NodeId from, const runtime::RtMessage& m);
  void SendTo(std::uint64_t to, runtime::RtMessage m);
  runtime::TimePoint Now() const;

  Simulator* sim_;
  Network* net_;
  NodeId id_;
  runtime::QuorumCore core_;
  /// Submitted, unfinished ops; only the front one runs.
  std::deque<std::shared_ptr<Op>> queue_;
};

/// A complete single-item simulated deployment: n replicas plus clients.
/// The default options fan every phase out to the full member set.
struct Deployment {
  Simulator sim;
  Network net;
  std::vector<std::unique_ptr<Replica>> replicas;
  std::vector<std::unique_ptr<QuorumStoreClient>> clients;

  Deployment(std::size_t replica_count, std::size_t client_count,
             std::vector<quorum::QuorumSystem> configs,
             std::uint32_t initial_config, LatencyModel latency,
             double drop_probability, std::uint64_t seed,
             runtime::ClientOptions client_options = {.target_minimal =
                                                          false});
};

}  // namespace qcnt::sim
