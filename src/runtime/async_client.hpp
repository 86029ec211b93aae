// Asynchronous, batched quorum client: the one runtime owner of QuorumOp.
//
// SubmitRead / SubmitWrite return futures immediately; up to `window`
// operations run their quorum phases concurrently, and staged requests are
// coalesced into multi-op messages (kBatchReadReq / kBatchWriteReq) so a
// replica serves many operations per mailbox wakeup and logs a whole write
// batch with one group-commit append. The protocol itself lives in
// QuorumOp (quorum_op.hpp); this class adds only the per-key FIFO, the
// window, batching and the pump.
//
// Correctness envelope (DESIGN.md §7): the paper constrains only the
// per-item version order (Lemmas 7/8 quantify over one item at a time),
// so ops on disjoint keys pipeline freely while ops on the same key run
// one at a time in submission order — every write still derives its
// version from a read quorum that reflects the preceding write.
//
// Threading model: single-threaded and cooperatively driven. Progress
// happens inside Submit*, Flush, Drain and OpFuture::Get, which pump the
// client's own mailbox. One client per thread.
#pragma once

#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "quorum/strategies.hpp"
#include "runtime/bus.hpp"
#include "runtime/quorum_op.hpp"

namespace qcnt::runtime {

class AsyncQuorumClient;

/// Completion handle for one submitted operation. Valid only while the
/// owning AsyncQuorumClient is alive; Get() drives the client until this
/// operation resolves (result.status says how).
class OpFuture {
 public:
  bool Ready() const;
  ClientResult Get();

 private:
  friend class AsyncQuorumClient;
  friend class QuorumClient;
  OpFuture(AsyncQuorumClient* client, std::shared_ptr<QuorumOp> op)
      : client_(client), op_(std::move(op)) {}
  AsyncQuorumClient* client_;
  std::shared_ptr<QuorumOp> op_;
};

class AsyncQuorumClient {
 public:
  using Stats = QuorumCore::Stats;

  /// `table` is the shared registry of installable configurations (it may
  /// grow at runtime; see config_table.hpp); responses revealing a newer
  /// generation re-target every later request.
  AsyncQuorumClient(Transport& transport, NodeId id,
                    std::shared_ptr<ConfigTable> table,
                    std::uint32_t initial_config, ClientOptions options);
  /// Convenience: wrap a static table of prefix-universe configurations.
  AsyncQuorumClient(Transport& transport, NodeId id,
                    std::vector<quorum::QuorumSystem> configs,
                    std::uint32_t initial_config, ClientOptions options);

  AsyncQuorumClient(const AsyncQuorumClient&) = delete;
  AsyncQuorumClient& operator=(const AsyncQuorumClient&) = delete;

  /// Stage a logical read / write. May block while the in-flight window
  /// is full (draining completions, never waiting on this op itself).
  OpFuture SubmitRead(std::string key);
  OpFuture SubmitWrite(std::string key, std::int64_t value);

  /// Send staged batches now instead of waiting for max_batch to fill.
  void Flush();

  /// Drive everything in flight to completion. Returns true when every
  /// operation this client ever submitted succeeded.
  bool Drain();

  NodeId Id() const { return id_; }
  std::uint32_t BelievedConfig() const { return core_.ConfigId(); }
  std::uint64_t BelievedGeneration() const { return core_.Generation(); }
  const Stats& ClientStats() const { return core_.stats; }

 private:
  friend class OpFuture;
  friend class QuorumClient;
  using Op = QuorumOp;

  /// Gifford reconfiguration to table entry `target` (QuorumClient's
  /// Reconfigure runs it to completion).
  OpFuture SubmitReconfigure(std::uint32_t target);
  OpFuture Submit(std::shared_ptr<Op> op);
  /// Act on what an op asked for after an input.
  void Apply(const std::shared_ptr<Op>& op, QuorumOp::Step step);
  /// Send the staged entries as one batch of `kind` to a minimal quorum
  /// of the believed configuration (full fan-out when any op in it may
  /// not target), then tell every op in the batch whom it reached.
  void FlushStaged(std::vector<BatchEntry>& staged, RtMessage::Kind kind);
  /// Send `m` to every node in `to`; returns how many sends the
  /// transport accepted.
  std::size_t SendTo(std::uint64_t to, const RtMessage& m);
  /// Send one op's request, outside any batch, to the members in `to`.
  void SendDirect(const Op& op, std::uint64_t to);
  void SendRepairs(const Op& op);
  /// One scheduling step: flush staged batches, then block on the mailbox
  /// until a message, the earliest timer (op deadline, escalation or
  /// backoff expiry), or shutdown. Returns false when there is nothing in
  /// flight to wait for.
  bool PumpOnce();
  void Dispatch(const Envelope& e, TimePoint now);
  void Complete(const std::shared_ptr<Op>& op);
  void FailAllInFlight();
  void HandleTimers(TimePoint now);

  Transport* transport_;
  NodeId id_;
  QuorumCore core_;

  /// Ops with live quorum phases (or parked in backoff), by op id.
  std::unordered_map<std::uint64_t, std::shared_ptr<Op>> in_flight_;
  /// All outstanding ops: |in_flight_| plus ops queued behind a same-key
  /// predecessor. Submit* blocks while pending_ >= window.
  std::size_t pending_ = 0;
  /// Per-key FIFO; only the front op of each queue may be in flight.
  /// Queues are almost always one op long, so a vector beats a deque.
  std::unordered_map<std::string, std::vector<std::shared_ptr<Op>>> per_key_;
  std::vector<BatchEntry> staged_reads_;
  std::vector<BatchEntry> staged_writes_;
  std::vector<std::shared_ptr<Op>> due_;  // HandleTimers' reused buffer
};

}  // namespace qcnt::runtime
