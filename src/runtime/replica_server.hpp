// Replica server: one thread per replica, driving the replica's
// ReplicaHandler over every message in arrival order.
//
// The handler holds the rules (replica_handler.hpp): the per-key
// (version, value) pairs of a Section-3 DM plus the replica-wide
// (generation, configuration) stamp of Section 4, as one storage::Image.
// Under durability the image is backed by one WAL segment chain and one
// checkpoint chain (`replica_<r>/shard_0/`, anchored by the replica's
// MANIFEST). The loop drains the transport mailbox in PopAll bursts,
// hands each request to the handler and Sends its one reply to the
// sender, so a batch gets exactly one reply and one WAL append, and a
// config write is logged before its single ack (DESIGN.md §8). The loop
// keeps only the threading: the crash cut, Peek and shutdown.
//
// Crash semantics are fail-stop at replica granularity with a
// *deterministic cut*: Transport::Crash marks the node down (so nothing
// new is delivered) and runs the crash hook, which enqueues a
// kCrashDrain marker at the tail of the mailbox and waits. The loop
// applies everything delivered before the marker, then sets the crash
// cut: external work behind the marker is refused until Recover (the
// recover hook resets the cut). So the node's visible state is a prefix
// of its delivered message stream ending exactly at Crash() — not at
// whatever message the loop happened to be holding. Bus::Send's up-check
// guarantees no ack escapes after the crash. CrashAndWipe() additionally
// stops the loop and discards the image; Restart() rebuilds it from the
// backend (under durability: the WAL segment chain and checkpoints) and
// relaunches the loop.
#pragma once

#include <atomic>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <thread>

#include "runtime/bus.hpp"
#include "runtime/replica_handler.hpp"

namespace qcnt::runtime {

/// Execution counters of a replica's one chain (volatile, unlike
/// StorageStats). `ops` counts operations applied (batch entries and
/// config stamps); `batches` counts batch messages; `queue_peak` is the
/// loop's high-water mark of messages moved by one mailbox drain.
struct ShardCounters {
  std::uint64_t ops = 0;
  std::uint64_t batches = 0;
  std::uint64_t fsyncs = 0;
  std::uint64_t queue_peak = 0;

  ShardCounters& operator+=(const ShardCounters& o) {
    ops += o.ops;
    batches += o.batches;
    fsyncs += o.fsyncs;
    queue_peak = queue_peak > o.queue_peak ? queue_peak : o.queue_peak;
    return *this;
  }
};

/// Replica-side batching counters (volatile, unlike StorageStats).
struct BatchStats {
  std::uint64_t batches_applied = 0;  // kBatch* messages handled
  std::uint64_t batched_ops = 0;      // entries across those messages
  std::uint64_t max_batch = 0;        // largest single batch seen
  /// Read / write operations served (batch entries) — the observed
  /// workload mix a StrategyAdvisor samples, and
  /// the denominator for messages-per-op fan-out measurements.
  std::uint64_t read_ops = 0;
  std::uint64_t write_ops = 0;
  /// Deliveries into the replica's mailbox, the loop's only queue:
  /// `handoffs` counts Push/PushAll calls (deterministic), `wakeups` the
  /// notifies actually issued to a parked loop (timing-dependent). The
  /// loop spins for up to Mailbox::kSpinBudget on an empty queue before
  /// it parks, so a delivery that lands while it is busy or still
  /// spinning needs no wakeup. On TCP only local pushes notify: a frame
  /// from another node wakes a parked loop as socket bytes.
  std::uint64_t mailbox_handoffs = 0;
  std::uint64_t mailbox_wakeups = 0;
  std::uint64_t worker_handoffs = 0;  // always 0: no dispatch→worker hop
  std::uint64_t worker_wakeups = 0;   // always 0: no dispatch→worker hop
  /// Always one entry: the replica's chain. Kept only because qbench
  /// reads per-stripe counters; it goes with the next benchmark change.
  std::vector<ShardCounters> per_shard;

  BatchStats& operator+=(const BatchStats& o) {
    batches_applied += o.batches_applied;
    batched_ops += o.batched_ops;
    max_batch = max_batch > o.max_batch ? max_batch : o.max_batch;
    read_ops += o.read_ops;
    write_ops += o.write_ops;
    mailbox_handoffs += o.mailbox_handoffs;
    mailbox_wakeups += o.mailbox_wakeups;
    worker_handoffs += o.worker_handoffs;
    worker_wakeups += o.worker_wakeups;
    if (per_shard.size() < o.per_shard.size()) {
      per_shard.resize(o.per_shard.size());
    }
    for (std::size_t i = 0; i < o.per_shard.size(); ++i) {
      per_shard[i] += o.per_shard[i];
    }
    return *this;
  }
};

/// Point-in-time copy of a replica's volatile state, taken on the loop
/// thread between messages (never mid-batch), so it is consistent.
struct ReplicaSnapshot {
  /// The key map. Under a spill-mode durable backend the in-memory image
  /// holds only the un-checkpointed tail; Peek overlays the checkpoint
  /// chain (Backend::ScanAll) so this is always the full logical map.
  storage::Image image;
  std::vector<AppliedWrite> history;  // empty unless record_history
  BatchStats stats;
  storage::StorageStats storage;
};

class ReplicaServer {
 public:
  /// In-memory backend; starts the server thread. The transport may be
  /// the in-process Bus or a net::TcpTransport hosting this node — the
  /// server only uses the Transport surface.
  ReplicaServer(Transport& transport, NodeId id);
  /// Recovers from `backend` before starting the loop; a backend refusing
  /// its directory (storage::LayoutError) throws out of the constructor.
  ReplicaServer(Transport& transport, NodeId id,
                std::unique_ptr<storage::Backend> backend,
                bool record_history = false);
  ~ReplicaServer();

  ReplicaServer(const ReplicaServer&) = delete;
  ReplicaServer& operator=(const ReplicaServer&) = delete;

  NodeId Id() const { return id_; }

  /// Ask the loop to exit and join its thread.
  void Shutdown();

  /// Fail-stop: stop the loop and wipe all volatile state. The caller is
  /// expected to have partitioned the node (Bus::Crash) first so the ack
  /// of an in-flight request cannot escape.
  void CrashAndWipe();

  /// Relaunch after CrashAndWipe (or Shutdown): recover the image from
  /// the backend and restart the loop. No-op if already running.
  /// Throws (and stays down) when a backend refuses its directory.
  void Restart();

  bool Running() const { return thread_.joinable(); }

  /// Consistent copy of the replica's state (see ReplicaSnapshot).
  /// Must only be called while the server is running.
  ReplicaSnapshot Peek();

  storage::StorageStats StorageStats() const;
  runtime::BatchStats BatchStats() const;

 private:
  /// Launch the loop thread over the recovered images.
  void StartLoop();
  void Loop();
  void OnBusCrash();
  void OnBusRecover();
  /// True while refusing external work: the crash cut was reached and the
  /// node has not recovered. Resets itself lazily once IsUp again (the
  /// recover hook also resets it eagerly). Only called from the loop.
  bool Crashed();
  /// The loop passed the crash-drain marker for `epoch`.
  void AckCrashDrain(std::uint64_t epoch);
  void NoteLoopExit();

  void ServePeek(std::uint64_t epoch);

  Transport* transport_;
  NodeId id_;
  // Only the loop thread calls the handler (and Peek reads it there);
  // its counters and StorageStats are safe from any thread.
  ReplicaHandler handler_;
  std::thread thread_;  // the loop
  std::atomic<std::uint64_t> queue_peak_{0};  // written by the loop only

  // Crash-drain handshake: OnBusCrash (an external thread, inside
  // Transport::Crash) pushes a kCrashDrain marker carrying drain_epoch_
  // and waits until the loop acked it — or until the loop is gone
  // (loop_live_), so a crash racing shutdown can't hang. crash_cut_ flips
  // when the marker is *processed*, making the cut a FIFO position in the
  // message stream rather than a timing race.
  std::mutex drain_call_mu_;  // serializes concurrent Crash() calls
  std::mutex drain_mu_;
  std::condition_variable drain_cv_;
  std::uint64_t drain_epoch_ = 0;
  std::uint64_t drained_epoch_ = 0;
  bool loop_live_ = false;
  std::atomic<bool> crash_cut_{false};

  // Peek handshake: the requester pushes one kImagePeek (epoch in
  // `generation`) and the loop fills peek_slot_ once per epoch. Peeks are
  // served even on a crashed node (the crash-drain marker never discards
  // them — observers may inspect dead replicas). The requester retries on
  // a timeout as a liveness guard for the paths that discard queues
  // (crash racing shutdown, CrashAndWipe); peek_served_ makes retries
  // idempotent.
  std::mutex peek_call_mu_;  // serializes concurrent Peek() callers
  std::mutex peek_mu_;
  std::condition_variable peek_cv_;
  std::uint64_t peek_epoch_ = 0;
  std::uint64_t peek_served_ = 0;
  ReplicaSnapshot peek_slot_;
};

}  // namespace qcnt::runtime
