// Replica server: one thread per replica, applying every message to the
// replica's state in arrival order.
//
// The state per key is a (version, value) pair — a Section-3 DM — plus one
// replica-wide (generation, configuration) stamp for Section-4
// reconfiguration, held together as one storage::Image. Under durability
// the image is backed by one WAL segment chain and one checkpoint chain
// (`replica_<r>/shard_0/`, anchored by the replica's MANIFEST). One loop
// thread drains the transport mailbox in PopAll bursts and handles each
// message in arrival order, so a batch gets exactly one reply and one WAL
// append, and a config write is logged before its single ack (DESIGN.md
// §8 records why the earlier dispatch stage, worker pool and key-hash
// shards were removed).
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
#include "storage/backend.hpp"

namespace qcnt::runtime {

/// One version-accepted write, in application order — recorded only when
/// the server was built with record_history (test observability: the
/// per-item subsequences are exactly the version-number sequences Lemma
/// 7/8 constrain, so equivalence suites compare them across runtimes).
struct AppliedWrite {
  std::string key;
  std::uint64_t version = 0;
  std::int64_t value = 0;
};

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

  void Handle(Envelope& e);
  void HandleBatchRead(const RtMessage& m, RtMessage& reply);
  void HandleBatchWrite(const RtMessage& m, RtMessage& reply);
  /// Close one batch: append the staged WAL records with one
  /// ApplyWriteBatch (before the single ack that covers them), let the
  /// backend compact, and count the batch.
  void FinishBatch(std::size_t entries);
  /// Donor side of streaming catchup: serve one bounded chunk — the
  /// smallest `m.value` keys strictly greater than the cursor `m.key` —
  /// ascending, with the replica's stamp on the reply. It runs on the
  /// loop, so chunks interleave with live writes without any extra
  /// locking.
  void ServeCatchup(const Envelope& e);
  /// Joiner side: start (or resume) pulling the donor's image.
  void HandleJoinReq(const Envelope& e);
  /// Joiner side: one arrived chunk — merge the entries, advance the
  /// cursor, request the next chunk or report kCatchupDone to the
  /// coordinator.
  void HandleJoinChunk(Envelope& e);
  void SendCatchupReq();
  /// Merge pulled entries under the same newer-version-wins order as live
  /// writes (so a chunk can never regress a version a concurrent install
  /// already placed), write-ahead logging the accepted ones.
  void ApplyCatchupEntries(const std::vector<BatchEntry>& entries);
  /// Newer-version-wins merge of one write into the image; an accepted
  /// write is staged in wal_batch_ for the batch's one backend append.
  void ApplyToImage(const std::string& key, std::uint64_t version,
                    std::int64_t value);
  void ServePeek(std::uint64_t epoch);
  static void TrackPeak(std::atomic<std::uint64_t>& peak, std::uint64_t v);
  /// Remember the self-describing config payload of an applied config
  /// write (newest (generation, config_id) wins), for echoing below.
  void NoteConfigPayload(const RtMessage& m);
  /// Attach the remembered payload to a reply whose stamp is newer than
  /// the request's — the channel through which a client in another
  /// process (whose ConfigTable never saw the coordinator's Append)
  /// learns the configuration it is being fenced to.
  void MaybeAttachConfig(const RtMessage& req, RtMessage& reply);

  Transport* transport_;
  NodeId id_;
  bool record_history_ = false;
  // Only the loop thread touches image_, history_ and backend_ (Stats()
  // on the backend is safe from any thread).
  storage::Image image_;
  std::vector<AppliedWrite> history_;
  std::unique_ptr<storage::Backend> backend_;
  std::thread thread_;  // the loop

  // The loop's scratch, reused across batches: the batch's accepted WAL
  // records, appended with one ApplyWriteBatch.
  std::vector<storage::WalRecord> wal_batch_;
  std::atomic<std::uint64_t> ops_{0};
  std::atomic<std::uint64_t> queue_peak_{0};

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

  std::atomic<std::uint64_t> batches_applied_{0};
  std::atomic<std::uint64_t> batched_ops_{0};
  std::atomic<std::uint64_t> max_batch_{0};
  std::atomic<std::uint64_t> read_ops_{0};
  std::atomic<std::uint64_t> write_ops_{0};

  // Last applied self-describing config payload (see NoteConfigPayload).
  // Volatile: a CrashAndWipe loses it, degrading fence NACKs to the
  // stamp-only shape until the next config write — remote clients then
  // fall back to refusing the unresolvable id, exactly the pre-payload
  // behavior.
  std::mutex config_payload_mu_;
  std::shared_ptr<const ConfigPayload> config_payload_;
  std::uint64_t config_payload_gen_ = 0;
  std::uint32_t config_payload_id_ = 0;

  /// Joiner-side pull progress. Touched only by the loop, so it needs no
  /// lock. A fresh kJoinReq during an active pull *resumes* from the
  /// cursor: that is what makes a donor crash mid-stream recoverable, from
  /// the same donor or a different one.
  struct JoinState {
    bool active = false;
    std::uint64_t op = 0;
    NodeId donor = 0;
    NodeId coordinator = 0;
    std::string cursor;          // last key received (exclusive)
    std::uint64_t entries = 0;   // total entries streamed so far
    /// Monotone per-request id (rides in kCatchupReq::op, echoed by the
    /// donor). Only the chunk answering the *latest outstanding* request
    /// advances the cursor — a duplicated or reordered chunk (fault
    /// injection, donor failover races) is dropped instead of ending the
    /// pull early or resurrecting a stale cursor.
    /// Survives a resume (it must stay monotone against in-flight stale
    /// chunks); cleared only by CrashAndWipe.
    std::uint64_t pull_seq = 0;
  };
  JoinState join_;
};

/// kCatchupDone status (RtMessage::value): the pull completed.
inline constexpr std::int64_t kJoinOk = 0;

}  // namespace qcnt::runtime
