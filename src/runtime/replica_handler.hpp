// The replica's rules, sans I/O: one request in, at most one reply out.
//
// In the paper (§3–§4) a DM is a read-write object that only answers the
// accesses TMs make to it. ReplicaHandler is that object for the runtime:
// a (version, value) pair per key plus the replica-wide (generation,
// configuration) stamp, held as one storage::Image over a
// storage::Backend. Every message a replica serves is one request whose
// reply goes back to its sender:
//
//   kBatchReadReq   -> kBatchReadResp  per-entry (version, value)
//   kBatchWriteReq  -> kBatchWriteAck  generation-fenced installs
//   kConfigWriteReq -> kConfigWriteAck the stamp, logged before the ack
//   kCatchupReq     -> kCatchupChunk   one bounded slice of the image
//
// Handle applies the request and fills the reply; accepted writes and
// stamps reach the backend before it returns, so the reply is always
// sent after the write-ahead append. It owns no thread and sends
// nothing: ReplicaServer's loop thread and the simulator's sim::Replica
// both drive it, so the two replicas cannot disagree on a rule.
#pragma once

#include <atomic>
#include <memory>
#include <string>
#include <vector>

#include "runtime/message.hpp"
#include "storage/backend.hpp"

namespace qcnt::runtime {

/// One version-accepted write, in application order — recorded only when
/// the handler was built with record_history (test observability: the
/// per-item subsequences are exactly the version-number sequences Lemma
/// 7/8 constrain, so equivalence suites compare them across runtimes).
struct AppliedWrite {
  std::string key;
  std::uint64_t version = 0;
  std::int64_t value = 0;
};

class ReplicaHandler {
 public:
  /// Execution counters. `ops` counts operations applied (batch entries,
  /// config stamps and served catchup chunks); `batches` the batch
  /// messages; `read_ops`/`write_ops` the batch entries of each kind.
  struct Counters {
    std::uint64_t ops = 0;
    std::uint64_t batches = 0;
    std::uint64_t batched_ops = 0;
    std::uint64_t max_batch = 0;
    std::uint64_t read_ops = 0;
    std::uint64_t write_ops = 0;
  };

  /// Recovers the image from `backend`; a backend refusing its directory
  /// (storage::LayoutError) throws out of the constructor.
  explicit ReplicaHandler(std::unique_ptr<storage::Backend> backend,
                          bool record_history = false);

  /// Apply one request. True when `reply` must go back to the sender;
  /// false for a kind a replica does not answer (replies, markers).
  bool Handle(const RtMessage& m, RtMessage& reply);

  /// Fail-stop: drop the volatile state (image, history, remembered
  /// config payload) and let the backend release its handles.
  void Wipe();
  /// Rebuild the image from the backend.
  void Recover() { image_ = backend_->Recover(); }

  const storage::Image& State() const { return image_; }
  /// The full logical map. Under a spill-mode durable backend the image
  /// holds only the un-checkpointed tail, so this overlays the
  /// checkpoint chain; the merge rule keeps the hot copy of a key both
  /// layers hold.
  storage::Image FullImage() const;
  const std::vector<AppliedWrite>& History() const { return history_; }
  storage::StorageStats StorageStats() const { return backend_->Stats(); }

  /// Readable from any thread; only the thread calling Handle writes.
  Counters Count() const;

 private:
  void Read(const RtMessage& m, RtMessage& reply);
  void Write(const RtMessage& m, RtMessage& reply);
  void Stamp(const RtMessage& m, RtMessage& reply);
  void ServeCatchup(const RtMessage& m, RtMessage& reply);
  /// Merge one write; an accepted one is staged in wal_batch_ for the
  /// batch's one backend append.
  void Apply(const std::string& key, std::uint64_t version,
             std::int64_t value);
  /// Close one batch: append the staged WAL records with one
  /// ApplyWriteBatch (before the reply that covers them), let the backend
  /// compact, and count the batch.
  void FinishBatch(std::size_t entries);
  /// Attach the remembered config payload to a reply whose stamp is
  /// newer than the request's — the channel through which a client in
  /// another process (whose ConfigTable never saw the coordinator's
  /// Append) learns the configuration it is being fenced to.
  void MaybeAttachConfig(const RtMessage& req, RtMessage& reply) const;

  storage::Image image_;
  std::unique_ptr<storage::Backend> backend_;
  bool record_history_;
  std::vector<AppliedWrite> history_;
  // The batch's accepted WAL records, reused across batches.
  std::vector<storage::WalRecord> wal_batch_;

  // The self-describing payload of the stamp last installed with one,
  // and the config it names. Volatile: a Wipe loses it, degrading fence
  // NACKs to the stamp-only shape until the next config write.
  std::shared_ptr<const ConfigPayload> config_payload_;
  std::uint32_t config_payload_id_ = 0;

  // Single writer (the Handle thread), so a relaxed load and store
  // replace the read-modify-write.
  std::atomic<std::uint64_t> ops_{0};
  std::atomic<std::uint64_t> batches_{0};
  std::atomic<std::uint64_t> batched_ops_{0};
  std::atomic<std::uint64_t> max_batch_{0};
  std::atomic<std::uint64_t> read_ops_{0};
  std::atomic<std::uint64_t> write_ops_{0};
};

}  // namespace qcnt::runtime
