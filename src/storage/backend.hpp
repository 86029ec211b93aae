// Pluggable per-replica storage backend.
//
// A ReplicaServer applies every mutation to its in-memory Image and then
// notifies its Backend *before* acking the client — write-ahead in the
// Gray/Lamport sense: the ack implies the backend accepted the record.
//
//   MemoryBackend  — no-op persistence; a crash only partitions the node
//                    (the seed's behavior, zero overhead on the hot path).
//   DurableBackend — the v2 engine: a bounded chain of WAL segments
//                    (rotation + wholesale reclamation), incremental
//                    checkpoints of only the keys dirtied since the last
//                    one, and a cold-read layer (per-checkpoint bloom
//                    filter + block index) so the value map can spill to
//                    sorted checkpoint blocks on disk. Checkpoint and
//                    recovery cost are proportional to the WAL tail, not
//                    total state.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "storage/commit.hpp"
#include "storage/image.hpp"
#include "storage/manifest.hpp"
#include "storage/wal.hpp"

namespace qcnt::storage {

/// Knobs for the durable backend (embedded in runtime StoreOptions).
struct DurabilityOptions {
  /// Store-wide root; replica r keeps its files under
  /// `<directory>/replica_<r>` (its `shard_0/` subdirectory holds the
  /// segment chain and checkpoint blocks).
  std::string directory;
  FsyncPolicy fsync = FsyncPolicy::kAlways;
  std::chrono::microseconds group_commit_window{500};
  /// kGroupCommit + coordinator only: let the coordinator widen/narrow
  /// the fsync window between min/max from the observed arrival rate.
  /// Defaults off — `group_commit_window` stays the fixed baseline.
  bool adaptive_commit_window = false;
  std::chrono::microseconds commit_window_min{100};
  std::chrono::microseconds commit_window_max{4000};
  /// Checkpoint (flush the dirty set, drop sealed segments) once the
  /// replica's live segment chain exceeds this many bytes. The work done
  /// per trigger is O(tail), not O(total state).
  std::uint64_t checkpoint_tail_bytes = 1u << 20;
  /// Seal + rotate the active segment at this size, bounding any single
  /// log file and the unit of wholesale reclamation.
  std::uint64_t segment_bytes = 256u << 10;
  /// Merge the checkpoint chain into one base file once it grows past
  /// this many files (k-way newest-wins merge). The merge runs in slices
  /// on the replica loop — each MaybeCompact advances it by the newest
  /// checkpoint's entry count — and always commits before this many more
  /// checkpoints land, so the chain never exceeds twice this length.
  std::size_t max_checkpoints = 6;
  /// Serve cold reads from checkpoint blocks (bloom + index + one block
  /// decode) instead of materializing every checkpointed key into the
  /// Image at recovery. With this on, the in-memory map holds roughly
  /// the keys written since the last checkpoint — a replica can hold far
  /// more keys on disk than in RAM — and recovery never scans the
  /// checkpoints at all (footer-only opens), making restart O(tail).
  bool spill_cold_reads = false;
};

/// Counter snapshot; aggregated across replicas by the store's stats
/// surface, alongside the bus message counters.
struct StorageStats {
  std::uint64_t records_appended = 0;
  std::uint64_t bytes_appended = 0;
  std::uint64_t batch_appends = 0;  // multi-record appends (one sync each)
  std::uint64_t fsyncs = 0;
  std::uint64_t recoveries = 0;
  std::uint64_t recovery_replayed = 0;  // WAL records replayed, total
  std::uint64_t torn_tails_discarded = 0;
  // v2 engine counters.
  std::uint64_t segments_rotated = 0;    // active-segment seals
  std::uint64_t segments_compacted = 0;  // sealed segment files reclaimed
  std::uint64_t checkpoints_written = 0;
  std::uint64_t checkpoint_entries = 0;  // keys flushed across checkpoints
  std::uint64_t checkpoint_merges = 0;   // chain compactions (k-way merges)
  std::uint64_t merge_entries = 0;       // entries those merges wrote
  // Cold-read layer (spill mode): per-file probe outcomes.
  std::uint64_t cold_lookups = 0;   // Lookup calls that missed the image
  std::uint64_t bloom_hits = 0;     // filter passed and the key was there
  std::uint64_t bloom_misses = 0;   // filter rejected the probe (no I/O)
  std::uint64_t bloom_false_positives = 0;  // filter passed, key absent

  StorageStats& operator+=(const StorageStats& o) {
    records_appended += o.records_appended;
    bytes_appended += o.bytes_appended;
    batch_appends += o.batch_appends;
    fsyncs += o.fsyncs;
    recoveries += o.recoveries;
    recovery_replayed += o.recovery_replayed;
    torn_tails_discarded += o.torn_tails_discarded;
    segments_rotated += o.segments_rotated;
    segments_compacted += o.segments_compacted;
    checkpoints_written += o.checkpoints_written;
    checkpoint_entries += o.checkpoint_entries;
    checkpoint_merges += o.checkpoint_merges;
    merge_entries += o.merge_entries;
    cold_lookups += o.cold_lookups;
    bloom_hits += o.bloom_hits;
    bloom_misses += o.bloom_misses;
    bloom_false_positives += o.bloom_false_positives;
    return *this;
  }
};

class Backend {
 public:
  virtual ~Backend() = default;

  /// True when a crash of the owning replica must wipe volatile state.
  virtual bool Durable() const = 0;

  /// Rebuild the replica's state at (re)start. In spill mode the
  /// returned Image holds only the un-checkpointed tail; checkpointed
  /// keys are served through Lookup/ScanAbove. A durable backend throws
  /// LayoutError for a directory it cannot adopt (see manifest.hpp).
  virtual Image Recover() = 0;

  /// A batch of applied (i.e. version-accepted) writes, before the single
  /// ack that covers them all — the only write entry point. The durable
  /// backend appends the batch with one write(2) and one fsync-policy
  /// decision (group commit at batch granularity).
  virtual void ApplyWriteBatch(const std::vector<WalRecord>& records) = 0;

  /// An applied configuration install, before the ack.
  virtual void ApplyConfig(std::uint64_t generation,
                           std::uint32_t config_id) = 0;

  /// Called after each apply; the backend may rotate the active segment,
  /// checkpoint the dirty set, or open or advance a checkpoint-chain merge
  /// when its thresholds trip. In spill mode it may also evict clean (checkpointed)
  /// entries from `image` to bound the in-memory map.
  virtual void MaybeCompact(Image& image) { (void)image; }

  /// Force a checkpoint now regardless of thresholds (tests, benches,
  /// and catchup donors that want a tight tail). No-op for backends
  /// without checkpoints.
  virtual void ForceCheckpoint(Image& image) { (void)image; }

  /// Cold point read: the key's durable version when it is absent from
  /// the caller's image (spill mode only). False = not present anywhere
  /// in the checkpoint chain.
  virtual bool Lookup(const std::string& key, Versioned* out) {
    (void)key;
    (void)out;
    return false;
  }

  /// Visit checkpointed keys strictly greater than `cursor` in ascending
  /// order, at most `limit` of them, newest version per key (the catchup
  /// donor's cold half). An empty cursor starts at the first key,
  /// inclusive. Backends without spilled state visit nothing.
  virtual void ScanAbove(
      const std::string& cursor, std::size_t limit,
      const std::function<void(const std::string&, const Versioned&)>& fn) {
    (void)cursor;
    (void)limit;
    (void)fn;
  }

  /// Visit every checkpointed key (diagnostics / Peek in spill mode).
  virtual void ScanAll(
      const std::function<void(const std::string&, const Versioned&)>& fn) {
    (void)fn;
  }

  /// The owning replica fail-stopped: release file handles, drop nothing
  /// durable. Volatile state is wiped by the replica itself.
  virtual void OnCrash() {}

  virtual StorageStats Stats() const { return {}; }
};

/// The seed's semantics: nothing persists, nothing is lost.
std::unique_ptr<Backend> MakeMemoryBackend();

/// v2 persistence under `dir` (created if absent): one segment chain and
/// one checkpoint chain, anchored by `dir`/MANIFEST.
///
/// With a non-null `coordinator` and FsyncPolicy::kGroupCommit, fsync
/// decisions move off the replica's loop thread entirely: the active
/// segment is appended with kNever and registered with the replica's
/// GroupCommitCoordinator, which makes one fsync decision per window (see
/// commit.hpp). kAlways ignores the coordinator and stays
/// inline-synchronous.
std::unique_ptr<Backend> MakeDurableBackend(
    std::string dir, DurabilityOptions options,
    std::shared_ptr<GroupCommitCoordinator> coordinator = nullptr);

}  // namespace qcnt::storage
