// SegmentedLog: a replica's WAL tail as a chain of bounded segments, and
// the one place that decides when that tail is fsynced.
//
// The WAL frame format is spread across `shard_0/seg_<id>.log` files:
// appends go to the newest ("active") segment; once it exceeds
// `segment_bytes` it is sealed and a fresh segment becomes active (create
// file → manifest save → swap handles, so a crash at any point leaves
// either chain intact).
// Sealed segments are immutable; after a checkpoint persists their
// contents they are dropped wholesale — which is what makes log
// reclamation O(tail), no rewrite of surviving records.
//
// Who fsyncs, and when (FsyncPolicy is interpreted here and nowhere else):
//
//   kAlways      — the active segment fsyncs inside every append, so the
//                  ack follows the fsync.
//   kGroupCommit — the log owns one committer thread. An append only
//                  marks the log dirty (a flag and a notify, never a
//                  syscall). The committer wakes on the first mark,
//                  sleeps the fixed window so later appends ride the same
//                  pass, then fsyncs the active segment if it is still
//                  dirty. A quiet tail is synced within one window of its
//                  last append; an ack can precede its fsync by at most
//                  the window plus the pass.
//   kNever       — the OS decides.
//
// Under every policy a segment's Close() syncs what is still unsynced, so
// a sealed segment is durable once rotation returns. Rotation swaps the
// active segment under wal_mu_, which the committer holds for its pass:
// it never touches a closed segment.
//
// The log outlives crashes: Release() closes the active segment and
// OpenAndReplay() reopens the chain, while the committer and the counters
// carry on, so Fsyncs() and CommitPasses() never decrease.
//
// All methods except Fsyncs() and CommitPasses() run on the replica's
// loop thread.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>

#include "storage/manifest.hpp"
#include "storage/wal.hpp"

namespace qcnt::storage {

enum class FsyncPolicy : std::uint8_t {
  kAlways,       // fsync inside every append (commit is durable when acked)
  kGroupCommit,  // one committer fsyncs per window; the window's tail is at risk
  kNever,        // no fsync until a segment closes (fastest, weakest)
};

const char* ToString(FsyncPolicy policy);

class SegmentedLog {
 public:
  /// `files` is the backend's live manifest entry; the log mutates its
  /// `segments` / `next_file_id` fields and persists every transition
  /// through `manifest->Update(*files)`. The caller keeps `manifest` and
  /// `files` alive for the lifetime of the log. Under kGroupCommit the
  /// committer thread starts here and stops in the destructor.
  SegmentedLog(Manifest* manifest, ChainFiles* files, FsyncPolicy fsync,
               std::chrono::microseconds group_commit_window);
  ~SegmentedLog();

  SegmentedLog(const SegmentedLog&) = delete;
  SegmentedLog& operator=(const SegmentedLog&) = delete;

  struct ReplayStats {
    std::uint64_t records = 0;   // frames applied across all segments
    std::size_t torn_tails = 0;  // segments whose tail failed validation
  };

  /// Replays every manifest-listed segment oldest → newest through
  /// `apply`, truncates a torn tail on the active (last) segment and opens
  /// it for append. Creates the first segment (manifest save included)
  /// when the list is empty — a fresh replica. Throws LayoutError naming
  /// the path when a listed segment is missing: replaying the rest would
  /// silently drop the acked writes it held.
  ReplayStats OpenAndReplay(
      const std::function<void(const WalRecord&)>& apply);

  /// Between OpenAndReplay and Release.
  bool IsOpen() const { return wal_ != nullptr; }

  void AppendBatch(const std::vector<WalRecord>& records);

  /// Seal the active segment and start a new one. No-op while closed.
  void Rotate();

  /// Delete every sealed segment's file (the caller has already committed
  /// a manifest state whose `segments` list holds only the active id —
  /// i.e. a checkpoint landed). Returns how many files went away.
  std::size_t DropSealed();

  /// Bytes in the live chain: sealed segments + active segment. This is
  /// the recovery tail the checkpoint policy bounds.
  std::uint64_t TailBytes() const { return sealed_bytes_ + ActiveBytes(); }
  std::uint64_t ActiveBytes() const { return wal_ ? wal_->SizeBytes() : 0; }
  std::size_t SealedCount() const {
    return files_->segments.empty() ? 0 : files_->segments.size() - 1;
  }
  std::uint64_t BytesAppended() const {
    return bytes_appended_base_ + (wal_ ? wal_->BytesAppended() : 0);
  }

  /// Fsyncs across every segment this log has opened, closed ones
  /// included. Safe to call from any thread.
  std::uint64_t Fsyncs() const;

  /// Committer passes that fsynced the active segment (kGroupCommit).
  /// Safe to call from any thread.
  std::uint64_t CommitPasses() const {
    return passes_.load(std::memory_order_relaxed);
  }

  /// Close the active segment (crash / teardown). The chain on disk is
  /// untouched; OpenAndReplay reopens it.
  void Release();

 private:
  Wal::Options WalOptions() const {
    return Wal::Options{fsync_ == FsyncPolicy::kAlways};
  }
  void SwapActive(std::unique_ptr<Wal> next);
  void MarkDirty();
  void CommitLoop();

  Manifest* manifest_;
  ChainFiles* files_;
  const FsyncPolicy fsync_;
  const std::chrono::microseconds window_;

  mutable std::mutex wal_mu_;  // guards wal_ swaps against other threads
  std::unique_ptr<Wal> wal_;   // active segment
  std::uint64_t sealed_bytes_ = 0;  // valid bytes in sealed segments
  std::uint64_t bytes_appended_base_ = 0;
  std::uint64_t fsyncs_base_ = 0;  // closed segments' fsyncs (wal_mu_)

  // The committer (kGroupCommit only).
  std::mutex commit_mu_;
  std::condition_variable commit_cv_;
  bool dirty_ = false;  // appended since the committer last started a pass
  bool stop_ = false;
  std::atomic<std::uint64_t> passes_{0};
  std::thread committer_;
};

}  // namespace qcnt::storage
