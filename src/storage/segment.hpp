// SegmentedLog: a replica's WAL tail as a chain of bounded segments.
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
// Group-commit wiring is unchanged from the single-segment design: under
// a coordinator the active segment appends with FsyncPolicy::kNever and
// the coordinator's committer thread owns the fsync; rotation detaches
// the sealed segment (waiting out any in-flight pass) before closing it.
//
// All methods except Fsyncs() run on the replica's loop thread.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>

#include "storage/commit.hpp"
#include "storage/manifest.hpp"
#include "storage/wal.hpp"

namespace qcnt::storage {

class SegmentedLog {
 public:
  /// `files` is the backend's live manifest entry; the log mutates its
  /// `segments` / `next_file_id` fields and persists every transition
  /// through `manifest->Update(*files)`. The caller keeps `manifest` and
  /// `files` alive for the lifetime of the log.
  SegmentedLog(Manifest* manifest, ChainFiles* files,
               Wal::Options wal_options,
               std::shared_ptr<GroupCommitCoordinator> coordinator);
  ~SegmentedLog();

  SegmentedLog(const SegmentedLog&) = delete;
  SegmentedLog& operator=(const SegmentedLog&) = delete;

  struct ReplayStats {
    std::uint64_t records = 0;   // frames applied across all segments
    std::size_t torn_tails = 0;  // segments whose tail failed validation
  };

  /// Replays every manifest-listed segment oldest → newest through
  /// `apply`, truncates a torn tail on the active (last) segment, opens
  /// the active segment for append, and attaches it to the coordinator.
  /// Creates the first segment (manifest save included) when the list is
  /// empty — a fresh replica.
  ReplayStats OpenAndReplay(
      const std::function<void(const WalRecord&)>& apply);

  void AppendBatch(const std::vector<WalRecord>& records);

  /// Seal the active segment and start a new one. No-op before
  /// OpenAndReplay.
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

  /// Fsyncs across the whole chain, sealed (rolled into a base at
  /// rotation/release) plus active. Safe to call from the stats thread
  /// while the loop rotates.
  std::uint64_t Fsyncs() const;

  /// Detach from the coordinator and close the active handle (crash /
  /// teardown). The chain on disk is untouched.
  void Release();

 private:
  bool Coordinated() const { return coordinator_ != nullptr; }
  void OpenActive(std::uint64_t id, bool create);
  void SwapActive(std::unique_ptr<Wal> next);

  Manifest* manifest_;
  ChainFiles* files_;
  Wal::Options wal_options_;
  std::shared_ptr<GroupCommitCoordinator> coordinator_;

  mutable std::mutex wal_mu_;  // guards wal_ swaps against Fsyncs()
  std::unique_ptr<Wal> wal_;   // active segment
  std::uint64_t sealed_bytes_ = 0;  // valid bytes in sealed segments
  std::uint64_t bytes_appended_base_ = 0;
  std::atomic<std::uint64_t> fsyncs_base_{0};
};

}  // namespace qcnt::storage
