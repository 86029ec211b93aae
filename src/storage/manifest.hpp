// MANIFEST v2: the per-replica table of storage files.
//
// It pins the shard count and names, per shard, the live WAL segments
// (`shard_<s>/seg_<id>.log`, oldest → newest, last one active) and the
// live checkpoint chain (`shard_<s>/ckpt_<id>.blk`, oldest → newest),
// plus the shard's monotone file-id counter. The manifest is the single
// commit point for every storage-engine state transition:
//
//   create new files  →  manifest save (atomic rename)  →  delete old files
//
// A crash before the save leaves unreferenced new files (swept on
// recovery); a crash after it leaves unreferenced old files (same sweep).
// Nothing the manifest references is ever deleted, so the referenced set
// is always a complete, consistent engine state.
//
// One Manifest object is shared by all shard backends of a replica
// directory (like the GroupCommitCoordinator); a mutex serializes saves.
// Format version 1 (a bare shard count, written by the pre-v2 engine) is
// not readable: such a directory is refused, never migrated.
#pragma once

#include <cstdint>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

namespace qcnt::storage {

/// A durability directory the engine cannot open without losing acked
/// state: a corrupt or unsupported MANIFEST, a shard count other than
/// the configured one, or a file the MANIFEST names that is missing or
/// unreadable. The message names the offending path (and, for a count
/// mismatch, both counts).
class LayoutError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// One shard's slice of the manifest.
struct ShardFiles {
  bool present = false;  // no entry yet (a shard never opened)
  std::uint64_t next_file_id = 1;  // ids below this are spent
  std::vector<std::uint64_t> segments;     // oldest..newest; back() active
  std::vector<std::uint64_t> checkpoints;  // oldest..newest
};

class Manifest {
 public:
  /// How the on-disk file parsed at construction time.
  struct LoadInfo {
    bool ok = true;      // false for a corrupt or unsupported manifest
    std::string error;   // set when !ok
    std::uint32_t version = 0;  // 0 = absent, 2 = current (else !ok)
    std::size_t disk_shard_count = 0;  // meaningful when version != 0
  };

  /// Reads `dir`/MANIFEST. An absent file yields an empty table of
  /// `shard_count` non-present shards; a v2 file's entries are adopted. A
  /// corrupt or version-1 file, or a shard count disagreeing with
  /// `shard_count`, is reported via info() — callers validate before
  /// wiring backends.
  Manifest(std::string dir, std::size_t shard_count);

  const LoadInfo& info() const { return info_; }
  const std::string& dir() const { return dir_; }
  std::size_t shard_count() const { return shards_.size(); }

  /// Snapshot of one shard's entry (copied under the lock).
  ShardFiles Shard(std::size_t shard) const;

  /// Replace one shard's entry and atomically persist the whole manifest.
  /// This is the commit point of every rotation/checkpoint/compaction.
  void Update(std::size_t shard, const ShardFiles& files);

  // Path helpers — all storage files of shard `s` live in
  // `<dir>/shard_<s>/`.
  static std::string ShardDirPath(const std::string& dir, std::size_t shard);
  static std::string SegmentPath(const std::string& dir, std::size_t shard,
                                 std::uint64_t id);
  static std::string CheckpointPath(const std::string& dir, std::size_t shard,
                                    std::uint64_t id);

  /// Shard count of a valid v2 MANIFEST; nullopt when absent, corrupt or
  /// of another format version.
  static std::optional<std::size_t> ReadShardCount(const std::string& dir);

 private:
  void SaveLocked();

  mutable std::mutex mu_;
  std::string dir_;
  LoadInfo info_;
  std::vector<ShardFiles> shards_;
};

}  // namespace qcnt::storage
