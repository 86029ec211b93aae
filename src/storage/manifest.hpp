// MANIFEST v2: the per-replica table of storage files.
//
// It names the replica's live WAL segments (`shard_0/seg_<id>.log`,
// oldest → newest, last one active) and its live checkpoint chain
// (`shard_0/ckpt_<id>.blk`, oldest → newest), plus a monotone file-id
// counter. The manifest is the single commit point for every
// storage-engine state transition:
//
//   create new files  →  manifest save (atomic rename)  →  delete old files
//
// A crash before the save leaves unreferenced new files (swept on
// recovery); a crash after it leaves unreferenced old files (same sweep).
// Nothing the manifest references is ever deleted, so the referenced set
// is always a complete, consistent engine state.
//
// The v2 encoding carries a table of chain entries, one per key stripe,
// from when a replica could stripe its keyspace. The engine keeps one
// chain per replica: it writes a table of one under `shard_0/`, so
// directories written before open as they are, and refuses a table of
// more. Format version 1 (a bare stripe count, written by the pre-v2
// engine) is not readable either: such a directory is refused, never
// migrated.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

namespace qcnt::storage {

/// A durability directory the engine cannot open without losing acked
/// state: a corrupt or unsupported MANIFEST (including one that stripes
/// the replica over more than one chain), or a file the MANIFEST names
/// that is missing or unreadable. The message names the offending path
/// (and, for a striped manifest, both chain counts).
class LayoutError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// The replica's entry in the manifest.
struct ChainFiles {
  bool present = false;  // no entry yet (a replica never opened)
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
  };

  /// Reads `dir`/MANIFEST. An absent file yields a non-present entry; a
  /// v2 file's entry is adopted. A corrupt, version-1 or multi-chain file
  /// is reported via info() — callers validate before opening files.
  explicit Manifest(std::string dir);

  const LoadInfo& info() const { return info_; }
  const std::string& dir() const { return dir_; }
  const ChainFiles& Files() const { return files_; }

  /// Replace the entry and atomically persist the manifest. This is the
  /// commit point of every rotation/checkpoint/compaction. Called only
  /// from the owning replica's loop thread.
  void Update(const ChainFiles& files);

  // Path helpers — every storage file lives in `<dir>/shard_0/`.
  static std::string ChainDirPath(const std::string& dir);
  static std::string SegmentPath(const std::string& dir, std::uint64_t id);
  static std::string CheckpointPath(const std::string& dir,
                                    std::uint64_t id);

 private:
  std::string dir_;
  LoadInfo info_;
  ChainFiles files_;
};

}  // namespace qcnt::storage
