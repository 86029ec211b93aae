// Append-only write-ahead log.
//
// Frame layout (little-endian):
//
//   +----------------+----------------+=========================+
//   | payload length | CRC32(payload) |         payload         |
//   |    4 bytes     |    4 bytes     |  `payload length` bytes |
//   +----------------+----------------+=========================+
//
// Payload layout:
//
//   type:u8  version:u64  value:i64  generation:u64  config_id:u32
//   keylen:u32  key bytes
//
// Replay walks frames from the front and stops at the first frame whose
// header is truncated, whose length is implausible, or whose CRC does not
// match — a torn final record from a crash mid-append is thereby discarded
// rather than corrupting recovery (the quorum protocol tolerates the lost
// tail: a replica that misses writes is exactly the paper's failure model).
//
// Durability: every Append write(2)s the frame immediately (so a
// *process* crash loses nothing once the syscall returns). A Wal either
// fsyncs after every append or leaves the fsync to its owner, which
// decides what a *machine* crash can lose (SegmentedLog, segment.hpp).
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <vector>

namespace qcnt::storage {

struct WalRecord {
  enum class Type : std::uint8_t { kWrite = 1, kConfig = 2 };
  Type type = Type::kWrite;
  std::string key;
  std::uint64_t version = 0;
  std::int64_t value = 0;
  std::uint64_t generation = 0;
  std::uint32_t config_id = 0;
};

class Wal {
 public:
  struct Options {
    /// fsync before every Append returns; otherwise only Sync,
    /// SyncIfDirty, TruncateTo and Close do.
    bool sync_every_append = true;
  };

  /// Opens (creating if absent) `path` and positions appends at its end.
  Wal(std::string path, Options options);
  ~Wal();

  Wal(const Wal&) = delete;
  Wal& operator=(const Wal&) = delete;

  /// Frame, write, and (per options) fsync one record.
  void Append(const WalRecord& record);

  /// Frame every record into one buffer, write it with a single write(2),
  /// and (per options) fsync once for the whole batch, so a multi-record
  /// commit costs one fsync instead of one per record. Frames are
  /// identical to repeated Append calls; Replay cannot tell the
  /// difference, and a torn tail cuts the batch to a frame-aligned prefix
  /// like any other crash.
  void AppendBatch(const std::vector<WalRecord>& records);

  /// Force an fsync covering everything appended so far.
  void Sync();

  /// Fsync only when records were appended since the last sync; returns
  /// whether an fsync was issued. Safe to call from a thread other than
  /// the appender (SegmentedLog's committer thread):
  /// fd lifecycle is guarded by an internal mutex, and a concurrent
  /// write(2) + fsync(2) pair is well-defined — the append that raced
  /// past the fsync simply re-arms the dirty flag for the next pass.
  bool SyncIfDirty();

  /// Discard everything after `offset` bytes (recovery cuts a torn tail).
  void TruncateTo(std::uint64_t offset);

  /// Flush and close the file; further Appends are invalid.
  void Close();

  std::uint64_t SizeBytes() const { return size_; }
  std::uint64_t RecordsAppended() const { return records_; }
  std::uint64_t BytesAppended() const { return bytes_appended_; }
  std::uint64_t Fsyncs() const {
    return fsyncs_.load(std::memory_order_relaxed);
  }
  const std::string& Path() const { return path_; }

  struct ReplayResult {
    std::uint64_t records = 0;      // frames applied
    std::uint64_t valid_bytes = 0;  // prefix length of well-formed frames
    bool torn_tail = false;         // trailing bytes failed length/CRC checks
  };

  /// Replay `path` front to back, invoking `apply` per valid record. A
  /// missing file is an empty log. Stops at the first invalid frame.
  static ReplayResult Replay(
      const std::string& path,
      const std::function<void(const WalRecord&)>& apply);

 private:
  void DoSync();
  /// DoSync with sync_mu_ already held.
  void SyncLocked();

  std::string path_;
  Options options_;
  int fd_ = -1;
  std::uint64_t size_ = 0;
  std::uint64_t records_ = 0;
  std::uint64_t bytes_appended_ = 0;
  // Shared with a possible background committer thread (SyncIfDirty):
  // sync_mu_ guards the fd lifecycle against close/truncate, the atomics
  // make the dirty flag and counter safe to read from either side.
  // Append/AppendBatch deliberately do NOT take sync_mu_ — a write(2)
  // concurrent with fsync(2) on the same fd is fine, and the appender
  // must never stall behind a sync in progress.
  mutable std::mutex sync_mu_;
  std::atomic<std::uint64_t> fsyncs_{0};
  std::atomic<bool> sync_pending_{false};  // appended since the last fsync
};

}  // namespace qcnt::storage
