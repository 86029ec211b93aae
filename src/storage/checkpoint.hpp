// Sorted-block checkpoint files — the cold half of the v2 storage engine.
//
// A checkpoint file (`ckpt_<id>.blk`) holds one sorted run of
// key → Versioned entries, laid out as CRC-framed data blocks followed by
// a block index (first key + offset per block), a serialized bloom filter
// over all keys, and a fixed-size footer:
//
//   ┌────────┬─────────────┬───────┬───────┬────────┐
//   │ header │ data blocks │ index │ bloom │ footer │
//   └────────┴─────────────┴───────┴───────┴────────┘
//
// The footer carries the section offsets and the replica stamp
// (generation, config_id), so `Open` reads only the last 60 bytes; the
// index and bloom load lazily on the first actual lookup. That is what
// keeps recovery O(WAL tail): a restart opens every checkpoint in the
// chain by footer alone and replays just the segment tail, never paging
// the sorted runs back through memory.
//
// Readers probe newest file first: the bloom filter (≈1% false positives
// at 10 bits/key) rejects most absent keys without touching a block; a
// hit binary-searches the index and decodes one block. Every ordered walk
// over several files — compaction, catchup scans, spill-mode peeks — goes
// through one `MergeCursor` (per-key newest-version-wins, the same
// ordering as Image::ApplyWrite). The cursor is resumable, so compaction
// can advance it a slice at a time between the replica's batches.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "storage/bloom.hpp"
#include "storage/image.hpp"

namespace qcnt::storage {

/// Target uncompressed payload size of one data block. Small enough that
/// a cold point read decodes a few KiB, large enough that the index stays
/// a sliver of the data.
inline constexpr std::size_t kCheckpointBlockBytes = 4096;

/// Streams strictly-ascending (key, value) pairs into `path` via a
/// temporary file; nothing is visible at `path` until Finish() renames it
/// in, so a crash mid-write leaves at most an orphaned `.tmp`.
class CheckpointWriter {
 public:
  CheckpointWriter(std::string path, std::uint64_t expected_entries,
                   std::size_t block_bytes = kCheckpointBlockBytes);
  ~CheckpointWriter();

  CheckpointWriter(const CheckpointWriter&) = delete;
  CheckpointWriter& operator=(const CheckpointWriter&) = delete;

  /// Keys must arrive in strictly ascending order.
  void Add(const std::string& key, const Versioned& value);

  /// Seals the file: flushes the last block, writes index + bloom +
  /// footer, fsyncs, and atomically renames into place.
  void Finish(std::uint64_t generation, std::uint32_t config_id);

  std::uint64_t entries() const { return entries_; }

 private:
  struct IndexEntry {
    std::uint64_t offset = 0;
    std::uint32_t length = 0;
    std::string first_key;
  };

  void FlushBlock();

  std::string path_;
  std::string tmp_path_;
  int fd_ = -1;
  std::size_t block_bytes_;
  std::uint64_t file_offset_ = 0;
  std::uint64_t entries_ = 0;
  std::vector<unsigned char> block_;
  std::string block_first_key_;
  std::string last_key_;
  std::vector<IndexEntry> index_;
  BloomFilter bloom_;
  bool finished_ = false;
};

/// Read side. Open() validates only the footer; the index and bloom are
/// decoded on first use. All methods are called from the replica's loop
/// thread, so no internal locking.
class CheckpointReader {
 public:
  enum class Probe {
    kBloomMiss,   // filter says definitely absent — no block touched
    kNotFound,    // filter passed but the key is absent (false positive)
    kFound,
  };

  /// nullptr if the file is missing, truncated, or fails CRC.
  static std::unique_ptr<CheckpointReader> Open(const std::string& path);
  ~CheckpointReader();

  CheckpointReader(const CheckpointReader&) = delete;
  CheckpointReader& operator=(const CheckpointReader&) = delete;

  Probe Get(const std::string& key, Versioned* out);

  /// Ordered cursor over the run, starting at the first key, or at the
  /// first key strictly greater than `cursor` (the catchup contract).
  class Iterator {
   public:
    bool Valid() const { return valid_; }
    const std::string& key() const { return entries_[pos_].first; }
    const Versioned& value() const { return entries_[pos_].second; }
    void Next();

   private:
    friend class CheckpointReader;
    CheckpointReader* reader_ = nullptr;
    std::size_t block_ = 0;
    std::size_t pos_ = 0;
    bool valid_ = false;
    std::vector<std::pair<std::string, Versioned>> entries_;

    void LoadBlock();
  };

  Iterator Begin();
  Iterator SeekAbove(const std::string& cursor);

  /// Sequential visit of every entry in key order (used to materialize
  /// the image in non-spill mode).
  void Scan(const std::function<void(const std::string&, const Versioned&)>&
                fn);

  std::uint64_t generation() const { return generation_; }
  std::uint32_t config_id() const { return config_id_; }
  std::uint64_t entry_count() const { return entry_count_; }
  const std::string& path() const { return path_; }

 private:
  struct IndexEntry {
    std::uint64_t offset = 0;
    std::uint32_t length = 0;
    std::string first_key;
  };

  CheckpointReader() = default;

  /// Loads index + bloom if not yet resident. False on corruption.
  bool EnsureLoaded();
  bool DecodeBlock(std::size_t block,
                   std::vector<std::pair<std::string, Versioned>>* out);
  /// Index of the last block whose first_key <= key (block that could
  /// contain `key`), or npos if key precedes everything.
  std::size_t FindBlock(const std::string& key);

  std::string path_;
  int fd_ = -1;
  std::uint64_t generation_ = 0;
  std::uint32_t config_id_ = 0;
  std::uint64_t entry_count_ = 0;
  std::uint64_t index_off_ = 0, index_len_ = 0;
  std::uint64_t bloom_off_ = 0, bloom_len_ = 0;
  bool loaded_ = false;
  bool load_failed_ = false;
  std::vector<IndexEntry> index_;
  std::unique_ptr<BloomFilter> bloom_;
  // One-block decode cache: cold point reads cluster (evicted-clean hot
  // keys, catchup cursors), so the last touched block stays decoded.
  std::size_t cached_block_ = static_cast<std::size_t>(-1);
  std::vector<std::pair<std::string, Versioned>> cached_entries_;
};

/// Resumable k-way merge over checkpoint runs, in ascending key order.
/// When the same key appears in several inputs the surviving entry is the
/// newest by the engine's write order (version, then value — identical to
/// Image::ApplyWrite). The cursor owns its iterators and may sit idle
/// between steps; the readers behind them must outlive it.
class MergeCursor {
 public:
  /// `inputs` are positioned iterators, one per run (order irrelevant).
  explicit MergeCursor(std::vector<CheckpointReader::Iterator> inputs);

  bool Valid() const { return valid_; }
  const std::string& key() const { return key_; }
  const Versioned& value() const { return value_; }
  void Next();

 private:
  std::vector<CheckpointReader::Iterator> its_;
  std::string key_;
  Versioned value_{};
  bool valid_ = false;
};

/// Emits every key of `readers` through a MergeCursor, in one pass.
void MergeCheckpoints(
    const std::vector<CheckpointReader*>& readers,
    const std::function<void(const std::string&, const Versioned&)>& emit);

}  // namespace qcnt::storage
