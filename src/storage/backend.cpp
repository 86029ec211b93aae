#include "storage/backend.hpp"

#include <algorithm>
#include <filesystem>
#include <optional>
#include <unordered_map>
#include <utility>

#include "common/check.hpp"
#include "storage/checkpoint.hpp"
#include "storage/segment.hpp"

namespace qcnt::storage {

namespace {

namespace fs = std::filesystem;

class MemoryBackend final : public Backend {
 public:
  bool Durable() const override { return false; }
  Image Recover() override { return {}; }
  void ApplyWriteBatch(const std::vector<WalRecord>&) override {}
  void ApplyConfig(std::uint64_t, std::uint32_t) override {}
};

/// `seg_<id>.log` / `ckpt_<id>.blk` name parser for the recovery sweep.
std::optional<std::uint64_t> ParseFileId(const std::string& name,
                                         const char* prefix,
                                         const char* suffix) {
  const std::string p(prefix), s(suffix);
  if (name.size() <= p.size() + s.size() || name.rfind(p, 0) != 0 ||
      name.compare(name.size() - s.size(), s.size(), s) != 0) {
    return std::nullopt;
  }
  const std::string digits = name.substr(p.size(), name.size() - p.size() -
                                                      s.size());
  std::uint64_t id = 0;
  for (const char c : digits) {
    if (c < '0' || c > '9') return std::nullopt;
    id = id * 10 + static_cast<std::uint64_t>(c - '0');
  }
  return id;
}

// The v2 engine: one replica's segment chain and checkpoint chain. See
// backend.hpp for the contract and
// DESIGN.md §12 for the invariants; the short version:
//
//   * dirty_ mirrors every record in the live segment chain (it IS the
//     tail, as a map), so a checkpoint writes |dirty_| entries and then
//     drops the sealed segments wholesale — O(tail) end to end.
//   * every file-set transition commits through one manifest save; files
//     are created before the save and deleted only after it, so the
//     manifest-referenced set is a consistent engine state at every
//     instant a crash could strike.
//   * all state except the stats counters is touched only by the
//     replica's loop thread (the coordinator's committer syncs the active
//     Wal through its own internal locking).
class DurableBackend final : public Backend {
 public:
  DurableBackend(std::string dir, DurabilityOptions options,
                 std::shared_ptr<GroupCommitCoordinator> coordinator)
      : manifest_(std::move(dir)),
        options_(std::move(options)),
        gc_(std::move(coordinator)) {}

  ~DurableBackend() override { ReleaseAll(); }

  bool Durable() const override { return true; }

  Image Recover() override {
    ReleaseAll();  // release any pre-crash handles before reopening
    const std::string& dir = manifest_.dir();
    if (!manifest_.info().ok) throw LayoutError(manifest_.info().error);
    fs::create_directories(Manifest::ChainDirPath(dir));
    recoveries_.fetch_add(1, std::memory_order_relaxed);

    files_ = manifest_.Files();
    SweepUnreferenced();

    // Open the checkpoint chain footer-only; blocks, index, and bloom
    // stay on disk until a cold read wants them. This is the heart of
    // O(tail) recovery: total state never moves at restart.
    generation_ = 0;
    config_id_ = 0;
    for (const std::uint64_t id : files_.checkpoints) {
      auto reader = CheckpointReader::Open(Manifest::CheckpointPath(dir, id));
      if (reader == nullptr) {
        throw LayoutError("unreadable checkpoint: " +
                          Manifest::CheckpointPath(dir, id));
      }
      if (reader->generation() >= generation_) {
        generation_ = reader->generation();
        config_id_ = reader->config_id();
      }
      readers_.push_back(std::move(reader));
    }

    // Replay the segment tail into the dirty set.
    log_ = std::make_unique<SegmentedLog>(&manifest_, &files_, WalOptions(),
                                          Coordinated() ? gc_ : nullptr);
    const SegmentedLog::ReplayStats replay =
        log_->OpenAndReplay([this](const WalRecord& rec) {
          if (rec.type == WalRecord::Type::kWrite) {
            MergeDirty(rec.key, rec.version, rec.value);
          } else if (rec.generation >= generation_) {
            generation_ = rec.generation;
            config_id_ = rec.config_id;
          }
        });
    recovery_replayed_.fetch_add(replay.records, std::memory_order_relaxed);
    torn_tails_.fetch_add(replay.torn_tails, std::memory_order_relaxed);

    Image image;
    if (!options_.spill_cold_reads) {
      // Materialize the full map. Oldest first so newer runs win ties
      // through the normal merge rule.
      for (const auto& reader : readers_) {
        reader->Scan([&image](const std::string& key, const Versioned& v) {
          image.ApplyWrite(key, v.version, v.value);
        });
      }
    }
    for (const auto& [key, v] : dirty_) {
      image.ApplyWrite(key, v.version, v.value);
    }
    image.ApplyConfig(generation_, config_id_);
    return image;
  }

  void ApplyWriteBatch(const std::vector<WalRecord>& records) override {
    if (records.empty()) return;
    QCNT_CHECK_MSG(log_ != nullptr, "durable backend used before Recover()");
    const std::uint64_t before = log_->BytesAppended();
    log_->AppendBatch(records);
    bytes_.fetch_add(log_->BytesAppended() - before,
                     std::memory_order_relaxed);
    records_.fetch_add(records.size(), std::memory_order_relaxed);
    batch_appends_.fetch_add(1, std::memory_order_relaxed);
    for (const WalRecord& r : records) MergeDirty(r.key, r.version, r.value);
  }

  void ApplyConfig(std::uint64_t generation,
                   std::uint32_t config_id) override {
    QCNT_CHECK_MSG(log_ != nullptr, "durable backend used before Recover()");
    WalRecord rec;
    rec.type = WalRecord::Type::kConfig;
    rec.generation = generation;
    rec.config_id = config_id;
    const std::uint64_t before = log_->BytesAppended();
    log_->AppendBatch({rec});
    bytes_.fetch_add(log_->BytesAppended() - before,
                     std::memory_order_relaxed);
    records_.fetch_add(1, std::memory_order_relaxed);
    if (generation >= generation_) {
      generation_ = generation;
      config_id_ = config_id;
    }
  }

  void MaybeCompact(Image& image) override {
    if (!log_) return;
    // One slice of an open merge per call, sized by the newest
    // checkpoint's entry count: O(tail) work, whatever the total state.
    if (merge_) AdvanceMerge(readers_.back()->entry_count());
    if (log_->TailBytes() >= options_.checkpoint_tail_bytes) {
      DoCheckpoint(image);
    } else if (log_->ActiveBytes() >= options_.segment_bytes) {
      log_->Rotate();
      rotated_.fetch_add(1, std::memory_order_relaxed);
    }
  }

  void ForceCheckpoint(Image& image) override {
    if (!log_) return;
    if (dirty_.empty() && log_->TailBytes() == 0) return;  // nothing to do
    DoCheckpoint(image);
  }

  bool Lookup(const std::string& key, Versioned* out) override {
    // Without spill the image materializes every checkpointed key, so an
    // image miss is a true miss — skip the probe (and its counters).
    if (!options_.spill_cold_reads || readers_.empty()) return false;
    cold_lookups_.fetch_add(1, std::memory_order_relaxed);
    // Newest file first: a re-dirtied key's latest durable version lives
    // in the newest run that holds it.
    for (auto it = readers_.rbegin(); it != readers_.rend(); ++it) {
      switch ((*it)->Get(key, out)) {
        case CheckpointReader::Probe::kFound:
          bloom_hits_.fetch_add(1, std::memory_order_relaxed);
          return true;
        case CheckpointReader::Probe::kNotFound:
          bloom_false_positives_.fetch_add(1, std::memory_order_relaxed);
          break;
        case CheckpointReader::Probe::kBloomMiss:
          bloom_misses_.fetch_add(1, std::memory_order_relaxed);
          break;
      }
    }
    return false;
  }

  void ScanAbove(const std::string& cursor, std::size_t limit,
                 const std::function<void(const std::string&,
                                          const Versioned&)>& fn) override {
    if (!options_.spill_cold_reads || readers_.empty() || limit == 0) return;
    std::vector<CheckpointReader::Iterator> its;
    its.reserve(readers_.size());
    for (const auto& reader : readers_) {
      // An empty cursor starts the scan at the first key *inclusive* —
      // the catchup stream's opening request must not skip an empty key.
      its.push_back(cursor.empty() ? reader->Begin()
                                   : reader->SeekAbove(cursor));
    }
    std::size_t emitted = 0;
    for (MergeCursor cur(std::move(its)); cur.Valid() && emitted < limit;
         cur.Next(), ++emitted) {
      fn(cur.key(), cur.value());
    }
  }

  void ScanAll(const std::function<void(const std::string&,
                                        const Versioned&)>& fn) override {
    if (!options_.spill_cold_reads || readers_.empty()) return;
    std::vector<CheckpointReader*> raw;
    raw.reserve(readers_.size());
    for (const auto& r : readers_) raw.push_back(r.get());
    MergeCheckpoints(raw, fn);
  }

  void OnCrash() override {
    // fail-stop: the process would die here; we just drop the handles.
    // Data already write(2)n survives in the files, mirroring a process
    // crash; fsync policy governs what a machine crash could lose.
    ReleaseAll();
  }

  StorageStats Stats() const override {
    StorageStats s;
    s.records_appended = records_.load(std::memory_order_relaxed);
    s.bytes_appended = bytes_.load(std::memory_order_relaxed);
    s.batch_appends = batch_appends_.load(std::memory_order_relaxed);
    // Base (pre-crash chains) + live: the live chain's counter moves on a
    // background committer thread under a coordinator, so deltas taken on
    // the append path would miss those syncs entirely. log_mu_ keeps this
    // read safe against a concurrent ReleaseAll.
    {
      std::lock_guard<std::mutex> lock(log_mu_);
      s.fsyncs = fsyncs_base_.load(std::memory_order_relaxed) +
                 (log_ ? log_->Fsyncs() : 0);
    }
    s.recoveries = recoveries_.load(std::memory_order_relaxed);
    s.recovery_replayed = recovery_replayed_.load(std::memory_order_relaxed);
    s.torn_tails_discarded = torn_tails_.load(std::memory_order_relaxed);
    s.segments_rotated = rotated_.load(std::memory_order_relaxed);
    s.segments_compacted = compacted_.load(std::memory_order_relaxed);
    s.checkpoints_written = checkpoints_.load(std::memory_order_relaxed);
    s.checkpoint_entries =
        checkpoint_entries_.load(std::memory_order_relaxed);
    s.checkpoint_merges = merges_.load(std::memory_order_relaxed);
    s.merge_entries = merge_entries_.load(std::memory_order_relaxed);
    s.cold_lookups = cold_lookups_.load(std::memory_order_relaxed);
    s.bloom_hits = bloom_hits_.load(std::memory_order_relaxed);
    s.bloom_misses = bloom_misses_.load(std::memory_order_relaxed);
    s.bloom_false_positives =
        bloom_false_positives_.load(std::memory_order_relaxed);
    return s;
  }

 private:
  bool Coordinated() const {
    return gc_ != nullptr && options_.fsync == FsyncPolicy::kGroupCommit;
  }

  Wal::Options WalOptions() const {
    // Under a coordinator the segment itself never decides to fsync
    // (kNever); the coordinator's committer thread owns the window.
    return Wal::Options{Coordinated() ? FsyncPolicy::kNever : options_.fsync,
                        options_.group_commit_window};
  }

  void MergeDirty(const std::string& key, std::uint64_t version,
                  std::int64_t value) {
    Versioned& v = dirty_[key];
    if (version > v.version || (version == v.version && value >= v.value)) {
      v.version = version;
      v.value = value;
    }
  }

  /// Delete everything in the chain directory the manifest doesn't
  /// reference: `.tmp` orphans and files created after the last manifest
  /// save (both are redundant by the create→save→delete discipline).
  void SweepUnreferenced() {
    std::error_code ec;
    for (const auto& entry :
         fs::directory_iterator(Manifest::ChainDirPath(manifest_.dir()), ec)) {
      const std::string name = entry.path().filename().string();
      bool keep = false;
      if (const auto id = ParseFileId(name, "seg_", ".log")) {
        keep = std::find(files_.segments.begin(), files_.segments.end(),
                         *id) != files_.segments.end();
      } else if (const auto id = ParseFileId(name, "ckpt_", ".blk")) {
        keep = std::find(files_.checkpoints.begin(), files_.checkpoints.end(),
                         *id) != files_.checkpoints.end();
      }
      if (!keep) fs::remove(entry.path(), ec);
    }
  }

  void WriteCheckpointFile(
      std::uint64_t id,
      const std::unordered_map<std::string, Versioned>& entries,
      std::uint64_t generation, std::uint32_t config_id) {
    std::vector<const std::string*> keys;
    keys.reserve(entries.size());
    for (const auto& [key, v] : entries) keys.push_back(&key);
    std::sort(keys.begin(), keys.end(),
              [](const std::string* a, const std::string* b) {
                return *a < *b;
              });
    CheckpointWriter writer(Manifest::CheckpointPath(manifest_.dir(), id),
                            entries.size());
    for (const std::string* key : keys) writer.Add(*key, entries.at(*key));
    writer.Finish(generation, config_id);
  }

  /// The incremental checkpoint: seal the tail, persist the dirty set as
  /// one sorted run, commit, reclaim the sealed segments. Runs on the
  /// replica's loop thread — cost is O(|dirty|) = O(tail), so inline
  /// execution is what bounds the pause, not a background thread.
  void DoCheckpoint(Image& image) {
    if (merge_) {
      // Pacing floor: by the k-th checkpoint landing since the merge
      // opened, k/max_checkpoints of its input entries are out. The
      // per-call slices normally finish far sooner; the floor only binds
      // when few batches separate checkpoints, and at k = max_checkpoints
      // it completes the merge before the chain can grow past 2×.
      ChainMerge& m = *merge_;
      const std::uint64_t due =
          (m.input_entries * (m.landed + 1) + MaxChain() - 1) / MaxChain();
      if (due > m.emitted) AdvanceMerge(due - m.emitted);
      if (merge_) ++merge_->landed;
    }

    log_->Rotate();  // everything the checkpoint covers is now sealed
    rotated_.fetch_add(1, std::memory_order_relaxed);

    const std::uint64_t id = files_.next_file_id++;
    WriteCheckpointFile(id, dirty_, generation_, config_id_);
    files_.checkpoints.push_back(id);
    files_.segments = {files_.segments.back()};
    manifest_.Update(files_);  // commit point
    compacted_.fetch_add(log_->DropSealed(), std::memory_order_relaxed);

    checkpoints_.fetch_add(1, std::memory_order_relaxed);
    checkpoint_entries_.fetch_add(dirty_.size(), std::memory_order_relaxed);
    readers_.push_back(OpenOwnCheckpoint(id));

    if (options_.spill_cold_reads) {
      // Every image entry is now durable in the checkpoint chain; evict
      // the lot. The in-memory map re-grows only with fresh writes, so
      // RAM holds ~one checkpoint interval of keys while the chain holds
      // the rest.
      const std::uint64_t generation = image.generation;
      const std::uint32_t config_id = image.config_id;
      image.data.clear();
      image.generation = generation;
      image.config_id = config_id;
    }
    dirty_.clear();

    if (!merge_ && files_.checkpoints.size() > MaxChain()) OpenMerge();
  }

  std::size_t MaxChain() const {
    return std::max<std::size_t>(options_.max_checkpoints, 1);
  }

  std::unique_ptr<CheckpointReader> OpenOwnCheckpoint(std::uint64_t id) {
    auto reader =
        CheckpointReader::Open(Manifest::CheckpointPath(manifest_.dir(), id));
    QCNT_CHECK_MSG(reader != nullptr, "just-written checkpoint unreadable");
    return reader;
  }

  /// Start a k-way merge of the whole current chain into one new run.
  /// Nothing is written yet beyond the output's `.tmp`.
  void OpenMerge() {
    auto m = std::make_unique<ChainMerge>();
    m->id = files_.next_file_id++;
    m->inputs = readers_.size();
    std::vector<CheckpointReader::Iterator> its;
    its.reserve(readers_.size());
    for (const auto& r : readers_) {
      m->input_entries += r->entry_count();
      its.push_back(r->Begin());
    }
    m->writer = std::make_unique<CheckpointWriter>(
        Manifest::CheckpointPath(manifest_.dir(), m->id), m->input_entries);
    m->cursor = std::make_unique<MergeCursor>(std::move(its));
    merge_ = std::move(m);
  }

  /// Write up to `budget` merged entries; commit when the inputs run dry.
  void AdvanceMerge(std::uint64_t budget) {
    ChainMerge& m = *merge_;
    std::uint64_t n = 0;
    for (; n < budget && m.cursor->Valid(); ++n, m.cursor->Next()) {
      m.writer->Add(m.cursor->key(), m.cursor->value());
    }
    m.emitted += n;
    merge_entries_.fetch_add(n, std::memory_order_relaxed);
    if (!m.cursor->Valid()) CommitMerge();
  }

  /// Seal the merged run and swap it in for its inputs through one
  /// manifest save; the inputs are deleted only after it. Checkpoints
  /// that landed while the merge ran keep their places behind it.
  void CommitMerge() {
    ChainMerge& m = *merge_;
    // Checkpoint stamps never decrease along the chain, so the newest
    // input carries the stamp the merged run stands for.
    const CheckpointReader& newest = *readers_[m.inputs - 1];
    m.writer->Finish(newest.generation(), newest.config_id());

    const auto first = files_.checkpoints.begin();
    const std::vector<std::uint64_t> old_ids(
        first, first + static_cast<std::ptrdiff_t>(m.inputs));
    files_.checkpoints.erase(first,
                             first + static_cast<std::ptrdiff_t>(m.inputs));
    files_.checkpoints.insert(files_.checkpoints.begin(), m.id);
    manifest_.Update(files_);  // commit point

    std::unique_ptr<CheckpointReader> merged = OpenOwnCheckpoint(m.id);
    const std::size_t inputs = m.inputs;
    merge_.reset();  // its iterators point into the input readers
    readers_.erase(readers_.begin(),
                   readers_.begin() + static_cast<std::ptrdiff_t>(inputs));
    readers_.insert(readers_.begin(), std::move(merged));
    std::error_code ec;
    for (const std::uint64_t old : old_ids) {
      fs::remove(Manifest::CheckpointPath(manifest_.dir(), old), ec);
    }
    merges_.fetch_add(1, std::memory_order_relaxed);
  }

  /// Teardown path shared by Recover/OnCrash/dtor: quiesce the log (which
  /// detaches from the coordinator), roll its fsync count into the base,
  /// then drop every handle.
  void ReleaseAll() {
    // An open merge dies here; its `.tmp` output is swept at Recover.
    merge_.reset();
    if (log_) {
      log_->Release();
      std::lock_guard<std::mutex> lock(log_mu_);
      fsyncs_base_.fetch_add(log_->Fsyncs(), std::memory_order_relaxed);
      log_.reset();
    }
    readers_.clear();
    dirty_.clear();
  }

  Manifest manifest_;
  DurabilityOptions options_;
  std::shared_ptr<GroupCommitCoordinator> gc_;

  ChainFiles files_;
  mutable std::mutex log_mu_;  // Stats vs ReleaseAll on log_
  std::unique_ptr<SegmentedLog> log_;
  std::vector<std::unique_ptr<CheckpointReader>> readers_;  // oldest..newest

  /// An open chain merge: readers_[0, inputs) — the chain as it stood at
  /// open — stream through `cursor` into `writer`, one slice per call.
  struct ChainMerge {
    std::uint64_t id = 0;             // the output's ckpt_<id>.blk
    std::size_t inputs = 0;
    std::uint64_t input_entries = 0;  // Σ input entry counts ≥ output
    std::uint64_t emitted = 0;        // entries written so far
    std::size_t landed = 0;           // checkpoints written since open
    std::unique_ptr<CheckpointWriter> writer;
    std::unique_ptr<MergeCursor> cursor;
  };
  std::unique_ptr<ChainMerge> merge_;
  std::unordered_map<std::string, Versioned> dirty_;  // tail, as a map
  std::uint64_t generation_ = 0;
  std::uint32_t config_id_ = 0;

  // Only the server thread mutates the counters; Stats() may race from
  // other threads, hence the atomics. Deltas (not the chain's own totals)
  // keep them monotone across crash/recover reopens; fsyncs are the
  // exception (see Stats()).
  std::atomic<std::uint64_t> records_{0}, bytes_{0};
  std::atomic<std::uint64_t> fsyncs_base_{0};
  std::atomic<std::uint64_t> batch_appends_{0};
  std::atomic<std::uint64_t> recoveries_{0};
  std::atomic<std::uint64_t> recovery_replayed_{0}, torn_tails_{0};
  std::atomic<std::uint64_t> rotated_{0}, compacted_{0};
  std::atomic<std::uint64_t> checkpoints_{0}, checkpoint_entries_{0};
  std::atomic<std::uint64_t> merges_{0}, merge_entries_{0};
  std::atomic<std::uint64_t> cold_lookups_{0};
  std::atomic<std::uint64_t> bloom_hits_{0}, bloom_misses_{0};
  std::atomic<std::uint64_t> bloom_false_positives_{0};
};

}  // namespace

std::unique_ptr<Backend> MakeMemoryBackend() {
  return std::make_unique<MemoryBackend>();
}

std::unique_ptr<Backend> MakeDurableBackend(
    std::string dir, DurabilityOptions options,
    std::shared_ptr<GroupCommitCoordinator> coordinator) {
  std::filesystem::create_directories(dir);
  return std::make_unique<DurableBackend>(std::move(dir), std::move(options),
                                          std::move(coordinator));
}

}  // namespace qcnt::storage
