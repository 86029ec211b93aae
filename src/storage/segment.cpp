#include "storage/segment.hpp"

#include <cstdio>
#include <filesystem>
#include <utility>

#include "common/check.hpp"

namespace qcnt::storage {

const char* ToString(FsyncPolicy policy) {
  switch (policy) {
    case FsyncPolicy::kAlways: return "always";
    case FsyncPolicy::kGroupCommit: return "group-commit";
    case FsyncPolicy::kNever: return "never";
  }
  return "?";
}

SegmentedLog::SegmentedLog(Manifest* manifest, ChainFiles* files,
                           FsyncPolicy fsync,
                           std::chrono::microseconds group_commit_window)
    : manifest_(manifest),
      files_(files),
      fsync_(fsync),
      window_(group_commit_window) {
  if (fsync_ == FsyncPolicy::kGroupCommit) {
    committer_ = std::thread([this] { CommitLoop(); });
  }
}

SegmentedLog::~SegmentedLog() {
  if (committer_.joinable()) {
    {
      std::lock_guard<std::mutex> lock(commit_mu_);
      stop_ = true;
    }
    commit_cv_.notify_one();
    committer_.join();
  }
  Release();
}

SegmentedLog::ReplayStats SegmentedLog::OpenAndReplay(
    const std::function<void(const WalRecord&)>& apply) {
  QCNT_CHECK_MSG(wal_ == nullptr, "SegmentedLog opened twice");
  ReplayStats stats;
  sealed_bytes_ = 0;

  if (files_->segments.empty()) {
    const std::uint64_t id = files_->next_file_id++;
    files_->segments.push_back(id);
    files_->present = true;
    // Create the file before the manifest names it: an unreferenced empty
    // segment is recoverable garbage, a referenced missing file is not.
    SwapActive(std::make_unique<Wal>(
        Manifest::SegmentPath(manifest_->dir(), id), WalOptions()));
    manifest_->Update(*files_);
    return stats;
  }

  std::uint64_t active_valid_bytes = 0;
  for (std::size_t i = 0; i < files_->segments.size(); ++i) {
    const std::string path =
        Manifest::SegmentPath(manifest_->dir(), files_->segments[i]);
    // Wal::Replay reads an absent file as an empty log, and opening the
    // active segment would re-create it.
    if (!std::filesystem::exists(path)) {
      throw LayoutError("missing WAL segment: " + path);
    }
    const Wal::ReplayResult r = Wal::Replay(path, apply);
    stats.records += r.records;
    if (r.torn_tail) ++stats.torn_tails;
    if (i + 1 == files_->segments.size()) {
      active_valid_bytes = r.valid_bytes;
    } else {
      // A torn sealed segment still contributed its valid prefix; the
      // file disappears wholesale at the next checkpoint.
      sealed_bytes_ += r.valid_bytes;
    }
  }

  SwapActive(std::make_unique<Wal>(
      Manifest::SegmentPath(manifest_->dir(), files_->segments.back()),
      WalOptions()));
  if (wal_->SizeBytes() > active_valid_bytes) {
    // Cut the torn frame so fresh appends don't land after garbage.
    wal_->TruncateTo(active_valid_bytes);
  }
  return stats;
}

void SegmentedLog::SwapActive(std::unique_ptr<Wal> next) {
  // Close (and so sync) the old segment, roll its counters into the
  // bases and swap, all under the lock: the committer never syncs a
  // closed segment, and a concurrent Fsyncs() counts it exactly once.
  std::lock_guard<std::mutex> lock(wal_mu_);
  if (wal_) {
    wal_->Close();
    fsyncs_base_ += wal_->Fsyncs();
    bytes_appended_base_ += wal_->BytesAppended();
  }
  wal_ = std::move(next);
}

void SegmentedLog::AppendBatch(const std::vector<WalRecord>& records) {
  QCNT_CHECK_MSG(wal_ != nullptr, "segmented log used before OpenAndReplay");
  wal_->AppendBatch(records);
  if (fsync_ == FsyncPolicy::kGroupCommit) MarkDirty();
}

void SegmentedLog::MarkDirty() {
  {
    std::lock_guard<std::mutex> lock(commit_mu_);
    if (dirty_) return;  // the pass already pending covers this append
    dirty_ = true;
  }
  commit_cv_.notify_one();
}

void SegmentedLog::CommitLoop() {
  std::unique_lock<std::mutex> lock(commit_mu_);
  for (;;) {
    commit_cv_.wait(lock, [this] { return stop_ || dirty_; });
    // Let the window fill: appends landing meanwhile ride this pass.
    if (commit_cv_.wait_for(lock, window_, [this] { return stop_; })) return;
    // Cleared before the fsync: an append that marks after this point
    // opens the next pass, whether or not this fsync covered its bytes.
    dirty_ = false;
    lock.unlock();
    {
      std::lock_guard<std::mutex> wal_lock(wal_mu_);
      if (wal_ && wal_->SyncIfDirty()) {
        passes_.fetch_add(1, std::memory_order_relaxed);
      }
    }
    lock.lock();
  }
}

void SegmentedLog::Rotate() {
  if (!wal_) return;
  const std::uint64_t sealed_size = wal_->SizeBytes();
  const std::uint64_t id = files_->next_file_id++;
  files_->segments.push_back(id);
  // Same ordering as first open: file exists before the manifest commit
  // names it, and the old active handle is swapped out only after the
  // commit — a crash anywhere here recovers the full chain.
  auto next = std::make_unique<Wal>(
      Manifest::SegmentPath(manifest_->dir(), id), WalOptions());
  manifest_->Update(*files_);
  SwapActive(std::move(next));
  sealed_bytes_ += sealed_size;
}

std::size_t SegmentedLog::DropSealed() {
  QCNT_CHECK_MSG(files_->segments.size() == 1,
                 "DropSealed before the manifest shrank the chain");
  std::size_t dropped = 0;
  // The manifest no longer references anything but the active id; delete
  // every other seg_ file in the chain directory.
  namespace fs = std::filesystem;
  const std::string dir = Manifest::ChainDirPath(manifest_->dir());
  const std::string keep =
      Manifest::SegmentPath(manifest_->dir(), files_->segments[0]);
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(dir, ec)) {
    const std::string name = entry.path().filename().string();
    if (name.rfind("seg_", 0) != 0) continue;
    if (entry.path().string() == keep) continue;
    if (fs::remove(entry.path(), ec)) ++dropped;
  }
  sealed_bytes_ = 0;
  return dropped;
}

std::uint64_t SegmentedLog::Fsyncs() const {
  std::lock_guard<std::mutex> lock(wal_mu_);
  return fsyncs_base_ + (wal_ ? wal_->Fsyncs() : 0);
}

void SegmentedLog::Release() { SwapActive(nullptr); }

}  // namespace qcnt::storage
