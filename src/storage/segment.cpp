#include "storage/segment.hpp"

#include <cstdio>
#include <filesystem>
#include <utility>

#include "common/check.hpp"

namespace qcnt::storage {

SegmentedLog::SegmentedLog(std::shared_ptr<Manifest> manifest,
                           std::size_t shard, ShardFiles* files,
                           Wal::Options wal_options,
                           std::shared_ptr<GroupCommitCoordinator> coordinator)
    : manifest_(std::move(manifest)),
      shard_(shard),
      files_(files),
      wal_options_(wal_options),
      coordinator_(std::move(coordinator)) {}

SegmentedLog::~SegmentedLog() { Release(); }

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
    OpenActive(id, /*create=*/true);
    manifest_->Update(shard_, *files_);
    return stats;
  }

  std::uint64_t active_valid_bytes = 0;
  for (std::size_t i = 0; i < files_->segments.size(); ++i) {
    const std::string path =
        Manifest::SegmentPath(manifest_->dir(), shard_, files_->segments[i]);
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

  OpenActive(files_->segments.back(), /*create=*/false);
  if (wal_->SizeBytes() > active_valid_bytes) {
    // Cut the torn frame so fresh appends don't land after garbage. Done
    // after open (the Wal owns the fd) but before coordinator attach.
    wal_->TruncateTo(active_valid_bytes);
  }
  return stats;
}

void SegmentedLog::OpenActive(std::uint64_t id, bool create) {
  const std::string path = Manifest::SegmentPath(manifest_->dir(), shard_, id);
  (void)create;  // Wal's O_CREAT covers both cases
  auto next = std::make_unique<Wal>(path, wal_options_);
  SwapActive(std::move(next));
}

void SegmentedLog::SwapActive(std::unique_ptr<Wal> next) {
  if (wal_ && Coordinated()) coordinator_->Detach(wal_.get());
  {
    // Base rollup and pointer swap together, so a concurrent Fsyncs()
    // never sees the sealed segment's count twice (or not at all).
    std::lock_guard<std::mutex> lock(wal_mu_);
    if (wal_) {
      fsyncs_base_.fetch_add(wal_->Fsyncs(), std::memory_order_relaxed);
      bytes_appended_base_ += wal_->BytesAppended();
    }
    wal_ = std::move(next);
  }
  if (wal_ && Coordinated()) coordinator_->Attach(wal_.get());
}

void SegmentedLog::AppendBatch(const std::vector<WalRecord>& records) {
  QCNT_CHECK_MSG(wal_ != nullptr, "segmented log used before OpenAndReplay");
  wal_->AppendBatch(records);
  if (Coordinated()) coordinator_->MarkDirty();
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
      Manifest::SegmentPath(manifest_->dir(), shard_, id), wal_options_);
  manifest_->Update(shard_, *files_);
  SwapActive(std::move(next));
  sealed_bytes_ += sealed_size;
}

std::size_t SegmentedLog::DropSealed() {
  QCNT_CHECK_MSG(files_->segments.size() == 1,
                 "DropSealed before the manifest shrank the chain");
  std::size_t dropped = 0;
  // The manifest no longer references anything but the active id; delete
  // every other seg_ file in the shard directory.
  namespace fs = std::filesystem;
  const std::string dir = Manifest::ShardDirPath(manifest_->dir(), shard_);
  const std::string keep =
      Manifest::SegmentPath(manifest_->dir(), shard_, files_->segments[0]);
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
  return fsyncs_base_.load(std::memory_order_relaxed) +
         (wal_ ? wal_->Fsyncs() : 0);
}

void SegmentedLog::Release() {
  if (!wal_) return;
  if (Coordinated()) coordinator_->Detach(wal_.get());
  std::lock_guard<std::mutex> lock(wal_mu_);
  fsyncs_base_.fetch_add(wal_->Fsyncs(), std::memory_order_relaxed);
  bytes_appended_base_ += wal_->BytesAppended();
  wal_.reset();
}

}  // namespace qcnt::storage
