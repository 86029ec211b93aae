// Unit tests for the v2 storage engine: bloom filters, sorted-block
// checkpoint files, the v2 MANIFEST, the adaptive group-commit window,
// the DurableBackend's rotation/checkpoint/compaction machinery, and the
// spill-mode cold-read layer.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "storage/backend.hpp"
#include "storage/bloom.hpp"
#include "storage/checkpoint.hpp"
#include "storage/commit.hpp"
#include "storage/crc32.hpp"
#include "storage/io_util.hpp"
#include "storage/manifest.hpp"
#include "storage/recovery.hpp"
#include "storage/wal.hpp"

namespace qcnt::storage {
namespace {

namespace fs = std::filesystem;
using namespace std::chrono_literals;

/// Fresh scratch directory under the test's working directory, removed on
/// scope exit (leaf only: ctest -j runs siblings concurrently).
struct ScratchDir {
  explicit ScratchDir(const std::string& tag)
      : path((fs::path("storage_v2_test_scratch") / tag).string()) {
    fs::remove_all(path);
    fs::create_directories(path);
  }
  ~ScratchDir() { fs::remove_all(path); }
  std::string path;
};

std::string Pk(int i) {
  char buf[16];
  std::snprintf(buf, sizeof buf, "key_%05d", i);
  return buf;
}

Versioned V(std::uint64_t version, std::int64_t value) {
  Versioned v;
  v.version = version;
  v.value = value;
  return v;
}

// ---------------------------------------------------------------------------
// BloomFilter
// ---------------------------------------------------------------------------

TEST(Bloom, AddedKeysAlwaysHit) {
  BloomFilter bloom(1000);
  for (int i = 0; i < 1000; ++i) bloom.Add(Pk(i));
  for (int i = 0; i < 1000; ++i) {
    EXPECT_TRUE(bloom.MayContain(Pk(i))) << Pk(i);
  }
}

TEST(Bloom, AbsentKeysMostlyRejected) {
  BloomFilter bloom(1000);
  for (int i = 0; i < 1000; ++i) bloom.Add(Pk(i));
  // ~1% designed false-positive rate; allow generous slack (5%).
  int false_positives = 0;
  for (int i = 1000; i < 3000; ++i) {
    if (bloom.MayContain(Pk(i))) ++false_positives;
  }
  EXPECT_LT(false_positives, 100);
}

TEST(Bloom, SerializedBitsAreTheFilter) {
  BloomFilter bloom(64);
  bloom.Add("alpha");
  bloom.Add("beta");
  BloomFilter rewrapped(bloom.Bits());
  EXPECT_TRUE(rewrapped.MayContain("alpha"));
  EXPECT_TRUE(rewrapped.MayContain("beta"));
  EXPECT_FALSE(rewrapped.MayContain("definitely-not-present-key"));
}

// ---------------------------------------------------------------------------
// Checkpoint files
// ---------------------------------------------------------------------------

TEST(Checkpoint, WriteReadRoundTripAcrossBlocks) {
  ScratchDir dir("ckpt_roundtrip");
  const std::string path = dir.path + "/ckpt_1.blk";
  const int n = 200;
  {
    // Tiny blocks force a multi-block file so the index actually routes.
    CheckpointWriter writer(path, n, /*block_bytes=*/64);
    for (int i = 0; i < n; ++i) writer.Add(Pk(i), V(i + 1, 10 * i));
    writer.Finish(/*generation=*/7, /*config_id=*/3);
    EXPECT_EQ(writer.entries(), static_cast<std::uint64_t>(n));
  }
  auto reader = CheckpointReader::Open(path);
  ASSERT_NE(reader, nullptr);
  EXPECT_EQ(reader->generation(), 7u);
  EXPECT_EQ(reader->config_id(), 3u);
  EXPECT_EQ(reader->entry_count(), static_cast<std::uint64_t>(n));
  for (int i = 0; i < n; ++i) {
    Versioned v;
    ASSERT_EQ(reader->Get(Pk(i), &v), CheckpointReader::Probe::kFound)
        << Pk(i);
    EXPECT_EQ(v.version, static_cast<std::uint64_t>(i + 1));
    EXPECT_EQ(v.value, 10 * i);
  }
}

TEST(Checkpoint, ScanVisitsEveryEntryInKeyOrder) {
  ScratchDir dir("ckpt_scan");
  const std::string path = dir.path + "/ckpt_1.blk";
  {
    CheckpointWriter writer(path, 50, /*block_bytes=*/64);
    for (int i = 0; i < 50; ++i) writer.Add(Pk(i), V(1, i));
    writer.Finish(0, 0);
  }
  auto reader = CheckpointReader::Open(path);
  ASSERT_NE(reader, nullptr);
  std::vector<std::string> keys;
  reader->Scan([&keys](const std::string& key, const Versioned& v) {
    keys.push_back(key);
    EXPECT_EQ(v.version, 1u);
  });
  ASSERT_EQ(keys.size(), 50u);
  for (int i = 0; i < 50; ++i) EXPECT_EQ(keys[i], Pk(i));
}

TEST(Checkpoint, ProbeDistinguishesBloomMissFromFalsePositive) {
  ScratchDir dir("ckpt_probe");
  const std::string path = dir.path + "/ckpt_1.blk";
  {
    CheckpointWriter writer(path, 100);
    for (int i = 0; i < 100; ++i) writer.Add(Pk(i), V(1, i));
    writer.Finish(0, 0);
  }
  auto reader = CheckpointReader::Open(path);
  ASSERT_NE(reader, nullptr);
  Versioned v;
  EXPECT_EQ(reader->Get(Pk(42), &v), CheckpointReader::Probe::kFound);
  // Absent probes return kBloomMiss (no I/O) or, rarely, kNotFound (the
  // ~1% filter false positive) — never kFound.
  int bloom_misses = 0;
  for (int i = 100; i < 600; ++i) {
    const auto probe = reader->Get(Pk(i), &v);
    EXPECT_NE(probe, CheckpointReader::Probe::kFound) << Pk(i);
    if (probe == CheckpointReader::Probe::kBloomMiss) ++bloom_misses;
  }
  EXPECT_GT(bloom_misses, 450);  // the filter rejects the vast majority
}

TEST(Checkpoint, IteratorSeeksStrictlyAboveCursor) {
  ScratchDir dir("ckpt_iter");
  const std::string path = dir.path + "/ckpt_1.blk";
  {
    CheckpointWriter writer(path, 100, /*block_bytes=*/64);
    for (int i = 0; i < 100; ++i) writer.Add(Pk(i), V(1, i));
    writer.Finish(0, 0);
  }
  auto reader = CheckpointReader::Open(path);
  ASSERT_NE(reader, nullptr);

  // Begin() starts at the very first key.
  auto it = reader->Begin();
  ASSERT_TRUE(it.Valid());
  EXPECT_EQ(it.key(), Pk(0));

  // SeekAbove is strictly-greater, spanning block boundaries.
  it = reader->SeekAbove(Pk(41));
  ASSERT_TRUE(it.Valid());
  EXPECT_EQ(it.key(), Pk(42));
  int seen = 42;
  for (; it.Valid(); it.Next()) {
    EXPECT_EQ(it.key(), Pk(seen));
    ++seen;
  }
  EXPECT_EQ(seen, 100);

  // A cursor beyond the last key yields an exhausted iterator, as does a
  // cursor below the first key yielding the first key.
  EXPECT_FALSE(reader->SeekAbove(Pk(99)).Valid());
  auto low = reader->SeekAbove("a");  // sorts before "key_..."
  ASSERT_TRUE(low.Valid());
  EXPECT_EQ(low.key(), Pk(0));
}

TEST(Checkpoint, TruncatedOrCorruptFooterRejected) {
  ScratchDir dir("ckpt_corrupt");
  const std::string path = dir.path + "/ckpt_1.blk";
  {
    CheckpointWriter writer(path, 10);
    for (int i = 0; i < 10; ++i) writer.Add(Pk(i), V(1, i));
    writer.Finish(0, 0);
  }
  ASSERT_NE(CheckpointReader::Open(path), nullptr);

  // Truncate into the footer.
  const auto size = fs::file_size(path);
  fs::resize_file(path, size - 8);
  EXPECT_EQ(CheckpointReader::Open(path), nullptr);

  // Garbage file and missing file.
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << "this is not a checkpoint file at all, not even close......";
  }
  EXPECT_EQ(CheckpointReader::Open(path), nullptr);
  EXPECT_EQ(CheckpointReader::Open(dir.path + "/absent.blk"), nullptr);
}

TEST(Checkpoint, MergeKeepsNewestVersionPerKey) {
  ScratchDir dir("ckpt_merge");
  const std::string old_path = dir.path + "/ckpt_1.blk";
  const std::string new_path = dir.path + "/ckpt_2.blk";
  {
    CheckpointWriter writer(old_path, 3);
    writer.Add("a", V(1, 10));
    writer.Add("b", V(5, 50));  // newer than the second run's "b"
    writer.Add("c", V(1, 30));
    writer.Finish(0, 0);
  }
  {
    CheckpointWriter writer(new_path, 3);
    writer.Add("b", V(2, 99));
    writer.Add("c", V(4, 31));  // supersedes the first run's "c"
    writer.Add("d", V(1, 40));
    writer.Finish(0, 0);
  }
  auto r1 = CheckpointReader::Open(old_path);
  auto r2 = CheckpointReader::Open(new_path);
  ASSERT_NE(r1, nullptr);
  ASSERT_NE(r2, nullptr);
  std::map<std::string, Versioned> merged;
  MergeCheckpoints({r1.get(), r2.get()},
                   [&merged](const std::string& key, const Versioned& v) {
                     EXPECT_TRUE(merged.find(key) == merged.end())
                         << "duplicate emit for " << key;
                     merged[key] = v;
                   });
  ASSERT_EQ(merged.size(), 4u);
  EXPECT_EQ(merged["a"].value, 10);
  EXPECT_EQ(merged["b"].version, 5u);  // highest version wins, file order
  EXPECT_EQ(merged["b"].value, 50);    // does not
  EXPECT_EQ(merged["c"].version, 4u);
  EXPECT_EQ(merged["c"].value, 31);
  EXPECT_EQ(merged["d"].value, 40);
}

// ---------------------------------------------------------------------------
// Manifest v2
// ---------------------------------------------------------------------------

TEST(ManifestV2, FreshDirectoryYieldsEmptyNonPresentShards) {
  ScratchDir dir("manifest_fresh");
  Manifest m(dir.path);
  EXPECT_TRUE(m.info().ok);
  EXPECT_EQ(m.info().version, 0u);
  EXPECT_FALSE(m.Files().present);
  // Nothing was persisted just by constructing.
  EXPECT_FALSE(fs::exists(RecoveryManager::ManifestPath(dir.path)));
}

TEST(ManifestV2, UpdatePersistsAndReloads) {
  ScratchDir dir("manifest_roundtrip");
  {
    Manifest m(dir.path);
    ChainFiles files;
    files.present = true;
    files.next_file_id = 5;
    files.segments = {2, 4};
    files.checkpoints = {1, 3};
    m.Update(files);
  }
  Manifest reloaded(dir.path);
  EXPECT_TRUE(reloaded.info().ok);
  EXPECT_EQ(reloaded.info().version, 2u);
  const ChainFiles& files = reloaded.Files();
  EXPECT_TRUE(files.present);
  EXPECT_EQ(files.next_file_id, 5u);
  EXPECT_EQ(files.segments, (std::vector<std::uint64_t>{2, 4}));
  EXPECT_EQ(files.checkpoints, (std::vector<std::uint64_t>{1, 3}));
}

/// Write `dir`/MANIFEST by hand: magic, `payload`, CRC.
void WriteRawManifest(const std::string& dir,
                      const std::vector<unsigned char>& payload) {
  std::vector<unsigned char> file = {'Q', 'M', 'A', 'N'};
  file.insert(file.end(), payload.begin(), payload.end());
  PutU32(file, Crc32(payload.data(), payload.size()));
  std::ofstream out(RecoveryManager::ManifestPath(dir), std::ios::binary);
  out.write(reinterpret_cast<const char*>(file.data()),
            static_cast<std::streamsize>(file.size()));
}

TEST(ManifestV2, LegacyV1ManifestIsRecognizedNotAdopted) {
  ScratchDir dir("manifest_v1");
  // A format-version-1 MANIFEST, as the pre-v2 engine wrote it: magic,
  // version, stripe count, CRC — it names no files.
  std::vector<unsigned char> payload;
  PutU32(payload, 1);
  PutU32(payload, 3);
  WriteRawManifest(dir.path, payload);
  // Recognized and reported as unsupported — never adopted as a layout.
  Manifest m(dir.path);
  EXPECT_FALSE(m.info().ok);
  EXPECT_NE(m.info().error.find("format version 1"), std::string::npos)
      << m.info().error;
  EXPECT_NE(m.info().error.find(RecoveryManager::ManifestPath(dir.path)),
            std::string::npos)
      << m.info().error;
  EXPECT_FALSE(m.Files().present);
  EXPECT_FALSE(RecoveryManager(dir.path).ValidateLayout().ok);
}

// A v2 MANIFEST whose table stripes the replica over four chains (as a
// replica configured with four shards once wrote it) is refused, naming
// the path and both counts: opening one chain would orphan the others.
TEST(ManifestV2, MultiChainManifestIsRefusedNamingBothCounts) {
  ScratchDir dir("manifest_striped");
  std::vector<unsigned char> payload;
  PutU32(payload, 2);  // format version
  PutU32(payload, 4);  // chain count
  for (int s = 0; s < 4; ++s) payload.push_back(0);  // never opened
  WriteRawManifest(dir.path, payload);

  Manifest m(dir.path);
  EXPECT_FALSE(m.info().ok);
  const std::string& error = m.info().error;
  EXPECT_NE(error.find(RecoveryManager::ManifestPath(dir.path)),
            std::string::npos)
      << error;
  EXPECT_NE(error.find("has 4 shards"), std::string::npos) << error;
  EXPECT_NE(error.find("keeps 1"), std::string::npos) << error;
  EXPECT_FALSE(RecoveryManager(dir.path).ValidateLayout().ok);
  auto backend = MakeDurableBackend(dir.path, DurabilityOptions{});
  EXPECT_THROW(backend->Recover(), LayoutError);
}

TEST(ManifestV2, CorruptManifestReportedNotSilentlyEmpty) {
  ScratchDir dir("manifest_corrupt");
  {
    std::ofstream out(RecoveryManager::ManifestPath(dir.path),
                      std::ios::binary);
    out << "garbage that is definitely not a manifest";
  }
  Manifest m(dir.path);
  EXPECT_FALSE(m.info().ok);
  EXPECT_FALSE(m.info().error.empty());
  EXPECT_FALSE(RecoveryManager(dir.path).ValidateLayout().ok);
}

// ---------------------------------------------------------------------------
// Adaptive group-commit window (pure decision rule)
// ---------------------------------------------------------------------------

TEST(AdaptiveWindow, WidensDoublingTowardMaxOnBusyTickets) {
  GroupCommitCoordinator::Options o;
  o.window = 500us;
  o.adaptive = true;
  o.min_window = 100us;
  o.max_window = 4000us;
  EXPECT_EQ(GroupCommitCoordinator::NextWindow(
                500us, GroupCommitCoordinator::kWidenMarks, o),
            1000us);
  EXPECT_EQ(GroupCommitCoordinator::NextWindow(500us, 1000, o), 1000us);
  EXPECT_EQ(GroupCommitCoordinator::NextWindow(3000us, 1000, o), 4000us);
  EXPECT_EQ(GroupCommitCoordinator::NextWindow(4000us, 1000, o), 4000us);
}

TEST(AdaptiveWindow, NarrowsHalvingTowardMinOnQuietTickets) {
  GroupCommitCoordinator::Options o;
  o.window = 500us;
  o.adaptive = true;
  o.min_window = 100us;
  o.max_window = 4000us;
  EXPECT_EQ(GroupCommitCoordinator::NextWindow(
                500us, GroupCommitCoordinator::kNarrowMarks, o),
            250us);
  EXPECT_EQ(GroupCommitCoordinator::NextWindow(500us, 0, o), 250us);
  EXPECT_EQ(GroupCommitCoordinator::NextWindow(150us, 0, o), 100us);
  EXPECT_EQ(GroupCommitCoordinator::NextWindow(100us, 0, o), 100us);
}

TEST(AdaptiveWindow, HoldsBetweenThresholdsAndWhenDisabled) {
  GroupCommitCoordinator::Options o;
  o.window = 500us;
  o.adaptive = true;
  o.min_window = 100us;
  o.max_window = 4000us;
  for (std::uint64_t marks = GroupCommitCoordinator::kNarrowMarks + 1;
       marks < GroupCommitCoordinator::kWidenMarks; ++marks) {
    EXPECT_EQ(GroupCommitCoordinator::NextWindow(700us, marks, o), 700us);
  }
  o.adaptive = false;
  // Disabled: always the configured fixed window, whatever the load.
  EXPECT_EQ(GroupCommitCoordinator::NextWindow(700us, 1000, o), 500us);
  EXPECT_EQ(GroupCommitCoordinator::NextWindow(700us, 0, o), 500us);
}

// ---------------------------------------------------------------------------
// DurableBackend: rotation, checkpointing, compaction, O(tail) recovery
// ---------------------------------------------------------------------------

DurabilityOptions SmallThresholds(const std::string& dir) {
  DurabilityOptions o;
  o.directory = dir;  // informational; MakeDurableBackend takes dir directly
  o.fsync = FsyncPolicy::kNever;
  o.checkpoint_tail_bytes = 512;
  o.segment_bytes = 256;
  return o;
}

/// Drive one applied write through both the image (as ReplicaServer
/// would) and the backend, then let thresholds trip.
void Apply(Backend& backend, Image& image, const std::string& key,
           std::uint64_t version, std::int64_t value) {
  image.ApplyWrite(key, version, value);
  WalRecord r;
  r.key = key;
  r.version = version;
  r.value = value;
  backend.ApplyWriteBatch({r});  // a batch of one, as the replica sends
  backend.MaybeCompact(image);
}

TEST(DurableBackendV2, CheckpointsOnTailThresholdAndReclaimsSegments) {
  ScratchDir dir("be_checkpoint");
  auto backend = MakeDurableBackend(dir.path, SmallThresholds(dir.path));
  Image image = backend->Recover();
  for (int i = 0; i < 100; ++i) Apply(*backend, image, Pk(i), 1, i);

  const StorageStats stats = backend->Stats();
  EXPECT_GE(stats.checkpoints_written, 1u);
  EXPECT_GE(stats.segments_rotated, 1u);
  EXPECT_GE(stats.segments_compacted, 1u);
  EXPECT_GT(stats.checkpoint_entries, 0u);

  // The manifest names a bounded live set: exactly one active segment
  // right after a checkpoint, at most a few since.
  Manifest m(dir.path);
  EXPECT_EQ(m.info().version, 2u);
  const ChainFiles files = m.Files();
  ASSERT_TRUE(files.present);
  EXPECT_GE(files.checkpoints.size(), 1u);
  for (const std::uint64_t id : files.segments) {
    EXPECT_TRUE(fs::exists(Manifest::SegmentPath(dir.path, id)));
  }
  for (const std::uint64_t id : files.checkpoints) {
    EXPECT_TRUE(fs::exists(Manifest::CheckpointPath(dir.path, id)));
  }
}

TEST(DurableBackendV2, RecoveryReplaysOnlyTheTailNotTotalState) {
  ScratchDir dir("be_otail");
  {
    auto backend = MakeDurableBackend(dir.path, SmallThresholds(dir.path));
    Image image = backend->Recover();
    for (int i = 0; i < 300; ++i) Apply(*backend, image, Pk(i), 1, 7 * i);
  }
  auto backend = MakeDurableBackend(dir.path, SmallThresholds(dir.path));
  const Image image = backend->Recover();
  ASSERT_EQ(image.data.size(), 300u);
  for (int i = 0; i < 300; ++i) {
    EXPECT_EQ(image.data.at(Pk(i)).value, 7 * i) << Pk(i);
  }
  // 512-byte tail threshold ≈ a couple dozen ~35-byte records; replaying
  // anywhere near the 300 appended records would mean the checkpoints
  // are being ignored.
  EXPECT_LT(backend->Stats().recovery_replayed, 60u);
}

TEST(DurableBackendV2, RotatesWithoutCheckpointWhenTailAllowed) {
  ScratchDir dir("be_rotate");
  DurabilityOptions o = SmallThresholds(dir.path);
  o.checkpoint_tail_bytes = 1u << 30;  // never checkpoint
  o.segment_bytes = 256;               // rotate often
  {
    auto backend = MakeDurableBackend(dir.path, o);
    Image image = backend->Recover();
    for (int i = 0; i < 60; ++i) Apply(*backend, image, Pk(i), 1, i);
    const StorageStats stats = backend->Stats();
    EXPECT_GE(stats.segments_rotated, 2u);
    EXPECT_EQ(stats.checkpoints_written, 0u);
    Manifest m(dir.path);
    EXPECT_GE(m.Files().segments.size(), 3u);
  }
  // Every segment in the chain replays, oldest to newest.
  auto backend = MakeDurableBackend(dir.path, o);
  const Image image = backend->Recover();
  ASSERT_EQ(image.data.size(), 60u);
  EXPECT_EQ(backend->Stats().recovery_replayed, 60u);
}

TEST(DurableBackendV2, ChainMergesAtMaxCheckpoints) {
  ScratchDir dir("be_merge");
  DurabilityOptions o = SmallThresholds(dir.path);
  o.checkpoint_tail_bytes = 1u << 30;  // only explicit checkpoints
  o.segment_bytes = 1u << 30;
  o.max_checkpoints = 2;
  auto backend = MakeDurableBackend(dir.path, o);
  Image image = backend->Recover();
  // Four checkpoints of overlapping keys; the chain must fold.
  for (int round = 1; round <= 4; ++round) {
    for (int i = 0; i < 10; ++i) {
      Apply(*backend, image, Pk(i), round, 100 * round + i);
    }
    backend->ForceCheckpoint(image);
  }
  const StorageStats stats = backend->Stats();
  EXPECT_EQ(stats.checkpoints_written, 4u);
  EXPECT_GE(stats.checkpoint_merges, 1u);
  Manifest m(dir.path);
  EXPECT_LE(m.Files().checkpoints.size(), 2u);

  // Newest round survives the k-way merges.
  auto reopened = MakeDurableBackend(dir.path, o);
  const Image recovered = reopened->Recover();
  ASSERT_EQ(recovered.data.size(), 10u);
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(recovered.data.at(Pk(i)).version, 4u);
    EXPECT_EQ(recovered.data.at(Pk(i)).value, 400 + i);
  }
}

TEST(DurableBackendV2, UnreferencedFilesSweptOnRecovery) {
  ScratchDir dir("be_sweep");
  DurabilityOptions o = SmallThresholds(dir.path);
  {
    auto backend = MakeDurableBackend(dir.path, o);
    Image image = backend->Recover();
    for (int i = 0; i < 40; ++i) Apply(*backend, image, Pk(i), 1, i);
    backend->ForceCheckpoint(image);
  }
  // A crash between "create new files" and "manifest save" leaves
  // orphans the manifest never adopted; recovery must sweep them.
  const std::string chain_dir = Manifest::ChainDirPath(dir.path);
  const std::string orphan_seg = chain_dir + "/seg_99.log";
  const std::string orphan_ckpt = chain_dir + "/ckpt_99.blk";
  const std::string orphan_tmp = chain_dir + "/ckpt_100.blk.tmp";
  for (const std::string& p : {orphan_seg, orphan_ckpt, orphan_tmp}) {
    std::ofstream out(p, std::ios::binary);
    out << "orphaned by a simulated crash";
  }
  auto backend = MakeDurableBackend(dir.path, o);
  const Image image = backend->Recover();
  EXPECT_FALSE(fs::exists(orphan_seg));
  EXPECT_FALSE(fs::exists(orphan_ckpt));
  EXPECT_FALSE(fs::exists(orphan_tmp));
  ASSERT_EQ(image.data.size(), 40u);
  for (int i = 0; i < 40; ++i) EXPECT_EQ(image.data.at(Pk(i)).value, i);
}

TEST(DurableBackendV2, UnreadableCheckpointIsRefused) {
  ScratchDir dir("be_bad_ckpt");
  DurabilityOptions o = SmallThresholds(dir.path);
  {
    auto backend = MakeDurableBackend(dir.path, o);
    Image image = backend->Recover();
    for (int i = 0; i < 40; ++i) Apply(*backend, image, Pk(i), 1, i);
    backend->ForceCheckpoint(image);
  }
  // A checkpoint the MANIFEST names lost its footer: recovering without
  // it would silently drop every key it holds.
  const std::uint64_t id = Manifest(dir.path).Files().checkpoints.back();
  const std::string path = Manifest::CheckpointPath(dir.path, id);
  fs::resize_file(path, 16);
  auto backend = MakeDurableBackend(dir.path, o);
  try {
    backend->Recover();
    FAIL() << "recovered over an unreadable checkpoint";
  } catch (const LayoutError& e) {
    EXPECT_NE(std::string(e.what()).find(path), std::string::npos)
        << e.what();
  }
}

TEST(DurableBackendV2, TornActiveSegmentTailCutOnRecovery) {
  ScratchDir dir("be_torn");
  DurabilityOptions o = SmallThresholds(dir.path);
  o.fsync = FsyncPolicy::kAlways;
  o.checkpoint_tail_bytes = 1u << 30;
  o.segment_bytes = 1u << 30;
  {
    auto backend = MakeDurableBackend(dir.path, o);
    Image image = backend->Recover();
    for (int i = 0; i < 20; ++i) Apply(*backend, image, Pk(i), 1, i);
    backend->OnCrash();
  }
  // Half a frame of garbage lands on the active segment — the classic
  // crash mid-append.
  const std::uint64_t active = Manifest(dir.path).Files().segments.back();
  {
    std::ofstream out(Manifest::SegmentPath(dir.path, active),
                      std::ios::binary | std::ios::app);
    out << "\x13\x37garbage";
  }
  auto backend = MakeDurableBackend(dir.path, o);
  const Image image = backend->Recover();
  EXPECT_EQ(backend->Stats().torn_tails_discarded, 1u);
  ASSERT_EQ(image.data.size(), 20u);
  for (int i = 0; i < 20; ++i) EXPECT_EQ(image.data.at(Pk(i)).value, i);
}

// ---------------------------------------------------------------------------
// Spill mode: the cold-read layer
// ---------------------------------------------------------------------------

TEST(SpillMode, CheckpointEvictsImageAndLookupServesCold) {
  ScratchDir dir("spill_lookup");
  DurabilityOptions o = SmallThresholds(dir.path);
  o.checkpoint_tail_bytes = 1u << 30;
  o.segment_bytes = 1u << 30;
  o.spill_cold_reads = true;
  auto backend = MakeDurableBackend(dir.path, o);
  Image image = backend->Recover();
  image.ApplyConfig(9, 2);
  backend->ApplyConfig(9, 2);
  for (int i = 0; i < 80; ++i) Apply(*backend, image, Pk(i), 1, 3 * i);
  backend->ForceCheckpoint(image);

  // Eviction: the map empties, the stamp survives.
  EXPECT_TRUE(image.data.empty());
  EXPECT_EQ(image.generation, 9u);
  EXPECT_EQ(image.config_id, 2u);

  Versioned v;
  for (int i = 0; i < 80; ++i) {
    ASSERT_TRUE(backend->Lookup(Pk(i), &v)) << Pk(i);
    EXPECT_EQ(v.version, 1u);
    EXPECT_EQ(v.value, 3 * i);
  }
  EXPECT_FALSE(backend->Lookup("never-written", &v));

  const StorageStats stats = backend->Stats();
  EXPECT_EQ(stats.cold_lookups, 81u);
  EXPECT_EQ(stats.bloom_hits, 80u);
  EXPECT_EQ(stats.bloom_misses + stats.bloom_false_positives, 1u);
}

TEST(SpillMode, NewestCheckpointWinsForRedirtiedKeys) {
  ScratchDir dir("spill_newest");
  DurabilityOptions o = SmallThresholds(dir.path);
  o.checkpoint_tail_bytes = 1u << 30;
  o.segment_bytes = 1u << 30;
  o.spill_cold_reads = true;
  auto backend = MakeDurableBackend(dir.path, o);
  Image image = backend->Recover();
  for (int i = 0; i < 20; ++i) Apply(*backend, image, Pk(i), 1, i);
  backend->ForceCheckpoint(image);
  // Re-dirty a subset at a higher version; second checkpoint holds only
  // those, so the chain has both runs and the probe must prefer the new.
  for (int i = 0; i < 5; ++i) Apply(*backend, image, Pk(i), 2, 1000 + i);
  backend->ForceCheckpoint(image);

  Versioned v;
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(backend->Lookup(Pk(i), &v));
    EXPECT_EQ(v.version, 2u);
    EXPECT_EQ(v.value, 1000 + i);
  }
  for (int i = 5; i < 20; ++i) {
    ASSERT_TRUE(backend->Lookup(Pk(i), &v));
    EXPECT_EQ(v.version, 1u);
  }
}

TEST(SpillMode, ScanAboveMergesChainInOrderIncludingEmptyKey) {
  ScratchDir dir("spill_scan");
  DurabilityOptions o = SmallThresholds(dir.path);
  o.checkpoint_tail_bytes = 1u << 30;
  o.segment_bytes = 1u << 30;
  o.spill_cold_reads = true;
  auto backend = MakeDurableBackend(dir.path, o);
  Image image = backend->Recover();
  Apply(*backend, image, "", 1, -1);  // the empty key is a legal key
  for (int i = 0; i < 30; ++i) Apply(*backend, image, Pk(i), 1, i);
  backend->ForceCheckpoint(image);
  for (int i = 0; i < 10; ++i) Apply(*backend, image, Pk(i), 2, 100 + i);
  backend->ForceCheckpoint(image);

  // Empty cursor = start inclusive: the empty key must be the first
  // emit, or catchup's opening request would permanently skip it.
  std::vector<std::pair<std::string, Versioned>> got;
  backend->ScanAbove("", 5,
                     [&got](const std::string& key, const Versioned& v) {
                       got.emplace_back(key, v);
                     });
  ASSERT_EQ(got.size(), 5u);
  EXPECT_EQ(got[0].first, "");
  EXPECT_EQ(got[0].second.value, -1);
  EXPECT_EQ(got[1].first, Pk(0));
  EXPECT_EQ(got[1].second.version, 2u);  // newest run wins the merge

  // Resume from the last delivered key: strictly greater, no repeats.
  got.clear();
  backend->ScanAbove(Pk(0), 1000,
                     [&got](const std::string& key, const Versioned& v) {
                       got.emplace_back(key, v);
                     });
  ASSERT_EQ(got.size(), 29u);
  for (int i = 0; i < 29; ++i) {
    EXPECT_EQ(got[i].first, Pk(i + 1));
    EXPECT_EQ(got[i].second.version, i + 1 < 10 ? 2u : 1u);
  }

  // ScanAll covers the whole chain, newest version per key.
  std::map<std::string, Versioned> all;
  backend->ScanAll([&all](const std::string& key, const Versioned& v) {
    all[key] = v;
  });
  EXPECT_EQ(all.size(), 31u);
  EXPECT_EQ(all.at(Pk(3)).value, 103);
  EXPECT_EQ(all.at(Pk(20)).value, 20);
}

TEST(SpillMode, RecoveryMaterializesOnlyTheTail) {
  ScratchDir dir("spill_recover");
  DurabilityOptions o = SmallThresholds(dir.path);
  o.checkpoint_tail_bytes = 1u << 30;
  o.segment_bytes = 1u << 30;
  o.spill_cold_reads = true;
  {
    auto backend = MakeDurableBackend(dir.path, o);
    Image image = backend->Recover();
    for (int i = 0; i < 50; ++i) Apply(*backend, image, Pk(i), 1, i);
    backend->ForceCheckpoint(image);
    for (int i = 50; i < 55; ++i) Apply(*backend, image, Pk(i), 1, i);
  }
  auto backend = MakeDurableBackend(dir.path, o);
  const Image image = backend->Recover();
  // Only the 5 un-checkpointed writes live in RAM ...
  EXPECT_EQ(image.data.size(), 5u);
  for (int i = 50; i < 55; ++i) EXPECT_EQ(image.data.at(Pk(i)).value, i);
  // ... the other 50 are served cold.
  Versioned v;
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(backend->Lookup(Pk(i), &v)) << Pk(i);
    EXPECT_EQ(v.value, i);
  }
}

TEST(SpillMode, ColdApisAreNoOpsWithoutSpill) {
  ScratchDir dir("spill_off");
  DurabilityOptions o = SmallThresholds(dir.path);
  o.checkpoint_tail_bytes = 1u << 30;
  o.segment_bytes = 1u << 30;
  o.spill_cold_reads = false;
  auto backend = MakeDurableBackend(dir.path, o);
  Image image = backend->Recover();
  for (int i = 0; i < 10; ++i) Apply(*backend, image, Pk(i), 1, i);
  backend->ForceCheckpoint(image);
  EXPECT_EQ(image.data.size(), 10u);  // no eviction without spill

  // The image is complete, so the cold layer must stay silent — the
  // runtime calls these unconditionally.
  Versioned v;
  EXPECT_FALSE(backend->Lookup(Pk(3), &v));
  int visits = 0;
  backend->ScanAbove("", 100,
                     [&visits](const std::string&, const Versioned&) {
                       ++visits;
                     });
  backend->ScanAll([&visits](const std::string&, const Versioned&) {
    ++visits;
  });
  EXPECT_EQ(visits, 0);
  EXPECT_EQ(backend->Stats().cold_lookups, 0u);
}

// ---------------------------------------------------------------------------
// Bounded merge: the chain merge runs in slices between batches
// ---------------------------------------------------------------------------

std::size_t ChainLength(const std::string& dir) {
  return Manifest(dir).Files().checkpoints.size();
}

/// One batch of `records` (as the replica sends), then the thresholds.
void ApplyBatch(Backend& backend, Image& image,
                const std::vector<WalRecord>& records) {
  for (const WalRecord& r : records) image.ApplyWrite(r.key, r.version, r.value);
  backend.ApplyWriteBatch(records);
  backend.MaybeCompact(image);
}

WalRecord Rec(const std::string& key, std::uint64_t version,
              std::int64_t value) {
  WalRecord r;
  r.key = key;
  r.version = version;
  r.value = value;
  return r;
}

/// Every file in the chain directory is one the MANIFEST names.
void ExpectOnlyReferencedFiles(const std::string& dir) {
  const ChainFiles files = Manifest(dir).Files();
  std::set<std::string> referenced;
  for (const std::uint64_t id : files.segments) {
    referenced.insert(fs::path(Manifest::SegmentPath(dir, id)).filename());
  }
  for (const std::uint64_t id : files.checkpoints) {
    referenced.insert(fs::path(Manifest::CheckpointPath(dir, id)).filename());
  }
  for (const auto& entry :
       fs::directory_iterator(Manifest::ChainDirPath(dir))) {
    EXPECT_TRUE(referenced.count(entry.path().filename().string()))
        << "unreferenced file " << entry.path();
  }
}

// Over a long load of small batches, no MaybeCompact call writes more
// merged entries than its budget — the entry count of the checkpoint that
// was newest when the call began — and the chain never grows past twice
// max_checkpoints. A whole-chain merge inside one call (O(total state))
// fails the first check as soon as the base outgrows one checkpoint.
TEST(BoundedMerge, NoCallMergesMoreThanTheNewestCheckpointHolds) {
  ScratchDir dir("merge_budget");
  DurabilityOptions o = SmallThresholds(dir.path);
  o.checkpoint_tail_bytes = 2048;
  o.segment_bytes = 1024;
  o.max_checkpoints = 4;
  auto backend = MakeDurableBackend(dir.path, o);
  Image image = backend->Recover();

  constexpr int kKeys = 3000;
  StorageStats last = backend->Stats();
  std::uint64_t newest = 0;  // entries in the newest checkpoint
  std::size_t longest = 0;
  for (int i = 0; i < kKeys; ++i) {
    Apply(*backend, image, Pk(i), 1, i);
    const StorageStats now = backend->Stats();
    ASSERT_LE(now.merge_entries - last.merge_entries, newest)
        << "call " << i << " merged past its budget";
    if (now.checkpoints_written > last.checkpoints_written) {
      newest = now.checkpoint_entries - last.checkpoint_entries;
    }
    longest = std::max(longest, ChainLength(dir.path));
    ASSERT_LE(ChainLength(dir.path), 2 * o.max_checkpoints) << "call " << i;
    last = now;
  }
  EXPECT_GE(last.checkpoint_merges, 2u);
  EXPECT_GT(longest, o.max_checkpoints) << "no merge ever overlapped";

  auto reopened = MakeDurableBackend(dir.path, o);
  const Image recovered = reopened->Recover();
  ASSERT_EQ(recovered.data.size(), static_cast<std::size_t>(kKeys));
  for (int i = 0; i < kKeys; ++i) {
    EXPECT_EQ(recovered.data.at(Pk(i)).value, i) << Pk(i);
  }
}

// When every call lands a checkpoint (batches larger than the tail
// threshold), the per-call slices alone cannot keep up with a growing
// base; the pacing floor at each landing still finishes every merge
// before max_checkpoints more files land.
TEST(BoundedMerge, ChainStaysWithinTwiceMaxCheckpointsWhenBatchesAreLarge) {
  ScratchDir dir("merge_floor");
  DurabilityOptions o = SmallThresholds(dir.path);
  o.checkpoint_tail_bytes = 2048;
  o.segment_bytes = 1u << 30;
  o.max_checkpoints = 3;
  auto backend = MakeDurableBackend(dir.path, o);
  Image image = backend->Recover();

  constexpr int kBatches = 40;
  constexpr int kPerBatch = 100;
  for (int b = 0; b < kBatches; ++b) {
    std::vector<WalRecord> batch;
    for (int i = 0; i < kPerBatch; ++i) {
      const int k = b * kPerBatch + i;
      batch.push_back(Rec(Pk(k), 1, k));
    }
    ApplyBatch(*backend, image, batch);
    ASSERT_LE(ChainLength(dir.path), 2 * o.max_checkpoints) << "batch " << b;
  }
  const StorageStats stats = backend->Stats();
  EXPECT_EQ(stats.checkpoints_written, static_cast<std::uint64_t>(kBatches));
  EXPECT_GE(stats.checkpoint_merges, 5u);

  auto reopened = MakeDurableBackend(dir.path, o);
  const Image recovered = reopened->Recover();
  ASSERT_EQ(recovered.data.size(),
            static_cast<std::size_t>(kBatches * kPerBatch));
  for (int k = 0; k < kBatches * kPerBatch; ++k) {
    EXPECT_EQ(recovered.data.at(Pk(k)).value, k) << Pk(k);
  }
}

// A crash at every slice boundary of one merge — right after it opens,
// after each slice, and after its commit — recovers every acked value and
// leaves no file the MANIFEST does not name: the partial output is a
// `.tmp` the recovery sweep removes, and the inputs stay live until the
// merged run's manifest save.
TEST(BoundedMerge, CrashAtEverySliceBoundaryRecoversEveryAckedValue) {
  DurabilityOptions o;
  o.fsync = FsyncPolicy::kNever;
  o.checkpoint_tail_bytes = 2048;
  o.segment_bytes = 1024;
  o.max_checkpoints = 3;
  constexpr int kKeys = 400;
  // Call i writes key i % kKeys at version i / kKeys + 1.
  const auto run = [&](const std::string& path, int calls,
                       std::map<std::string, std::int64_t>* acked,
                       std::vector<StorageStats>* per_call) {
    auto backend = MakeDurableBackend(path, o);
    Image image = backend->Recover();
    for (int i = 0; i < calls; ++i) {
      Apply(*backend, image, Pk(i % kKeys), i / kKeys + 1, i);
      if (acked != nullptr) (*acked)[Pk(i % kKeys)] = i;
      if (per_call != nullptr) per_call->push_back(backend->Stats());
    }
    backend->OnCrash();  // fail-stop: an open merge dies mid-flight
  };

  // Locate the first merge: it opens in the call before its first slice
  // and commits in the call that bumps checkpoint_merges.
  int first_slice = -1, commit = -1;
  {
    ScratchDir probe("merge_crash_probe");
    std::vector<StorageStats> per_call;
    run(probe.path, 3 * kKeys, nullptr, &per_call);
    for (int i = 0; i < static_cast<int>(per_call.size()); ++i) {
      if (first_slice < 0 && per_call[i].merge_entries > 0) first_slice = i;
      if (commit < 0 && per_call[i].checkpoint_merges > 0) commit = i;
    }
  }
  ASSERT_GT(first_slice, 0);
  ASSERT_GT(commit, first_slice) << "the merge finished in one slice";

  bool saw_partial_output = false;
  for (int last = first_slice - 1; last <= commit; ++last) {
    ScratchDir dir("merge_crash");
    std::map<std::string, std::int64_t> acked;
    run(dir.path, last + 1, &acked, nullptr);
    for (const auto& entry :
         fs::directory_iterator(Manifest::ChainDirPath(dir.path))) {
      if (entry.path().extension() == ".tmp") saw_partial_output = true;
    }

    auto backend = MakeDurableBackend(dir.path, o);
    const Image image = backend->Recover();
    ASSERT_EQ(image.data.size(), acked.size()) << "crash after call " << last;
    for (const auto& [key, value] : acked) {
      ASSERT_EQ(image.data.at(key).value, value)
          << key << ", crash after call " << last;
    }
    ExpectOnlyReferencedFiles(dir.path);
  }
  EXPECT_TRUE(saw_partial_output) << "no crash landed inside the merge";
}

// Spill mode serves every key from the chain while a merge is open: a
// Lookup must return the newest version whether it lives in a checkpoint
// landed after the merge opened, in an input the cursor already passed,
// or in one it has not reached.
TEST(BoundedMerge, SpillLookupMidMergeReturnsNewestVersion) {
  ScratchDir dir("merge_spill");
  DurabilityOptions o = SmallThresholds(dir.path);
  o.checkpoint_tail_bytes = 1u << 30;  // only explicit checkpoints
  o.segment_bytes = 1u << 30;
  o.max_checkpoints = 2;
  o.spill_cold_reads = true;
  auto backend = MakeDurableBackend(dir.path, o);
  Image image = backend->Recover();

  // Three runs: keys 0..99 at v1, 0..49 at v2, 0..24 at v3. The third
  // checkpoint passes max_checkpoints and opens the merge.
  for (const auto& [count, version] :
       std::vector<std::pair<int, std::uint64_t>>{{100, 1}, {50, 2}, {25, 3}}) {
    std::vector<WalRecord> batch;
    for (int i = 0; i < count; ++i) {
      batch.push_back(Rec(Pk(i), version, 1000 * version + i));
    }
    image.data.clear();
    backend->ApplyWriteBatch(batch);
    backend->ForceCheckpoint(image);
  }
  ASSERT_EQ(backend->Stats().merge_entries, 0u);

  // One slice (25 entries: the newest checkpoint's count), then a
  // checkpoint landing mid-merge that re-dirties key 10 at v4.
  Apply(*backend, image, Pk(10), 4, 4010);
  backend->ForceCheckpoint(image);
  const StorageStats mid = backend->Stats();
  ASSERT_EQ(mid.checkpoint_merges, 0u) << "merge already committed";
  ASSERT_GT(mid.merge_entries, 0u);
  ASSERT_LT(mid.merge_entries, 100u);
  ASSERT_EQ(ChainLength(dir.path), 4u);

  const auto expect_newest = [&](const char* when) {
    Versioned v;
    ASSERT_TRUE(backend->Lookup(Pk(10), &v)) << when;
    EXPECT_EQ(v.version, 4u) << when;  // landed after the merge opened
    EXPECT_EQ(v.value, 4010) << when;
    ASSERT_TRUE(backend->Lookup(Pk(20), &v)) << when;
    EXPECT_EQ(v.version, 3u) << when;
    ASSERT_TRUE(backend->Lookup(Pk(40), &v)) << when;
    EXPECT_EQ(v.version, 2u) << when;
    ASSERT_TRUE(backend->Lookup(Pk(90), &v)) << when;
    EXPECT_EQ(v.version, 1u) << when;
    EXPECT_EQ(v.value, 1090) << when;
  };
  expect_newest("mid-merge");

  // Drive the merge to its commit; the answers do not change.
  for (int i = 0; backend->Stats().checkpoint_merges == 0; ++i) {
    ASSERT_LT(i, 100) << "merge never committed";
    Apply(*backend, image, "z" + std::to_string(i), 1, i);
  }
  expect_newest("after commit");
  EXPECT_EQ(ChainLength(dir.path), 2u);  // merged run + the v4 checkpoint
}

}  // namespace
}  // namespace qcnt::storage
