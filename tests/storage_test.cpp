// Unit tests for the durability subsystem: Wal framing and replay, and
// recovery's composition of the checkpoint chain with the WAL tail.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "storage/backend.hpp"
#include "storage/checkpoint.hpp"
#include "storage/crc32.hpp"
#include "storage/manifest.hpp"
#include "storage/wal.hpp"

namespace qcnt::storage {
namespace {

namespace fs = std::filesystem;
using namespace std::chrono_literals;

/// Fresh scratch directory under the test's working directory, removed on
/// scope exit.
struct ScratchDir {
  explicit ScratchDir(const std::string& tag)
      : path((fs::path("storage_test_scratch") / tag).string()) {
    fs::remove_all(path);
    fs::create_directories(path);
  }
  // Remove only this test's leaf (ctest -j runs sibling cases in the same
  // working directory concurrently; the shared parent must survive).
  ~ScratchDir() { fs::remove_all(path); }
  std::string path;
};

WalRecord Write(const std::string& key, std::uint64_t version,
                std::int64_t value) {
  WalRecord r;
  r.type = WalRecord::Type::kWrite;
  r.key = key;
  r.version = version;
  r.value = value;
  return r;
}

WalRecord Config(std::uint64_t generation, std::uint32_t config_id) {
  WalRecord r;
  r.type = WalRecord::Type::kConfig;
  r.generation = generation;
  r.config_id = config_id;
  return r;
}

std::vector<WalRecord> ReplayAll(const std::string& path,
                                 Wal::ReplayResult* result = nullptr) {
  std::vector<WalRecord> records;
  const Wal::ReplayResult r =
      Wal::Replay(path, [&](const WalRecord& rec) { records.push_back(rec); });
  if (result) *result = r;
  return records;
}

TEST(Crc32, KnownVector) {
  // The standard CRC-32 check value for "123456789".
  EXPECT_EQ(Crc32("123456789", 9), 0xCBF43926u);
}

/// Byte-at-a-time CRC-32, bit by bit: the reference the sliced one must
/// match byte for byte, or every WAL, checkpoint, MANIFEST and wire frame
/// written before the change would stop verifying.
std::uint32_t ReferenceCrc32(const unsigned char* p, std::size_t n,
                             std::uint32_t seed = 0) {
  std::uint32_t c = ~seed;
  for (std::size_t i = 0; i < n; ++i) {
    c ^= p[i];
    for (int k = 0; k < 8; ++k) c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
  }
  return ~c;
}

/// Deterministic, non-repeating test bytes.
std::vector<unsigned char> CrcTestBytes(std::size_t n) {
  std::vector<unsigned char> bytes(n);
  std::uint32_t x = 0x9E3779B9u;
  for (unsigned char& b : bytes) {
    x ^= x << 13;
    x ^= x >> 17;
    x ^= x << 5;
    b = static_cast<unsigned char>(x);
  }
  return bytes;
}

TEST(Crc32, MatchesByteAtATimeReferenceAtEveryLengthAndAlignment) {
  const std::vector<unsigned char> bytes = CrcTestBytes(1024 + 8);
  for (std::size_t offset = 0; offset < 8; ++offset) {
    for (std::size_t len = 0; len <= 1024; ++len) {
      ASSERT_EQ(Crc32(bytes.data() + offset, len),
                ReferenceCrc32(bytes.data() + offset, len))
          << "offset " << offset << " length " << len;
    }
  }
}

TEST(Crc32, IncrementalMatchesOneShot) {
  const std::string s = "quorum consensus";
  const std::uint32_t split = Crc32(s.data() + 0, 7);
  EXPECT_EQ(Crc32(s.data() + 7, s.size() - 7, split),
            Crc32(s.data(), s.size()));
  // Every split of a buffer long enough that both halves run the
  // eight-byte steps and the byte tail.
  const std::vector<unsigned char> bytes = CrcTestBytes(300);
  const std::uint32_t whole = Crc32(bytes.data(), bytes.size());
  for (std::size_t n1 = 0; n1 <= bytes.size(); ++n1) {
    ASSERT_EQ(Crc32(bytes.data() + n1, bytes.size() - n1,
                    Crc32(bytes.data(), n1)),
              whole)
        << "split at " << n1;
  }
}

TEST(Wal, AppendReplayRoundTrip) {
  ScratchDir dir("wal_roundtrip");
  const std::string path = dir.path + "/wal.log";
  {
    Wal wal(path, {});
    wal.Append(Write("alpha", 1, 10));
    wal.Append(Write("beta", 2, -20));
    wal.Append(Config(3, 1));
    EXPECT_EQ(wal.RecordsAppended(), 3u);
  }
  Wal::ReplayResult result;
  const std::vector<WalRecord> records = ReplayAll(path, &result);
  ASSERT_EQ(records.size(), 3u);
  EXPECT_FALSE(result.torn_tail);
  EXPECT_EQ(records[0].key, "alpha");
  EXPECT_EQ(records[0].version, 1u);
  EXPECT_EQ(records[0].value, 10);
  EXPECT_EQ(records[1].value, -20);
  EXPECT_EQ(records[2].type, WalRecord::Type::kConfig);
  EXPECT_EQ(records[2].generation, 3u);
  EXPECT_EQ(records[2].config_id, 1u);
}

TEST(Wal, MissingFileIsEmptyLog) {
  Wal::ReplayResult result;
  EXPECT_TRUE(ReplayAll("does_not_exist.log", &result).empty());
  EXPECT_FALSE(result.torn_tail);
  EXPECT_EQ(result.valid_bytes, 0u);
}

TEST(Wal, AppendsPersistAcrossReopen) {
  ScratchDir dir("wal_reopen");
  const std::string path = dir.path + "/wal.log";
  {
    Wal wal(path, {});
    wal.Append(Write("a", 1, 1));
  }
  {
    Wal wal(path, {});
    wal.Append(Write("b", 2, 2));
  }
  EXPECT_EQ(ReplayAll(path).size(), 2u);
}

TEST(Wal, BatchAppendFramesIdenticallyToSingleAppends) {
  ScratchDir dir("wal_batch");
  const std::string batch_path = dir.path + "/batch.log";
  const std::string single_path = dir.path + "/single.log";
  const std::vector<WalRecord> records = {
      Write("alpha", 1, 10), Write("beta", 1, 20), Write("alpha", 2, 30)};
  {
    Wal wal(batch_path, {});
    wal.AppendBatch(records);
    EXPECT_EQ(wal.RecordsAppended(), 3u);
  }
  {
    Wal wal(single_path, {});
    for (const WalRecord& r : records) wal.Append(r);
  }
  // Replay cannot tell a batch append from repeated single appends: the
  // byte streams are identical.
  std::ifstream a(batch_path, std::ios::binary), b(single_path,
                                                   std::ios::binary);
  const std::string bytes_a{std::istreambuf_iterator<char>(a), {}};
  const std::string bytes_b{std::istreambuf_iterator<char>(b), {}};
  EXPECT_EQ(bytes_a, bytes_b);
  const std::vector<WalRecord> replayed = ReplayAll(batch_path);
  ASSERT_EQ(replayed.size(), 3u);
  EXPECT_EQ(replayed[2].key, "alpha");
  EXPECT_EQ(replayed[2].version, 2u);
  EXPECT_EQ(replayed[2].value, 30);
}

TEST(Wal, BatchAppendSyncsOncePerBatchUnderAlways) {
  ScratchDir dir("wal_batch_sync");
  Wal wal(dir.path + "/wal.log", {FsyncPolicy::kAlways, {}});
  wal.AppendBatch({Write("a", 1, 1), Write("b", 1, 2), Write("c", 1, 3)});
  // The batch is the commit unit: one fsync covers all three records, so
  // an ack sent after AppendBatch still implies durability of every one.
  EXPECT_EQ(wal.Fsyncs(), 1u);
  wal.AppendBatch({Write("a", 2, 4)});
  EXPECT_EQ(wal.Fsyncs(), 2u);
}

TEST(Wal, TornBatchTailRecoversFrameAlignedPrefix) {
  ScratchDir dir("wal_torn_batch");
  const std::string path = dir.path + "/wal.log";
  std::uint64_t size_after_two = 0, full_size = 0;
  {
    Wal wal(path, {});
    wal.AppendBatch({Write("a", 1, 1), Write("b", 1, 2)});
    size_after_two = wal.SizeBytes();
    wal.AppendBatch({Write("a", 2, 3), Write("b", 2, 4)});
    full_size = wal.SizeBytes();
  }
  // Crash mid-batch: the second batch's write(2) was cut partway through
  // its final frame. Recovery must yield a frame-aligned prefix — the
  // whole first batch plus the intact leading frames of the second, never
  // a half-applied record.
  fs::resize_file(path, full_size - 5);
  Wal::ReplayResult result;
  const std::vector<WalRecord> records = ReplayAll(path, &result);
  ASSERT_EQ(records.size(), 3u);
  EXPECT_EQ(records[2].key, "a");
  EXPECT_EQ(records[2].version, 2u);
  EXPECT_TRUE(result.torn_tail);
  EXPECT_GE(result.valid_bytes, size_after_two);
}

TEST(Wal, TornFinalRecordDiscardedByCrc) {
  ScratchDir dir("wal_torn");
  const std::string path = dir.path + "/wal.log";
  std::uint64_t full_size = 0;
  {
    Wal wal(path, {});
    wal.Append(Write("a", 1, 1));
    wal.Append(Write("b", 2, 2));
    full_size = wal.SizeBytes();
  }
  // Chop bytes off the final frame: a crash mid-append.
  fs::resize_file(path, full_size - 3);
  Wal::ReplayResult result;
  const std::vector<WalRecord> records = ReplayAll(path, &result);
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].key, "a");
  EXPECT_TRUE(result.torn_tail);
  EXPECT_LT(result.valid_bytes, full_size - 3);
}

TEST(Wal, CorruptedPayloadByteDiscardedByCrc) {
  ScratchDir dir("wal_corrupt");
  const std::string path = dir.path + "/wal.log";
  std::uint64_t first_end = 0;
  {
    Wal wal(path, {});
    wal.Append(Write("a", 1, 1));
    first_end = wal.SizeBytes();
    wal.Append(Write("b", 2, 2));
  }
  {
    // Flip one byte inside the second record's payload.
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    f.seekg(static_cast<std::streamoff>(first_end) + 10);
    char c = 0;
    f.get(c);
    f.seekp(static_cast<std::streamoff>(first_end) + 10);
    f.put(static_cast<char>(c ^ 0x5A));
  }
  Wal::ReplayResult result;
  const std::vector<WalRecord> records = ReplayAll(path, &result);
  ASSERT_EQ(records.size(), 1u);
  EXPECT_TRUE(result.torn_tail);
}

TEST(Wal, TruncateToCutsTailAndAllowsAppend) {
  ScratchDir dir("wal_truncate");
  const std::string path = dir.path + "/wal.log";
  std::uint64_t first_end = 0;
  {
    Wal wal(path, {});
    wal.Append(Write("a", 1, 1));
    first_end = wal.SizeBytes();
    wal.Append(Write("b", 2, 2));
  }
  {
    Wal wal(path, {});
    wal.TruncateTo(first_end);
    wal.Append(Write("c", 3, 3));
  }
  const std::vector<WalRecord> records = ReplayAll(path);
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[0].key, "a");
  EXPECT_EQ(records[1].key, "c");
}

TEST(Wal, FsyncPolicyAlwaysSyncsEveryRecord) {
  ScratchDir dir("wal_fsync_always");
  Wal wal(dir.path + "/wal.log", {FsyncPolicy::kAlways, 0us});
  for (int i = 0; i < 5; ++i) wal.Append(Write("k", i + 1, i));
  EXPECT_EQ(wal.Fsyncs(), 5u);
}

TEST(Wal, FsyncPolicyNeverNeverSyncs) {
  ScratchDir dir("wal_fsync_never");
  Wal wal(dir.path + "/wal.log", {FsyncPolicy::kNever, 0us});
  for (int i = 0; i < 5; ++i) wal.Append(Write("k", i + 1, i));
  EXPECT_EQ(wal.Fsyncs(), 0u);
  // But an explicit Sync still lands.
  wal.Sync();
  EXPECT_EQ(wal.Fsyncs(), 1u);
}

TEST(Wal, GroupCommitBatchesWithinWindow) {
  ScratchDir dir("wal_fsync_group");
  // An hour-long window: nothing inside the test can expire it.
  Wal wal(dir.path + "/wal.log", {FsyncPolicy::kGroupCommit, 3600s});
  for (int i = 0; i < 100; ++i) wal.Append(Write("k", i + 1, i));
  EXPECT_EQ(wal.Fsyncs(), 0u);
  wal.Sync();  // one fsync covers the whole batch
  EXPECT_EQ(wal.Fsyncs(), 1u);
  // A zero-length window degenerates to always.
  Wal eager(dir.path + "/wal2.log", {FsyncPolicy::kGroupCommit, 0us});
  for (int i = 0; i < 5; ++i) eager.Append(Write("k", i + 1, i));
  EXPECT_EQ(eager.Fsyncs(), 5u);
}

// Recovery composes the checkpoint chain with the WAL tail. Each case lays
// a replica directory down by hand — checkpoint ckpt_1, segment
// seg_2, and the MANIFEST naming them — then recovers it through the
// durable backend.

std::string SegmentPath(const std::string& dir, std::uint64_t id) {
  return Manifest::SegmentPath(dir, id);
}

/// Writes `image` as checkpoint `id` of `dir`'s chain.
void WriteCheckpointFile(const std::string& dir, std::uint64_t id,
                         const Image& image) {
  std::map<std::string, Versioned> sorted(image.data.begin(),
                                          image.data.end());
  CheckpointWriter writer(Manifest::CheckpointPath(dir, id),
                          sorted.size());
  for (const auto& [key, v] : sorted) writer.Add(key, v);
  writer.Finish(image.generation, image.config_id);
}

/// Commits a chain of the given checkpoint and segment ids.
void CommitChain(const std::string& dir, std::vector<std::uint64_t> ckpts,
                 std::vector<std::uint64_t> segs) {
  ChainFiles files;
  files.present = true;
  files.next_file_id = 3;
  files.checkpoints = std::move(ckpts);
  files.segments = std::move(segs);
  Manifest(dir).Update(files);
}

struct Recovered {
  Image image;
  StorageStats stats;
};

Recovered RecoverDir(const std::string& dir) {
  auto backend = MakeDurableBackend(dir, {});
  Recovered r;
  r.image = backend->Recover();
  r.stats = backend->Stats();
  return r;
}

TEST(Recovery, EmptyDirectoryYieldsEmptyImage) {
  ScratchDir dir("rec_empty");
  const Recovered r = RecoverDir(dir.path);
  EXPECT_TRUE(r.image.data.empty());
  EXPECT_EQ(r.image.generation, 0u);
  EXPECT_EQ(r.stats.recovery_replayed, 0u);
}

TEST(Recovery, LogOnly) {
  ScratchDir dir("rec_log");
  fs::create_directories(Manifest::ChainDirPath(dir.path));
  {
    Wal wal(SegmentPath(dir.path, 2), {});
    wal.Append(Write("x", 1, 10));
    wal.Append(Write("x", 2, 20));
    wal.Append(Config(1, 1));
  }
  CommitChain(dir.path, {}, {2});
  const Recovered r = RecoverDir(dir.path);
  EXPECT_EQ(r.stats.recovery_replayed, 3u);
  EXPECT_EQ(r.image.data.at("x").version, 2u);
  EXPECT_EQ(r.image.data.at("x").value, 20);
  EXPECT_EQ(r.image.generation, 1u);
  EXPECT_EQ(r.image.config_id, 1u);
}

TEST(Recovery, SnapshotOnly) {
  ScratchDir dir("rec_snap");
  fs::create_directories(Manifest::ChainDirPath(dir.path));
  Image image;
  image.generation = 4;
  image.config_id = 1;
  image.data["x"] = {9, 90};
  WriteCheckpointFile(dir.path, 1, image);
  CommitChain(dir.path, {1}, {});
  const Recovered r = RecoverDir(dir.path);
  EXPECT_EQ(r.stats.recovery_replayed, 0u);
  EXPECT_EQ(r.image.data.at("x").version, 9u);
  EXPECT_EQ(r.image.generation, 4u);
  EXPECT_EQ(r.image.config_id, 1u);
}

TEST(Recovery, SnapshotPlusLogTail) {
  ScratchDir dir("rec_snap_tail");
  fs::create_directories(Manifest::ChainDirPath(dir.path));
  Image image;
  image.data["x"] = {5, 50};
  WriteCheckpointFile(dir.path, 1, image);
  {
    Wal wal(SegmentPath(dir.path, 2), {});
    // One record the checkpoint already covers (idempotent overlap) and
    // two genuinely newer ones.
    wal.Append(Write("x", 5, 50));
    wal.Append(Write("x", 6, 60));
    wal.Append(Write("y", 1, 11));
  }
  CommitChain(dir.path, {1}, {2});
  const Recovered r = RecoverDir(dir.path);
  EXPECT_EQ(r.stats.recovery_replayed, 3u);
  EXPECT_EQ(r.image.data.at("x").version, 6u);
  EXPECT_EQ(r.image.data.at("x").value, 60);
  EXPECT_EQ(r.image.data.at("y").value, 11);
}

TEST(Recovery, TornLogTailIgnored) {
  ScratchDir dir("rec_torn");
  fs::create_directories(Manifest::ChainDirPath(dir.path));
  const std::string wal_path = SegmentPath(dir.path, 2);
  std::uint64_t full_size = 0;
  {
    Wal wal(wal_path, {});
    wal.Append(Write("x", 1, 10));
    wal.Append(Write("y", 1, 20));
    full_size = wal.SizeBytes();
  }
  fs::resize_file(wal_path, full_size - 1);
  CommitChain(dir.path, {}, {2});
  const Recovered r = RecoverDir(dir.path);
  EXPECT_EQ(r.stats.torn_tails_discarded, 1u);
  EXPECT_EQ(r.stats.recovery_replayed, 1u);
  EXPECT_EQ(r.image.data.at("x").value, 10);
  EXPECT_EQ(r.image.data.count("y"), 0u);
}

TEST(Recovery, StaleLogOverNewerSnapshotIsHarmless) {
  // Tail records older than what the checkpoint chain holds replay over
  // it; the newer-version-wins merge makes them a no-op, not a rollback.
  ScratchDir dir("rec_stale_log");
  fs::create_directories(Manifest::ChainDirPath(dir.path));
  {
    Wal wal(SegmentPath(dir.path, 2), {});
    wal.Append(Write("x", 1, 10));
    wal.Append(Write("x", 2, 20));
  }
  Image newer;
  newer.data["x"] = {3, 30};
  WriteCheckpointFile(dir.path, 1, newer);
  CommitChain(dir.path, {1}, {2});
  const Recovered r = RecoverDir(dir.path);
  EXPECT_EQ(r.image.data.at("x").version, 3u);
  EXPECT_EQ(r.image.data.at("x").value, 30);
}

}  // namespace
}  // namespace qcnt::storage
