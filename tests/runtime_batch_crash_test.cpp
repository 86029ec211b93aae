// Crash-during-batch under the durable backend: a replica that fail-stops
// while batched writes stream at it must recover exactly a *prefix* of
// each item's write sequence — no torn interleavings (a version present
// implies every earlier version of that item was applied here first), no
// invented state, and no acked-but-lost writes (anything the quorum acked
// survives a minority crash because the surviving quorum members carry
// it — Lemma 8 under real state loss, batched edition).
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <map>

#include "runtime/store.hpp"
#include "storage/crc32.hpp"
#include "storage/io_util.hpp"
#include "storage/manifest.hpp"
#include "storage/recovery.hpp"
#include "storage/wal.hpp"

namespace qcnt::runtime {
namespace {

namespace fs = std::filesystem;
using namespace std::chrono_literals;

struct ScratchDir {
  explicit ScratchDir(const std::string& tag)
      : path((fs::path("runtime_batch_crash_scratch") / tag).string()) {
    fs::remove_all(path);
    fs::create_directories(path);
  }
  ~ScratchDir() { fs::remove_all(path); }
  std::string path;
};

TEST(BatchCrash, RecoveryYieldsPerItemPrefixOfTheBatchStream) {
  ScratchDir scratch("prefix");
  constexpr std::size_t kReplicas = 3;
  constexpr std::size_t kOps = 300;
  constexpr std::size_t kCrashAt = 150;
  const std::vector<std::string> keys = {"a", "b", "c", "d"};

  StoreOptions options;
  options.replicas = kReplicas;
  options.durability = storage::DurabilityOptions{
      .directory = scratch.path,
      .fsync = storage::FsyncPolicy::kAlways,
      .group_commit_window = 500us,
      .checkpoint_tail_bytes = 64u << 20,  // never checkpoint mid-test
      .segment_bytes = 64u << 20,          // ... and never rotate
  };
  ReplicatedStore store(std::move(options));
  auto client = store.MakeAsyncClient(
      ClientOptions{
          .window = 32, .max_batch = 16,
          // The test audits one replica's WAL stream, so every write
          // must reach every replica — disable minimal-quorum targeting.
          .target_minimal = false});

  // value written at version v of key k is Payload(k, v): recovered state
  // can be validated without any side table.
  const auto payload = [&](std::size_t key_idx, std::uint64_t version) {
    return static_cast<std::int64_t>(key_idx * 1'000'000 + version);
  };

  std::map<std::string, std::uint64_t> writes_per_key;
  std::vector<OpFuture> futures;
  for (std::size_t i = 0; i < kOps; ++i) {
    const std::size_t key_idx = i % keys.size();
    const std::string& key = keys[key_idx];
    const std::uint64_t version = ++writes_per_key[key];
    futures.push_back(
        client->SubmitWrite(key, payload(key_idx, version)));
    if (i == kCrashAt) {
      // Mid-stream, mid-pipeline: batches are queued at and being applied
      // by replica 2 right now. Fail-stop it — the mailbox backlog dies,
      // volatile state is wiped, only its WAL survives.
      store.Crash(2);
    }
  }
  // The surviving majority {0, 1} acks everything.
  ASSERT_TRUE(client->Drain());
  for (auto& f : futures) ASSERT_TRUE(f.Get().ok);

  store.Recover(2);

  // 1. The recovered replica's WAL is, per item, a gapless prefix of the
  //    submitted write sequence: versions 1..k in order, correct payloads,
  //    nothing interleaved out of order and nothing past the crash point
  //    it could not have applied.
  std::map<std::string, std::uint64_t> last_version;
  // No rotation or checkpoint at these thresholds: the replica's whole
  // stream is its first segment (file id 1).
  const std::string wal_path =
      storage::Manifest::SegmentPath(scratch.path + "/replica_2", 1);
  std::uint64_t replayed = 0;
  storage::Wal::Replay(wal_path, [&](const storage::WalRecord& rec) {
    ASSERT_EQ(rec.type, storage::WalRecord::Type::kWrite);
    const std::uint64_t expect = last_version[rec.key] + 1;
    ASSERT_EQ(rec.version, expect)
        << "torn interleaving: key " << rec.key << " jumped to version "
        << rec.version;
    const auto key_idx = static_cast<std::size_t>(
        std::find(keys.begin(), keys.end(), rec.key) - keys.begin());
    ASSERT_LT(key_idx, keys.size());
    ASSERT_EQ(rec.value, payload(key_idx, rec.version));
    ASSERT_LE(rec.version, writes_per_key[rec.key]);
    last_version[rec.key] = rec.version;
    ++replayed;
  });
  ASSERT_GT(replayed, 0u);  // the crash did not pre-date every batch
  ASSERT_LT(replayed, kOps);  // ... and genuinely cut the stream short

  // 2. The recovered image matches the WAL prefix exactly.
  const ReplicaSnapshot snap = store.ReplicaPeek(2);
  for (std::size_t k = 0; k < keys.size(); ++k) {
    const auto it = snap.image.data.find(keys[k]);
    const storage::Versioned v =
        it == snap.image.data.end() ? storage::Versioned{} : it->second;
    EXPECT_EQ(v.version, last_version[keys[k]]);
    if (v.version > 0) EXPECT_EQ(v.value, payload(k, v.version));
  }

  // 3. No acked-but-lost writes: quorum reads still return every item's
  //    final acked value even though replica 2 lost its tail.
  auto reader = store.MakeClient();
  for (std::size_t k = 0; k < keys.size(); ++k) {
    const ClientResult r = reader->Read(keys[k]);
    ASSERT_TRUE(r.ok);
    EXPECT_EQ(r.version, writes_per_key[keys[k]]);
    EXPECT_EQ(r.value, payload(k, writes_per_key[keys[k]]));
  }

  // The stream really went through the batch path: multi-record appends
  // reached the durable layer on the survivors.
  EXPECT_GT(store.ReplicaStorageStats(0).batch_appends, 0u);
}

// The prefix property across the whole engine: thresholds small enough
// that the crash lands in a chain that rotates, checkpoints and merges in
// slices between batches. Whatever the crash cut off — a half-written
// checkpoint, an open merge — the recovered replica holds, per item, a
// version no newer than the last one written, the offline rebuild agrees
// with it, and quorum reads still return every acked value.
TEST(BatchCrash, CheckpointedRecoveryYieldsPerItemPrefix) {
  ScratchDir scratch("checkpointed_prefix");
  constexpr std::size_t kReplicas = 3;
  constexpr std::size_t kOps = 1200;
  constexpr std::size_t kCrashAt = 700;
  std::vector<std::string> keys;
  for (int i = 0; i < 64; ++i) keys.push_back("key" + std::to_string(i));

  StoreOptions options;
  options.replicas = kReplicas;
  options.durability = storage::DurabilityOptions{
      .directory = scratch.path,
      .fsync = storage::FsyncPolicy::kAlways,
      .group_commit_window = 500us,
      .checkpoint_tail_bytes = 1024,
      .segment_bytes = 512,
      .max_checkpoints = 3,
  };
  ReplicatedStore store(std::move(options));
  auto client = store.MakeAsyncClient(
      ClientOptions{.window = 32, .max_batch = 16, .target_minimal = false});

  const auto payload = [&](std::size_t key_idx, std::uint64_t version) {
    return static_cast<std::int64_t>(key_idx * 1'000'000 + version);
  };

  std::map<std::string, std::uint64_t> writes_per_key;
  std::vector<OpFuture> futures;
  for (std::size_t i = 0; i < kOps; ++i) {
    const std::size_t key_idx = i % keys.size();
    const std::string& key = keys[key_idx];
    const std::uint64_t version = ++writes_per_key[key];
    futures.push_back(client->SubmitWrite(key, payload(key_idx, version)));
    if (i == kCrashAt) store.Crash(2);
  }
  ASSERT_TRUE(client->Drain());
  for (auto& f : futures) ASSERT_TRUE(f.Get().ok);

  store.Recover(2);
  const storage::StorageStats stats = store.ReplicaStorageStats(2);
  EXPECT_GT(stats.checkpoints_written, 0u);
  EXPECT_GT(stats.checkpoint_merges, 0u);

  // 1. The offline rebuild of the recovered directory holds, per item, a
  //    payload-consistent version no newer than the last one written.
  const std::string replica_dir = scratch.path + "/replica_2";
  const auto rebuilt = storage::RecoveryManager(replica_dir).RecoverReplica();
  ASSERT_TRUE(rebuilt.ok) << rebuilt.error;

  // 2. The live recovered replica serves exactly that state.
  const ReplicaSnapshot snap = store.ReplicaPeek(2);
  for (std::size_t k = 0; k < keys.size(); ++k) {
    const auto it = snap.image.data.find(keys[k]);
    const storage::Versioned v =
        it == snap.image.data.end() ? storage::Versioned{} : it->second;
    EXPECT_LE(v.version, writes_per_key[keys[k]]) << keys[k];
    if (v.version > 0) EXPECT_EQ(v.value, payload(k, v.version));
    const auto rt = rebuilt.image.data.find(keys[k]);
    const storage::Versioned rv =
        rt == rebuilt.image.data.end() ? storage::Versioned{} : rt->second;
    EXPECT_EQ(rv.version, v.version) << keys[k];
    EXPECT_EQ(rv.value, v.value) << keys[k];
  }

  // 3. Quorum reads still return every acked value.
  auto reader = store.MakeClient();
  for (std::size_t k = 0; k < keys.size(); ++k) {
    const ClientResult r = reader->Read(keys[k]);
    ASSERT_TRUE(r.ok);
    EXPECT_EQ(r.version, writes_per_key[keys[k]]);
    EXPECT_EQ(r.value, payload(k, writes_per_key[keys[k]]));
  }
}

// A WAL segment that disappears while the replica is down must fail
// recovery loudly — both through RecoverReplica and through the store's
// own Recover path, with a typed error naming the file — never silently
// resurrect a subset of acked state. The replica stays down.
TEST(BatchCrash, MissingShardSegmentIsRejectedNotSilentlyDropped) {
  ScratchDir scratch("missing_segment");
  StoreOptions options;
  options.replicas = 3;
  options.durability = storage::DurabilityOptions{
      .directory = scratch.path,
      .fsync = storage::FsyncPolicy::kAlways,
  };
  ReplicatedStore store(std::move(options));
  auto client = store.MakeAsyncClient();
  for (int i = 0; i < 32; ++i) {
    client->SubmitWrite("key" + std::to_string(i % 8), i);
  }
  ASSERT_TRUE(client->Drain());

  store.Crash(2);
  const std::string replica_dir = scratch.path + "/replica_2";
  fs::remove(storage::Manifest::SegmentPath(replica_dir, 1));

  const auto merged =
      storage::RecoveryManager(replica_dir).RecoverReplica();
  EXPECT_FALSE(merged.ok);
  EXPECT_NE(merged.error.find("shard_0/seg_1.log"), std::string::npos)
      << merged.error;
  try {
    store.Recover(2);
    FAIL() << "recovered without a segment the MANIFEST names";
  } catch (const storage::LayoutError& e) {
    EXPECT_NE(std::string(e.what()).find("shard_0/seg_1.log"),
              std::string::npos)
        << e.what();
  }
  EXPECT_FALSE(store.IsUp(2));
}

// A corrupt manifest is equally fatal: without a trustworthy file list
// the segment set cannot be proven complete. So is a format-version-1
// MANIFEST (the pre-v2 engine's), which names no files at all.
TEST(BatchCrash, CorruptManifestIsRejected) {
  ScratchDir scratch("corrupt_manifest");
  StoreOptions options;
  options.replicas = 1;
  options.durability =
      storage::DurabilityOptions{.directory = scratch.path};
  {
    ReplicatedStore store(options);
    auto client = store.MakeClient();
    ASSERT_TRUE(client->Write("x", 1).ok);
  }
  const std::string replica_dir = scratch.path + "/replica_0";
  {
    std::ofstream out(storage::RecoveryManager::ManifestPath(replica_dir),
                      std::ios::binary | std::ios::trunc);
    out << "garbage";
  }
  EXPECT_FALSE(storage::RecoveryManager(replica_dir).RecoverReplica().ok);
  EXPECT_THROW(ReplicatedStore{options}, storage::LayoutError);

  std::vector<unsigned char> payload;
  storage::PutU32(payload, 1);  // format version 1
  storage::PutU32(payload, 2);  // stripe count
  std::vector<unsigned char> v1 = {'Q', 'M', 'A', 'N'};
  v1.insert(v1.end(), payload.begin(), payload.end());
  storage::PutU32(v1, storage::Crc32(payload.data(), payload.size()));
  {
    std::ofstream out(storage::RecoveryManager::ManifestPath(replica_dir),
                      std::ios::binary | std::ios::trunc);
    out.write(reinterpret_cast<const char*>(v1.data()),
              static_cast<std::streamsize>(v1.size()));
  }
  EXPECT_THROW(ReplicatedStore{std::move(options)}, storage::LayoutError);
}

/// Write `payload` as `dir`/MANIFEST: magic, payload, CRC.
void WriteRawManifest(const std::string& dir,
                      const std::vector<unsigned char>& payload) {
  std::vector<unsigned char> file = {'Q', 'M', 'A', 'N'};
  file.insert(file.end(), payload.begin(), payload.end());
  storage::PutU32(file, storage::Crc32(payload.data(), payload.size()));
  std::ofstream out(storage::RecoveryManager::ManifestPath(dir),
                    std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(file.data()),
            static_cast<std::streamsize>(file.size()));
}

// A directory a replica striped over several shards (as a store
// configured with four shards per replica once wrote it) cannot be
// opened by the one-chain engine without orphaning three of them: the
// store constructor refuses it with a typed error naming the MANIFEST
// and both counts.
TEST(BatchCrash, ShardCountChangeIsRejected) {
  ScratchDir scratch("count_change");
  const std::string replica_dir = scratch.path + "/replica_0";
  fs::create_directories(replica_dir);
  std::vector<unsigned char> payload;
  storage::PutU32(payload, 2);  // format version
  storage::PutU32(payload, 4);  // shard count
  for (int s = 0; s < 4; ++s) {
    payload.push_back(1);  // present
    storage::PutU64(payload, 2);  // next file id
    storage::PutU32(payload, 1);  // one segment ...
    storage::PutU64(payload, 1);  // ... seg_1.log
    storage::PutU32(payload, 0);  // no checkpoints
  }
  WriteRawManifest(replica_dir, payload);

  StoreOptions options;
  options.replicas = 1;
  options.durability =
      storage::DurabilityOptions{.directory = scratch.path};
  try {
    ReplicatedStore store(std::move(options));
    FAIL() << "a 4-shard directory opened as one chain";
  } catch (const storage::LayoutError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find(storage::RecoveryManager::ManifestPath(replica_dir)),
              std::string::npos)
        << what;
    EXPECT_NE(what.find("manifest has 4 shards, this engine keeps 1"),
              std::string::npos)
        << what;
  }
  EXPECT_FALSE(storage::RecoveryManager(replica_dir).RecoverReplica().ok);
}

// The one-chain engine keeps the v2 encoding (a table of one) and the
// `shard_0/` paths, so a directory written by the default one-shard
// layout opens as it is. Laid down byte for byte as that layout wrote
// it: MANIFEST v2 with one present entry naming `shard_0/seg_1.log`.
TEST(BatchCrash, DefaultLayoutDirectoryOpensAsIs) {
  ScratchDir scratch("default_layout");
  const std::string replica_dir = scratch.path + "/replica_0";
  fs::create_directories(replica_dir + "/shard_0");
  {
    storage::Wal wal(replica_dir + "/shard_0/seg_1.log", {});
    for (int i = 0; i < 8; ++i) {
      storage::WalRecord rec;
      rec.key = "key" + std::to_string(i);
      rec.version = 3;
      rec.value = 100 + i;
      wal.Append(rec);
    }
  }
  std::vector<unsigned char> payload;
  storage::PutU32(payload, 2);  // format version
  storage::PutU32(payload, 1);  // one shard
  payload.push_back(1);         // present
  storage::PutU64(payload, 2);  // next file id
  storage::PutU32(payload, 1);  // one segment ...
  storage::PutU64(payload, 1);  // ... seg_1.log
  storage::PutU32(payload, 0);  // no checkpoints
  WriteRawManifest(replica_dir, payload);

  StoreOptions options;
  options.replicas = 1;
  options.durability =
      storage::DurabilityOptions{.directory = scratch.path};
  ReplicatedStore store(std::move(options));
  EXPECT_EQ(store.ReplicaStorageStats(0).recovery_replayed, 8u);
  auto client = store.MakeClient();
  for (int i = 0; i < 8; ++i) {
    const ClientResult r = client->Read("key" + std::to_string(i));
    ASSERT_TRUE(r.ok) << i;
    EXPECT_EQ(r.version, 3u) << i;
    EXPECT_EQ(r.value, 100 + i) << i;
  }
}

// A torn tail on the active segment is a normal crash artifact, not
// corruption: recovery truncates the torn record, reports it, and keeps
// every record before it.
TEST(BatchCrash, TornSegmentTailIsTruncatedAndReported) {
  ScratchDir scratch("torn_segment");
  StoreOptions options;
  options.replicas = 1;
  options.durability =
      storage::DurabilityOptions{.directory = scratch.path};
  const std::string key_a = "key_a";
  const std::string key_b = "key_b";
  {
    ReplicatedStore store(options);
    auto client = store.MakeClient();
    ASSERT_TRUE(client->Write(key_a, 10).ok);
    ASSERT_TRUE(client->Write(key_b, 20).ok);
    ASSERT_TRUE(client->Write(key_b, 21).ok);
  }
  const std::string replica_dir = scratch.path + "/replica_0";
  const std::string torn =
      storage::Manifest::SegmentPath(replica_dir, 1);
  fs::resize_file(torn, fs::file_size(torn) - 2);

  const auto merged =
      storage::RecoveryManager(replica_dir).RecoverReplica();
  ASSERT_TRUE(merged.ok) << merged.error;
  EXPECT_EQ(merged.torn_segments, 1u);
  // Only the torn final record is lost.
  EXPECT_EQ(merged.image.data.at(key_a).value, 10);
  EXPECT_EQ(merged.image.data.at(key_b).value, 20);

  ReplicatedStore store(std::move(options));
  EXPECT_EQ(store.ReplicaStorageStats(0).torn_tails_discarded, 1u);
}

TEST(BatchCrash, CrashBeforeAnyBatchRecoversEmpty) {
  ScratchDir scratch("empty");
  StoreOptions options;
  options.replicas = 3;
  options.durability = storage::DurabilityOptions{
      .directory = scratch.path,
      .fsync = storage::FsyncPolicy::kAlways,
  };
  ReplicatedStore store(std::move(options));
  store.Crash(2);
  auto client = store.MakeAsyncClient();
  for (int i = 1; i <= 8; ++i) client->SubmitWrite("k", i);
  ASSERT_TRUE(client->Drain());
  store.Recover(2);
  const ReplicaSnapshot snap = store.ReplicaPeek(2);
  EXPECT_TRUE(snap.image.data.empty());
  // ... and the recovered replica heals through the normal quorum path.
  auto reader = store.MakeClient();
  EXPECT_EQ(reader->Read("k").value, 8);
}

}  // namespace
}  // namespace qcnt::runtime
