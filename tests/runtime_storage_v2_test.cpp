// Store-level coverage for the v2 storage engine: spill-mode cold reads
// through the full quorum path, Peek overlaying the checkpoint chain,
// O(tail) crash recovery, and group-commit counters across crashes.
#include <gtest/gtest.h>

#include <filesystem>
#include <set>
#include <string>
#include <thread>

#include "runtime/store.hpp"

namespace qcnt::runtime {
namespace {

namespace fs = std::filesystem;
using namespace std::chrono_literals;

struct ScratchDir {
  explicit ScratchDir(const std::string& tag)
      : path((fs::path("runtime_storage_v2_scratch") / tag).string()) {
    fs::remove_all(path);
    fs::create_directories(path);
  }
  ~ScratchDir() { fs::remove_all(path); }
  std::string path;
};

std::string Pk(int i) {
  char buf[16];
  std::snprintf(buf, sizeof buf, "key_%04d", i);
  return buf;
}

StoreOptions SpillOptions(const std::string& dir) {
  StoreOptions options;
  options.replicas = 3;
  storage::DurabilityOptions durability;
  durability.directory = dir;
  durability.fsync = storage::FsyncPolicy::kAlways;
  durability.checkpoint_tail_bytes = 1024;  // checkpoint early and often
  durability.segment_bytes = 512;
  durability.spill_cold_reads = true;
  options.durability = durability;
  // The Peek test below audits every replica's full image, which
  // presumes writes reach all 3 replicas — full fan-out, not a minimal
  // write quorum (benign for the quorum-reads sibling test).
  options.client_options.target_minimal = false;
  return options;
}

constexpr int kKeys = 200;

TEST(StorageV2Store, SpillModeServesQuorumReadsFromColdState) {
  ScratchDir dir("spill_reads");
  ReplicatedStore store(SpillOptions(dir.path));
  auto client = store.MakeClient();
  for (int i = 0; i < kKeys; ++i) {
    ASSERT_TRUE(client->Write(Pk(i), 10 * i).ok) << Pk(i);
  }

  const storage::StorageStats total = store.TotalStorageStats();
  EXPECT_GE(total.checkpoints_written, 3u);  // eviction actually happened

  // Every acked write reads back through the quorum even though most
  // keys were evicted from the replicas' in-memory maps; the replicas
  // answer from the checkpoint chain via Backend::Lookup.
  for (int i = 0; i < kKeys; ++i) {
    const ClientResult r = client->Read(Pk(i));
    ASSERT_TRUE(r.ok) << Pk(i);
    EXPECT_EQ(r.value, 10 * i) << Pk(i);
  }
  EXPECT_GT(store.TotalStorageStats().cold_lookups, 0u);
}

TEST(StorageV2Store, PeekOverlaysCheckpointChainInSpillMode) {
  ScratchDir dir("spill_peek");
  ReplicatedStore store(SpillOptions(dir.path));
  auto client = store.MakeClient();
  for (int i = 0; i < kKeys; ++i) {
    ASSERT_TRUE(client->Write(Pk(i), i).ok);
  }
  // Peek must present the full logical map (image + cold overlay) or
  // every divergence audit in the test suite would go blind under spill.
  for (std::size_t r = 0; r < 3; ++r) {
    const ReplicaSnapshot snap = store.ReplicaPeek(r);
    ASSERT_EQ(snap.image.data.size(), static_cast<std::size_t>(kKeys))
        << "replica " << r;
    for (int i = 0; i < kKeys; ++i) {
      EXPECT_EQ(snap.image.data.at(Pk(i)).value, i);
    }
    EXPECT_GE(snap.storage.checkpoints_written, 1u) << "replica " << r;
  }
}

TEST(StorageV2Store, SpillCrashRecoveryIsTailBoundedAndLossless) {
  ScratchDir dir("spill_crash");
  ReplicatedStore store(SpillOptions(dir.path));
  auto client = store.MakeClient();
  for (int i = 0; i < kKeys; ++i) {
    ASSERT_TRUE(client->Write(Pk(i), i).ok);
  }

  store.Crash(2);
  ASSERT_TRUE(client->Write("while-down", 777).ok);  // replica 2 misses it
  store.Recover(2);

  const storage::StorageStats stats = store.ReplicaStorageStats(2);
  EXPECT_GE(stats.recoveries, 2u);  // initial open + this recovery
  // O(tail): the restart replays the un-checkpointed segment records,
  // not the 200-key history (kAlways + 1 KiB tail ≈ a few dozen).
  EXPECT_LT(stats.recovery_replayed, static_cast<std::uint64_t>(kKeys));

  // Force read quorums through the recovered replica.
  store.Crash(0);
  for (int i = 0; i < kKeys; i += 17) {
    const ClientResult r = client->Read(Pk(i));
    ASSERT_TRUE(r.ok);
    EXPECT_EQ(r.value, i);
  }
  EXPECT_EQ(client->Read("while-down").value, 777);
}

TEST(StorageV2Store, FullRestartRecoversSpilledStateFromDisk) {
  ScratchDir dir("spill_restart");
  {
    ReplicatedStore store(SpillOptions(dir.path));
    auto client = store.MakeClient();
    for (int i = 0; i < kKeys; ++i) {
      ASSERT_TRUE(client->Write(Pk(i), 5 * i).ok);
    }
  }
  // Process restart: a fresh store over the same directory serves the
  // whole keyspace, mostly from cold checkpoint blocks.
  ReplicatedStore reborn(SpillOptions(dir.path));
  auto client = reborn.MakeClient();
  for (int i = 0; i < kKeys; i += 7) {
    const ClientResult r = client->Read(Pk(i));
    ASSERT_TRUE(r.ok) << Pk(i);
    EXPECT_EQ(r.value, 5 * i);
  }
}

/// Poll until replica `r`'s commit-pass count exceeds `floor`.
std::uint64_t WaitForPassAbove(const ReplicatedStore& store, std::size_t r,
                               std::uint64_t floor) {
  const auto deadline = std::chrono::steady_clock::now() + 5s;
  while (store.ReplicaCommitPasses(r) <= floor &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(1ms);
  }
  return store.ReplicaCommitPasses(r);
}

// The commit-pass count is the storage engine's own and outlives a
// crash, like the fsync count: across Crash/Recover it never goes
// backwards, and every round's writes earn a pass of their own.
TEST(StorageV2Store, CommitPassesNeverDecreaseAcrossCrashRecover) {
  ScratchDir dir("gc_passes");
  StoreOptions options;
  options.replicas = 3;
  storage::DurabilityOptions durability;
  durability.directory = dir.path;
  durability.fsync = storage::FsyncPolicy::kGroupCommit;
  durability.group_commit_window = 200us;
  options.durability = durability;
  options.client_options.target_minimal = false;  // every write reaches 0
  ReplicatedStore store(options);
  auto client = store.MakeClient();

  std::uint64_t last = 0;
  for (int round = 0; round < 3; ++round) {
    EXPECT_GE(store.ReplicaCommitPasses(0), last);
    for (int i = 0; i < 10; ++i) {
      ASSERT_TRUE(client->Write(Pk(i), 100 * round + i).ok);
    }
    const std::uint64_t synced = WaitForPassAbove(store, 0, last);
    ASSERT_GT(synced, last) << "round " << round << " got no commit pass";
    store.Crash(0);
    EXPECT_GE(store.ReplicaCommitPasses(0), synced);
    store.Recover(0);
    last = store.ReplicaCommitPasses(0);
    EXPECT_GE(last, synced);
    EXPECT_GE(store.ReplicaStorageStats(0).fsyncs, last);
  }
  for (int i = 0; i < 10; ++i) {
    const ClientResult r = client->Read(Pk(i));
    ASSERT_TRUE(r.ok);
    EXPECT_EQ(r.value, 200 + i);
  }
}

}  // namespace
}  // namespace qcnt::runtime
