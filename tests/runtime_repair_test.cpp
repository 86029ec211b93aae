// Tests for runtime extensions: read repair, and true crash-recovery under
// the durable storage backend.
#include <gtest/gtest.h>

#include <filesystem>
#include <map>
#include <thread>

#include "runtime/store.hpp"
#include "storage/manifest.hpp"
#include "storage/recovery.hpp"

namespace qcnt::runtime {
namespace {

namespace fs = std::filesystem;
using namespace std::chrono_literals;

/// Writes under a crash leave recovered replicas stale; read repair heals
/// them so that even a read quorum avoiding the original writers sees the
/// value.
TEST(ReadRepair, HealsStaleReplicas) {
  StoreOptions options;
  options.replicas = 3;
  options.client_options.read_repair = true;
  ReplicatedStore store(std::move(options));
  auto client = store.MakeClient();

  // Replica 2 misses the write.
  store.Crash(2);
  ASSERT_TRUE(client->Write("x", 42).ok);
  store.Recover(2);

  // A repairing read: quorum {0 or 1} + possibly 2; once 2 responds stale,
  // the client writes (version, 42) back to it.
  ASSERT_TRUE(client->Read("x").ok);
  // Drain until the repair propagated (repairs are asynchronous).
  for (int i = 0; i < 100 && client->RepairsIssued() == 0; ++i) {
    client->Read("x");
  }
  EXPECT_GT(client->RepairsIssued(), 0u);

  // After repair, even a read that can only see replica 2 plus one other
  // stale-free replica gets 42. Simulate by crashing the original writers'
  // helpers: crash 0; quorum must be {1,2}.
  // Give the repair write time to land.
  std::this_thread::sleep_for(20ms);
  store.Crash(0);
  const ClientResult r = client->Read("x");
  ASSERT_TRUE(r.ok);
  EXPECT_EQ(r.value, 42);
}

TEST(ReadRepair, DisabledByDefault) {
  ReplicatedStore store(StoreOptions{.replicas = 3});
  auto client = store.MakeClient();
  store.Crash(2);
  ASSERT_TRUE(client->Write("x", 1).ok);
  store.Recover(2);
  for (int i = 0; i < 5; ++i) client->Read("x");
  EXPECT_EQ(client->RepairsIssued(), 0u);
}

TEST(ReadRepair, NoRepairWhenReplicasAgree) {
  StoreOptions options;
  options.replicas = 3;
  options.client_options.read_repair = true;
  ReplicatedStore store(std::move(options));
  auto client = store.MakeClient();
  ASSERT_TRUE(client->Write("x", 1).ok);
  // Writes reached a quorum; remaining replica may be stale, but reads that
  // only consult the written quorum issue no repair. Run several reads and
  // assert repairs only target genuinely stale replicas (at most one here).
  for (int i = 0; i < 20; ++i) client->Read("x");
  EXPECT_LE(client->RepairsIssued(), 20u);
  // After the first repair lands, the system is fully converged — repairs
  // must stop growing.
  std::this_thread::sleep_for(20ms);
  const std::uint64_t before = client->RepairsIssued();
  for (int i = 0; i < 10; ++i) client->Read("x");
  // Converged: no new repairs (allowing one in-flight race).
  EXPECT_LE(client->RepairsIssued() - before, 1u);
}

// ---------------------------------------------------------------------------
// Durable backend: crashes wipe volatile state; recovery replays disk.

struct ScratchDir {
  explicit ScratchDir(const std::string& tag)
      : path((fs::path("runtime_durable_scratch") / tag).string()) {
    fs::remove_all(path);
    fs::create_directories(path);
  }
  ~ScratchDir() { fs::remove_all(path); }
  std::string path;
};

StoreOptions DurableOptions(const std::string& dir, std::size_t replicas = 3) {
  StoreOptions options;
  options.replicas = replicas;
  storage::DurabilityOptions durability;
  durability.directory = dir;
  options.durability = durability;
  // These tests audit per-replica WAL contents (WaitForAppends, torn-tail
  // surgery on a specific replica), which presumes every write reaches
  // every replica — full fan-out, not a minimal write quorum.
  options.client_options.target_minimal = false;
  return options;
}

/// Acks come from a quorum, so a broadcast may still be queued at the
/// slowest replica; wait until it has logged `records` appends before
/// crashing it (the crash drains its backlog).
void WaitForAppends(const ReplicatedStore& store, std::size_t replica,
                    std::uint64_t records) {
  for (int i = 0; i < 2000; ++i) {
    if (store.ReplicaStorageStats(replica).records_appended >= records) {
      return;
    }
    std::this_thread::sleep_for(1ms);
  }
  FAIL() << "replica " << replica << " never logged " << records
         << " records";
}

/// A replica that crashes (losing its map), recovers via log replay, and
/// rejoins quorums must serve the correct logical state — the runtime
/// analogue of Lemma 8: the highest-versioned copy in any read quorum is
/// the logical state even when some replicas missed writes. The spec map
/// is the non-replicated reference the reads are compared against.
TEST(DurableStore, CrashLosesStateRecoveryRestoresIt) {
  ScratchDir dir("crash_recover");
  ReplicatedStore store(DurableOptions(dir.path));
  auto client = store.MakeClient();

  std::map<std::string, std::int64_t> spec;
  for (int i = 0; i < 8; ++i) {
    const std::string key = "k" + std::to_string(i);
    ASSERT_TRUE(client->Write(key, 100 + i).ok);
    spec[key] = 100 + i;
  }

  // Fail-stop replica 2 once it has logged every write: its in-memory
  // image is discarded.
  WaitForAppends(store, 2, 8);
  store.Crash(2);
  // A write replica 2 misses entirely.
  ASSERT_TRUE(client->Write("k0", 999).ok);
  spec["k0"] = 999;

  store.Recover(2);
  const auto stats = store.ReplicaStorageStats(2);
  // Initial start + this recovery.
  EXPECT_EQ(stats.recoveries, 2u);
  EXPECT_GT(stats.recovery_replayed, 0u);

  // Force read quorums to include the recovered replica: {1, 2}.
  store.Crash(0);
  for (const auto& [key, expected] : spec) {
    const ClientResult r = client->Read(key);
    ASSERT_TRUE(r.ok) << key;
    EXPECT_EQ(r.value, expected) << key;
  }
}

/// Restarting the whole store on the same directory recovers from the log
/// alone (no checkpoint was ever taken at the default threshold).
TEST(DurableStore, RestartRecoversFromLogOnly) {
  ScratchDir dir("log_only");
  {
    ReplicatedStore store(DurableOptions(dir.path));
    auto client = store.MakeClient();
    ASSERT_TRUE(client->Write("x", 7).ok);
    ASSERT_TRUE(client->Write("y", 8).ok);
    EXPECT_EQ(store.TotalStorageStats().checkpoints_written, 0u);
  }
  ReplicatedStore store(DurableOptions(dir.path));
  auto client = store.MakeClient();
  EXPECT_GT(store.TotalStorageStats().recovery_replayed, 0u);
  EXPECT_EQ(client->Read("x").value, 7);
  EXPECT_EQ(client->Read("y").value, 8);
}

/// A tiny checkpoint threshold makes every write flush the tail; restart
/// then recovers from the checkpoint chain alone.
TEST(DurableStore, RestartRecoversFromCheckpointOnly) {
  ScratchDir dir("snapshot_only");
  StoreOptions options = DurableOptions(dir.path);
  options.durability->checkpoint_tail_bytes = 1;
  {
    ReplicatedStore store(std::move(options));
    auto client = store.MakeClient();
    ASSERT_TRUE(client->Write("x", 1).ok);
    ASSERT_TRUE(client->Write("x", 2).ok);
    ASSERT_TRUE(client->Write("z", 3).ok);
    EXPECT_GT(store.TotalStorageStats().checkpoints_written, 0u);
  }
  StoreOptions reopened = DurableOptions(dir.path);
  reopened.durability->checkpoint_tail_bytes = 1;
  ReplicatedStore store(std::move(reopened));
  auto client = store.MakeClient();
  // Every segment was compacted away; recovery replayed nothing.
  EXPECT_EQ(store.TotalStorageStats().recovery_replayed, 0u);
  EXPECT_EQ(client->Read("x").value, 2);
  EXPECT_EQ(client->Read("z").value, 3);
}

/// A mid-size threshold exercises checkpoint chain + log tail recovery.
TEST(DurableStore, RestartRecoversFromCheckpointPlusTail) {
  ScratchDir dir("snapshot_tail");
  StoreOptions options = DurableOptions(dir.path);
  // Roughly two records per checkpoint: checkpoints happen, tails remain.
  options.durability->checkpoint_tail_bytes = 100;
  std::map<std::string, std::int64_t> spec;
  {
    ReplicatedStore store(std::move(options));
    auto client = store.MakeClient();
    for (int i = 0; i < 9; ++i) {
      const std::string key = "k" + std::to_string(i % 3);
      ASSERT_TRUE(client->Write(key, i * 11).ok);
      spec[key] = i * 11;
    }
    EXPECT_GT(store.TotalStorageStats().checkpoints_written, 0u);
  }
  StoreOptions reopened = DurableOptions(dir.path);
  reopened.durability->checkpoint_tail_bytes = 100;
  ReplicatedStore store(std::move(reopened));
  auto client = store.MakeClient();
  for (const auto& [key, expected] : spec) {
    EXPECT_EQ(client->Read(key).value, expected) << key;
  }
}

/// A torn final WAL record (crash mid-append) is detected by CRC and
/// discarded; the quorum absorbs the lost tail.
TEST(DurableStore, TornFinalRecordDiscardedOnRecovery) {
  ScratchDir dir("torn_tail");
  StoreOptions options = DurableOptions(dir.path);
  {
    ReplicatedStore store(options);
    auto client = store.MakeClient();
    ASSERT_TRUE(client->Write("x", 1).ok);
    ASSERT_TRUE(client->Write("x", 2).ok);
  }
  // Tear the last record of replica 2's active segment only; the other
  // replicas keep the full history, so the logical state must survive.
  // No rotation happened at the default thresholds, so the chain is just
  // the first segment (file id 1).
  const std::string wal =
      storage::Manifest::SegmentPath(dir.path + "/replica_2", 1);
  ASSERT_TRUE(fs::exists(wal));
  fs::resize_file(wal, fs::file_size(wal) - 2);

  ReplicatedStore store(std::move(options));
  auto client = store.MakeClient();
  EXPECT_EQ(store.ReplicaStorageStats(2).torn_tails_discarded, 1u);
  // Read quorum {1, 2}: replica 2 answers with the torn-away write
  // missing; replica 1's higher version must win (Lemma 8).
  store.Crash(0);
  const ClientResult r = client->Read("x");
  ASSERT_TRUE(r.ok);
  EXPECT_EQ(r.value, 2);
}

/// The (generation, config) stamp is durable too: a recovered replica
/// rejoins with the reconfigured generation, not generation 0.
TEST(DurableStore, ConfigStampSurvivesCrashRecovery) {
  ScratchDir dir("config_stamp");
  StoreOptions options = DurableOptions(dir.path, 5);
  options.configs = {
      quorum::MajoritySystem(5),
      quorum::FromConfiguration(
          "majority-of-012",
          quorum::Configuration({{0, 1}, {0, 2}, {1, 2}},
                                {{0, 1}, {0, 2}, {1, 2}}))};
  ReplicatedStore store(std::move(options));
  auto client = store.MakeClient();
  ASSERT_TRUE(client->Write("x", 1).ok);
  ASSERT_TRUE(client->Reconfigure(1).ok);

  // Replica 2 logs: the x-write and the config install. The
  // reconfigure's data write re-installs the stamp key at its current
  // (version, value) — a no-op under the idempotent apply, so it is
  // acked without logging a redundant record.
  WaitForAppends(store, 2, 2);
  store.Crash(2);
  store.Recover(2);

  // Leave only {1, 2} up: every quorum of the new config now needs the
  // recovered replica.
  store.Crash(0);
  store.Crash(3);
  store.Crash(4);
  auto fresh = store.MakeClient();
  const ClientResult r = fresh->Read("x");
  ASSERT_TRUE(r.ok);
  EXPECT_EQ(r.value, 1);
  // The recovered replica's stamp propagated the reconfiguration.
  EXPECT_EQ(fresh->BelievedConfig(), 1u);
}

/// Writers keep running while a replica crashes and recovers; every value
/// acked to a writer must be readable afterward (per-thread key spaces
/// keep the reference deterministic).
TEST(DurableStore, ConcurrentWritersDuringRecovery) {
  ScratchDir dir("concurrent");
  StoreOptions options = DurableOptions(dir.path);
  options.max_clients = 6;
  ReplicatedStore store(std::move(options));

  constexpr int kThreads = 4, kOps = 30;
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    auto client = store.MakeClient();
    threads.emplace_back([client = std::move(client), t, &failures] {
      for (int i = 0; i < kOps; ++i) {
        const std::string key = "w" + std::to_string(t);
        if (!client->Write(key, i).ok) ++failures;
      }
    });
  }
  // Crash/recover replica 2 repeatedly under load; majority {0, 1} keeps
  // the store available throughout.
  for (int round = 0; round < 3; ++round) {
    std::this_thread::sleep_for(5ms);
    store.Crash(2);
    std::this_thread::sleep_for(5ms);
    store.Recover(2);
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(failures.load(), 0);

  // Every thread's last acked write is the logical state of its key, and
  // it must still be there when reads are forced through replica 2.
  store.Crash(0);
  auto reader = store.MakeClient();
  for (int t = 0; t < kThreads; ++t) {
    const ClientResult r = reader->Read("w" + std::to_string(t));
    ASSERT_TRUE(r.ok);
    EXPECT_EQ(r.value, kOps - 1);
  }
}

/// Fail-stop semantics (satellite): messages queued at a node before its
/// crash are dropped with the crash, not processed afterward.
TEST(BusFailStop, CrashDrainsQueuedBacklog) {
  Bus bus(2);
  bus.Send(0, 1, {});
  bus.Send(0, 1, {});
  ASSERT_EQ(bus.MailboxOf(1).Size(), 2u);
  bus.Crash(1);
  EXPECT_EQ(bus.MailboxOf(1).Size(), 0u);
  bus.Recover(1);
  // Post-recovery traffic flows normally.
  bus.Send(0, 1, {});
  EXPECT_EQ(bus.MailboxOf(1).Size(), 1u);
}

TEST(DurableStore, StatsSurfaceCountsAppendsAndFsyncs) {
  ScratchDir dir("stats");
  ReplicatedStore store(DurableOptions(dir.path));
  auto client = store.MakeClient();
  ASSERT_TRUE(client->Write("x", 1).ok);
  ASSERT_TRUE(client->Write("x", 2).ok);
  // Broadcast writes reach all 3 replicas (acks from a majority suffice,
  // but all appends eventually land).
  for (std::size_t r = 0; r < 3; ++r) WaitForAppends(store, r, 2);
  const auto stats = store.TotalStorageStats();
  EXPECT_EQ(stats.records_appended, 6u);  // 2 writes x 3 replicas
  EXPECT_EQ(stats.fsyncs, 6u);            // kAlways default
  EXPECT_GT(stats.bytes_appended, 0u);
  // One initial recovery per replica.
  EXPECT_EQ(stats.recoveries, 3u);
}

}  // namespace
}  // namespace qcnt::runtime
