// Durable store: crash-recovery that actually loses (and rebuilds) state.
//
// With StoreOptions::durability set, each replica keeps a write-ahead
// segment chain and incremental checkpoints on disk. Crash() then wipes
// the replica's memory — a true fail-stop — and Recover() replays
// checkpoints + log tail before the replica rejoins quorums. The run
// below crashes a replica mid-workload, recovers
// it, then forces a read quorum through it to show Lemma 8 live: the
// highest-versioned copy in the quorum is the logical state even though
// this replica missed writes while down.
//
//   build/examples/durable_store
#include <filesystem>
#include <iostream>

#include "runtime/store.hpp"

int main() {
  using namespace qcnt;
  namespace fs = std::filesystem;

  const std::string dir = "durable_store_example";
  fs::remove_all(dir);

  {
    runtime::StoreOptions options;
    options.replicas = 3;
    storage::DurabilityOptions durability;
    durability.directory = dir;
    durability.fsync = storage::FsyncPolicy::kGroupCommit;
    durability.group_commit_window = std::chrono::microseconds(500);
    durability.checkpoint_tail_bytes = 1024;
    options.durability = durability;

    runtime::ReplicatedStore store(std::move(options));
    auto client = store.MakeClient();

    for (int i = 1; i <= 50; ++i) client->Write("balance", 100 * i);
    std::cout << "balance -> " << client->Read("balance").value << '\n';

    // Fail-stop replica 2: its in-memory map is gone.
    store.Crash(2);
    client->Write("balance", 9999);  // replica 2 misses this write
    store.Recover(2);                // replays checkpoints + log from disk

    const auto stats = store.ReplicaStorageStats(2);
    std::cout << "replica 2 recovered: " << stats.recoveries
              << " recoveries, " << stats.recovery_replayed
              << " log records replayed, " << stats.checkpoints_written
              << " checkpoints written\n";

    // Force reads through the recovered replica: quorum must be {1, 2}.
    store.Crash(0);
    std::cout << "read via recovered replica -> "
              << client->Read("balance").value
              << "  (highest version in the quorum wins)\n";

    const auto total = store.TotalStorageStats();
    std::cout << "storage totals: " << total.records_appended
              << " records, " << total.fsyncs << " fsyncs, "
              << total.bytes_appended << " bytes\n";
  }

  // The directory outlives the store object — a fresh store recovers the
  // whole state from disk, like a process restart.
  runtime::StoreOptions options;
  options.replicas = 3;
  options.durability = storage::DurabilityOptions{.directory = dir};
  runtime::ReplicatedStore reborn(std::move(options));
  std::cout << "after full restart: balance -> "
            << reborn.MakeClient()->Read("balance").value << '\n';

  fs::remove_all(dir);
  return 0;
}
