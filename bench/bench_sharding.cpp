// E16 — the cost of a replica's shard layout under multi-client
// pipelined load.
//
// One replica (quorum {0}) so every operation lands on the same server;
// 3 client threads each drive an AsyncQuorumClient pipeline at the store,
// and the replica's shard count sweeps {1, 2, 4, 8}. Every replica runs
// one loop thread whatever its shard count (shards are the durable layout
// unit, not threads), so the sweep measures what extra shards cost that
// loop: per-entry shard resolution in memory, and under durability one
// WAL segment chain per shard.
//
// E16a is the in-memory backend. E16b is the durable backend under group
// commit with per-shard WAL segments and the per-replica
// GroupCommitCoordinator (one fsync decision per window across the whole
// shard set).
//
// Alongside throughput and shard balance every row records fsyncs/op,
// coordinator fsync passes and mailbox wakeups/op. Each section uses its
// own RNG seed base so two sections can never report identical per-shard
// arrays by accident — the bench-artifact sanity check in CI rejects that.
// Results print as tables and are written as JSON (argv[1], default
// "BENCH_sharding.json", with hardware_concurrency recorded) so CI can
// archive them.
#include <filesystem>
#include <fstream>
#include <functional>
#include <iostream>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "runtime/store.hpp"
#include "table.hpp"

namespace {

using namespace qcnt;
using runtime::AsyncQuorumClient;
using runtime::ClientOptions;
using runtime::OpFuture;
using runtime::ReplicatedStore;
using runtime::StoreOptions;

constexpr std::size_t kClientThreads = 3;
constexpr std::size_t kOpsPerClient = 2000;
constexpr std::size_t kKeys = 256;
constexpr double kReadFraction = 0.2;
constexpr std::size_t kWindow = 32;
constexpr std::size_t kMaxBatch = 16;
constexpr std::size_t kTotalOps = kClientThreads * kOpsPerClient;

struct RunResult {
  double ops_per_sec = 0;
  std::uint64_t failures = 0;
  std::vector<std::uint64_t> shard_ops;    // applied ops per shard
  double balance = 1.0;                    // min/max shard ops
  std::uint64_t fsyncs = 0;                // all shard segments, total
  std::uint64_t commit_passes = 0;         // coordinator fsync decisions
  std::uint64_t mailbox_wakeups = 0;       // client→replica cv notifies
};

RunResult Measure(StoreOptions options, std::size_t shards,
                  std::uint64_t seed_base) {
  options.replicas = 1;
  options.max_clients = kClientThreads;
  options.shards_per_replica = shards;
  ReplicatedStore store(std::move(options));

  std::atomic<std::uint64_t> failures{0};
  std::vector<std::thread> threads;
  const auto t0 = std::chrono::steady_clock::now();
  for (std::size_t t = 0; t < kClientThreads; ++t) {
    auto client = store.MakeAsyncClient(
        ClientOptions{.window = kWindow, .max_batch = kMaxBatch});
    threads.emplace_back([client = std::move(client), t, seed_base,
                          &failures] {
      // Per-section seed base: reusing one stream across sections made
      // every sweep replay the identical key sequence, so the per-shard
      // op arrays came out byte-identical between sections — which looked
      // exactly like the stale-counter bug this bench once had.
      qcnt::Rng rng(seed_base + t);
      std::vector<OpFuture> futures;
      futures.reserve(kOpsPerClient);
      for (std::size_t i = 0; i < kOpsPerClient; ++i) {
        const std::string key = "k" + std::to_string(rng.Index(kKeys));
        if (rng.Chance(kReadFraction)) {
          futures.push_back(client->SubmitRead(key));
        } else {
          futures.push_back(
              client->SubmitWrite(key, static_cast<std::int64_t>(i)));
        }
      }
      client->Drain();
      for (auto& f : futures) {
        if (!f.Get().ok) failures.fetch_add(1);
      }
    });
  }
  for (auto& th : threads) th.join();
  const double secs =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();

  RunResult out;
  out.ops_per_sec = static_cast<double>(kTotalOps) / secs;
  out.failures = failures.load();
  const runtime::BatchStats stats = store.ReplicaBatchStats(0);
  std::uint64_t min_ops = ~0ull, max_ops = 0;
  for (const runtime::ShardCounters& c : stats.per_shard) {
    out.shard_ops.push_back(c.ops);
    min_ops = std::min(min_ops, c.ops);
    max_ops = std::max(max_ops, c.ops);
  }
  if (max_ops > 0) {
    out.balance = static_cast<double>(min_ops) / static_cast<double>(max_ops);
  }
  out.mailbox_wakeups = stats.mailbox_wakeups;
  out.fsyncs = store.ReplicaStorageStats(0).fsyncs;
  out.commit_passes = store.ReplicaCommitPasses(0);
  return out;
}

StoreOptions MemoryOptions(std::size_t) { return StoreOptions{}; }

// A fresh directory per sweep point: the MANIFEST pins a directory's shard
// count, so reopening one layout with a different count is (correctly)
// rejected.
StoreOptions DurableOptions(const std::string& root, std::size_t shards) {
  const std::string dir = root + "/" + std::to_string(shards);
  std::filesystem::create_directories(dir);
  StoreOptions options;
  options.durability = storage::DurabilityOptions{
      .directory = dir,
      .fsync = storage::FsyncPolicy::kGroupCommit,
      .group_commit_window = std::chrono::microseconds{200},
  };
  return options;
}

struct JsonRow {
  std::size_t shards;
  RunResult r;
  double speedup;
};

std::string ShardList(const std::vector<std::uint64_t>& v) {
  std::string out = "[";
  for (std::size_t i = 0; i < v.size(); ++i) {
    out += std::to_string(v[i]);
    if (i + 1 < v.size()) out += ", ";
  }
  return out + "]";
}

double PerOp(std::uint64_t count) {
  return static_cast<double>(count) / static_cast<double>(kTotalOps);
}

void EmitRows(std::ofstream& os, const std::vector<JsonRow>& rows) {
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const JsonRow& row = rows[i];
    os << "    {\"shards\": " << row.shards
       << ", \"ops_per_sec\": " << bench::Table::Num(row.r.ops_per_sec, 0)
       << ", \"speedup_vs_1_shard\": " << bench::Table::Num(row.speedup, 2)
       << ", \"shard_balance\": " << bench::Table::Num(row.r.balance, 2)
       << ", \"shard_ops\": " << ShardList(row.r.shard_ops)
       << ", \"fsyncs\": " << row.r.fsyncs
       << ", \"fsyncs_per_op\": " << bench::Table::Num(PerOp(row.r.fsyncs), 4)
       << ", \"commit_passes\": " << row.r.commit_passes
       << ", \"mailbox_wakeups_per_op\": "
       << bench::Table::Num(PerOp(row.r.mailbox_wakeups), 4)
       << ", \"failures\": " << row.r.failures << "}"
       << (i + 1 < rows.size() ? "," : "") << "\n";
  }
}

void WriteJson(const std::string& path, const std::vector<JsonRow>& memory,
               const std::vector<JsonRow>& durable) {
  std::ofstream os(path);
  os << "{\n"
     << "  \"experiment\": \"E16\",\n"
     << "  \"replicas\": 1,\n"
     << "  \"client_threads\": " << kClientThreads << ",\n"
     << "  \"ops_per_client\": " << kOpsPerClient << ",\n"
     << "  \"keys\": " << kKeys << ",\n"
     << "  \"read_fraction\": " << kReadFraction << ",\n"
     << "  \"pipeline_window\": " << kWindow << ",\n"
     << "  \"hardware_concurrency\": " << std::thread::hardware_concurrency()
     << ",\n"
     << "  \"memory_backend\": [\n";
  EmitRows(os, memory);
  os << "  ],\n"
     << "  \"durable_group_commit\": [\n";
  EmitRows(os, durable);
  os << "  ]\n}\n";
}

std::vector<JsonRow> RunSection(
    const std::string& title, std::uint64_t seed_base,
    const std::function<StoreOptions(std::size_t)>& make) {
  bench::Banner(title);
  bench::Table table({"shards", "ops/s", "speedup vs 1", "balance",
                      "fsyncs/op", "commit passes", "wakeups/op",
                      "failures"});
  std::vector<JsonRow> rows;
  for (std::size_t shards : {1u, 2u, 4u, 8u}) {
    const RunResult r = Measure(make(shards), shards, seed_base);
    const double base = rows.empty() ? r.ops_per_sec : rows[0].r.ops_per_sec;
    rows.push_back({shards, r, r.ops_per_sec / base});
  }
  for (const JsonRow& row : rows) {
    table.AddRow({std::to_string(row.shards),
                  bench::Table::Num(row.r.ops_per_sec, 0),
                  bench::Table::Num(row.speedup, 2),
                  bench::Table::Num(row.r.balance, 2),
                  bench::Table::Num(PerOp(row.r.fsyncs), 4),
                  std::to_string(row.r.commit_passes),
                  bench::Table::Num(PerOp(row.r.mailbox_wakeups), 4),
                  std::to_string(row.r.failures)});
  }
  table.Print();
  return rows;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string json_path = argc > 1 ? argv[1] : "BENCH_sharding.json";

  const std::vector<JsonRow> memory = RunSection(
      "E16a: sharded replica, in-memory backend, 1 replica, 3 pipelined "
      "clients, 256 keys, 20% reads",
      1000, MemoryOptions);

  const std::string scratch = "bench_sharding_scratch";
  std::filesystem::remove_all(scratch);
  std::filesystem::create_directories(scratch);
  const std::vector<JsonRow> durable = RunSection(
      "E16b: durable, per-shard WAL segments, cross-shard coordinated "
      "group commit (one fsync decision per window per replica)",
      5000, [&scratch](std::size_t shards) {
        return DurableOptions(scratch, shards);
      });
  std::filesystem::remove_all(scratch);

  WriteJson(json_path, memory, durable);
  std::cout << "\nShape checks: shard balance stays near 1.0 (FNV-1a spreads "
               "256 keys evenly);\nevery row runs one loop thread per "
               "replica, so extra shards cost per-entry\nrouting in memory "
               "and extra WAL segments under durability; coordinated group\n"
               "commit holds fsyncs/op roughly flat as shards grow "
               "(hardware_concurrency = "
            << std::thread::hardware_concurrency() << ").\nJSON: " << json_path
            << "\n";
  return 0;
}
