// E15 — pipelined, batched quorum operations (async client vs sync client).
//
// Section 1: a single client drives a 5-replica in-memory store with a
// write-heavy mix, sequentially (QuorumClient) and pipelined at depths
// {1, 4, 16, 64} (AsyncQuorumClient). Pipelining ops on disjoint items is
// protocol-legal (DESIGN.md §7: Lemmas 7/8 only constrain per-item version
// order), so throughput scales with the depth until the replica threads
// saturate; the acceptance bar for this repo is >= 3x at depth 16.
//
// Section 2: the same comparison on the durable backend under group
// commit, where batching additionally amortizes fsyncs — a replica logs a
// whole kBatchWriteReq with one write(2) + one sync decision, so
// records-per-fsync rises with the pipeline depth.
//
// Results are printed as tables and written as JSON (argv[1], default
// "BENCH_batching.json") so CI can archive the numbers.
#include <filesystem>
#include <fstream>
#include <iostream>
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

constexpr std::size_t kReplicas = 5;
constexpr std::size_t kOps = 4000;
constexpr std::size_t kKeys = 128;
constexpr double kReadFraction = 0.2;

std::string KeyFor(qcnt::Rng& rng) {
  return "k" + std::to_string(rng.Index(kKeys));
}

struct RunResult {
  double ops_per_sec = 0;
  double avg_client_batch = 0;   // entries per batch message sent
  double records_per_fsync = 0;  // durable runs only
  std::uint64_t failures = 0;
};

RunResult MeasureSync(StoreOptions options) {
  const bool durable = options.durability.has_value();
  ReplicatedStore store(std::move(options));
  auto client = store.MakeClient();
  qcnt::Rng rng(42);
  RunResult out;
  const auto t0 = std::chrono::steady_clock::now();
  for (std::size_t i = 0; i < kOps; ++i) {
    const std::string key = KeyFor(rng);
    const bool ok = rng.Chance(kReadFraction)
                        ? client->Read(key).ok
                        : client->Write(key, static_cast<std::int64_t>(i)).ok;
    if (!ok) ++out.failures;
  }
  const double secs =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  out.ops_per_sec = static_cast<double>(kOps) / secs;
  out.avg_client_batch = 1.0;
  if (durable) {
    const storage::StorageStats st = store.TotalStorageStats();
    if (st.fsyncs > 0) {
      out.records_per_fsync = static_cast<double>(st.records_appended) /
                              static_cast<double>(st.fsyncs);
    }
  }
  return out;
}

RunResult MeasureAsync(StoreOptions options, std::size_t depth) {
  const bool durable = options.durability.has_value();
  ReplicatedStore store(std::move(options));
  auto client = store.MakeAsyncClient(ClientOptions{
      .window = depth, .max_batch = std::max<std::size_t>(depth / 2, 1)});
  qcnt::Rng rng(42);
  RunResult out;
  std::vector<OpFuture> futures;
  futures.reserve(kOps);
  const auto t0 = std::chrono::steady_clock::now();
  for (std::size_t i = 0; i < kOps; ++i) {
    const std::string key = KeyFor(rng);
    if (rng.Chance(kReadFraction)) {
      futures.push_back(client->SubmitRead(key));
    } else {
      futures.push_back(
          client->SubmitWrite(key, static_cast<std::int64_t>(i)));
    }
  }
  client->Drain();
  const double secs =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  for (auto& f : futures) {
    if (!f.Get().ok) ++out.failures;
  }
  out.ops_per_sec = static_cast<double>(kOps) / secs;
  const AsyncQuorumClient::Stats& cs = client->ClientStats();
  if (cs.batches_sent > 0) {
    out.avg_client_batch = static_cast<double>(cs.batched_requests) /
                           static_cast<double>(cs.batches_sent);
  }
  if (durable) {
    const storage::StorageStats st = store.TotalStorageStats();
    if (st.fsyncs > 0) {
      out.records_per_fsync = static_cast<double>(st.records_appended) /
                              static_cast<double>(st.fsyncs);
    }
  }
  return out;
}

StoreOptions MemoryOptions() {
  StoreOptions options;
  options.replicas = kReplicas;
  return options;
}

StoreOptions DurableOptions(const std::string& dir) {
  StoreOptions options;
  options.replicas = kReplicas;
  options.durability = storage::DurabilityOptions{
      .directory = dir,
      .fsync = storage::FsyncPolicy::kGroupCommit,
      .group_commit_window = std::chrono::microseconds{200},
  };
  return options;
}

struct JsonRow {
  std::string mode;
  std::size_t depth;
  RunResult r;
  double speedup;
};

void WriteJson(const std::string& path, const std::vector<JsonRow>& memory,
               const std::vector<JsonRow>& durable) {
  std::ofstream os(path);
  auto emit = [&os](const std::vector<JsonRow>& rows) {
    for (std::size_t i = 0; i < rows.size(); ++i) {
      const JsonRow& row = rows[i];
      os << "    {\"mode\": \"" << row.mode << "\", \"depth\": " << row.depth
         << ", \"ops_per_sec\": " << bench::Table::Num(row.r.ops_per_sec, 0)
         << ", \"speedup_vs_sync\": " << bench::Table::Num(row.speedup, 2)
         << ", \"avg_client_batch\": "
         << bench::Table::Num(row.r.avg_client_batch, 2)
         << ", \"records_per_fsync\": "
         << bench::Table::Num(row.r.records_per_fsync, 2)
         << ", \"failures\": " << row.r.failures << "}"
         << (i + 1 < rows.size() ? "," : "") << "\n";
    }
  };
  os << "{\n"
     << "  \"experiment\": \"E15\",\n"
     << "  \"replicas\": " << kReplicas << ",\n"
     << "  \"ops\": " << kOps << ",\n"
     << "  \"keys\": " << kKeys << ",\n"
     << "  \"read_fraction\": " << kReadFraction << ",\n"
     << "  \"memory_backend\": [\n";
  emit(memory);
  os << "  ],\n"
     << "  \"durable_group_commit\": [\n";
  emit(durable);
  os << "  ]\n}\n";
}

std::vector<JsonRow> RunSection(const std::string& title,
                                const std::function<StoreOptions()>& make,
                                bool durable) {
  bench::Banner(title);
  std::vector<std::string> headers = {"mode", "depth", "ops/s",
                                      "speedup vs sync", "avg batch"};
  if (durable) headers.push_back("records/fsync");
  bench::Table table(headers);
  std::vector<JsonRow> rows;

  const RunResult sync = MeasureSync(make());
  rows.push_back({"sync", 1, sync, 1.0});
  for (std::size_t depth : {1u, 4u, 16u, 64u}) {
    const RunResult r = MeasureAsync(make(), depth);
    rows.push_back({"async", depth, r, r.ops_per_sec / sync.ops_per_sec});
  }
  for (const JsonRow& row : rows) {
    std::vector<std::string> cells = {
        row.mode, std::to_string(row.depth),
        bench::Table::Num(row.r.ops_per_sec, 0),
        bench::Table::Num(row.speedup, 2),
        bench::Table::Num(row.r.avg_client_batch, 2)};
    if (durable) {
      cells.push_back(bench::Table::Num(row.r.records_per_fsync, 2));
    }
    table.AddRow(std::move(cells));
  }
  table.Print();
  return rows;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string json_path = argc > 1 ? argv[1] : "BENCH_batching.json";

  const std::vector<JsonRow> memory = RunSection(
      "E15a: pipelined batching, in-memory backend, 5 replicas, 128 keys, "
      "20% reads",
      MemoryOptions, /*durable=*/false);

  const std::string scratch = "bench_batching_scratch";
  std::filesystem::remove_all(scratch);
  std::filesystem::create_directories(scratch);
  const std::vector<JsonRow> durable = RunSection(
      "E15b: pipelined batching, durable backend (group commit), 5 replicas",
      [&scratch] { return DurableOptions(scratch); }, /*durable=*/true);
  std::filesystem::remove_all(scratch);

  WriteJson(json_path, memory, durable);
  std::cout << "\nShape checks: async depth 1 tracks the sync baseline "
               "(same protocol, same\nround-trips); throughput then climbs "
               "with depth because disjoint-key ops overlap\ntheir quorum "
               "phases and replicas serve whole batches per mailbox wakeup. "
               "Under\ngroup commit, records-per-fsync climbs with depth as "
               "each batch commits with a\nsingle sync decision.\nJSON: "
            << json_path << "\n";
  return 0;
}
