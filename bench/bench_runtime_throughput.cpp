// E8 — throughput of the threaded runtime.
//
// Real threads, real mailboxes: clients issue a read/write mix against a
// ReplicatedStore under different quorum strategies. Reported as operations
// per second (google-benchmark drives the measurement); the table gives a
// one-shot overview across strategies and read fractions.
#include <benchmark/benchmark.h>

#include <atomic>
#include <thread>

#include "common/rng.hpp"
#include "runtime/store.hpp"
#include "table.hpp"

namespace {

using namespace qcnt;
using runtime::ReplicatedStore;
using runtime::StoreOptions;

double MeasureOpsPerSec(const quorum::QuorumSystem& system,
                        double read_fraction, std::size_t client_threads,
                        std::size_t ops_per_client) {
  StoreOptions options;
  options.replicas = system.n;
  options.configs = {system};
  options.max_clients = client_threads;
  ReplicatedStore store(std::move(options));

  std::atomic<std::size_t> failures{0};
  const auto t0 = std::chrono::steady_clock::now();
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < client_threads; ++t) {
    auto client = store.MakeClient();
    threads.emplace_back([client = std::move(client), t, ops_per_client,
                          read_fraction, &failures] {
      qcnt::Rng rng(t * 7919 + 13);
      for (std::size_t i = 0; i < ops_per_client; ++i) {
        const std::string key = "k" + std::to_string(i % 8);
        const bool ok = rng.Chance(read_fraction)
                            ? client->Read(key).ok
                            : client->Write(key,
                                            static_cast<std::int64_t>(i))
                                  .ok;
        if (!ok) ++failures;
      }
    });
  }
  for (auto& th : threads) th.join();
  const double secs =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  const double total =
      static_cast<double>(client_threads * ops_per_client);
  return failures.load() == 0 ? total / secs : 0.0;
}

double MeasureBatchedOpsPerSec(const quorum::QuorumSystem& system,
                               double read_fraction,
                               std::size_t client_threads,
                               std::size_t ops_per_client,
                               std::size_t window) {
  StoreOptions options;
  options.replicas = system.n;
  options.configs = {system};
  options.max_clients = client_threads;
  ReplicatedStore store(std::move(options));

  std::atomic<std::size_t> failures{0};
  const auto t0 = std::chrono::steady_clock::now();
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < client_threads; ++t) {
    auto client = store.MakeAsyncClient(
        runtime::ClientOptions{.window = window,
                                            .max_batch = window});
    threads.emplace_back([client = std::move(client), t, ops_per_client,
                          read_fraction, &failures] {
      qcnt::Rng rng(t * 7919 + 13);
      std::vector<runtime::OpFuture> futures;
      futures.reserve(ops_per_client);
      for (std::size_t i = 0; i < ops_per_client; ++i) {
        // Distinct-key spread: ops on disjoint items may pipeline.
        const std::string key = "k" + std::to_string(i % 64);
        if (rng.Chance(read_fraction)) {
          futures.push_back(client->SubmitRead(key));
        } else {
          futures.push_back(
              client->SubmitWrite(key, static_cast<std::int64_t>(i)));
        }
      }
      client->Drain();
      for (auto& f : futures) {
        if (!f.Get().ok) ++failures;
      }
    });
  }
  for (auto& th : threads) th.join();
  const double secs =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  const double total =
      static_cast<double>(client_threads * ops_per_client);
  return failures.load() == 0 ? total / secs : 0.0;
}

void PrintThroughput() {
  bench::Banner(
      "E8: threaded runtime throughput (ops/s), 5 replicas, 4 client "
      "threads, 8 keys");
  bench::Table table({"strategy", "reads=10%", "reads=50%", "reads=90%"});
  const std::size_t ops = 400;
  for (const quorum::QuorumSystem& s :
       {quorum::MajoritySystem(5), quorum::ReadOneWriteAllSystem(5),
        quorum::ReadAllWriteOneSystem(5)}) {
    std::vector<std::string> row{s.name};
    for (double f : {0.1, 0.5, 0.9}) {
      row.push_back(bench::Table::Num(MeasureOpsPerSec(s, f, 4, ops), 0));
    }
    table.AddRow(std::move(row));
  }
  table.Print();
  std::cout << "\nShape checks: throughput rises with the read fraction for "
               "every strategy (reads are\none-phase, writes two-phase). "
               "With every replica in-process the strategies' absolute\n"
               "ranking is noisy; the wide-area trade-off between them is "
               "measured in E7/E11 where\nlink latency dominates.\n";
}

void PrintBatchedThroughput() {
  bench::Banner(
      "E8b: batched pipeline vs sync client (ops/s), majority(5), 4 client "
      "threads, 64 keys");
  bench::Table table({"reads", "sync", "async depth=1", "async depth=16",
                      "speedup @16"});
  const std::size_t ops = 400;
  const quorum::QuorumSystem majority = quorum::MajoritySystem(5);
  for (double f : {0.1, 0.5, 0.9}) {
    const double sync = MeasureOpsPerSec(majority, f, 4, ops);
    const double d1 = MeasureBatchedOpsPerSec(majority, f, 4, ops, 1);
    const double d16 = MeasureBatchedOpsPerSec(majority, f, 4, ops, 16);
    table.AddRow({bench::Table::Num(f * 100, 0) + "%",
                  bench::Table::Num(sync, 0), bench::Table::Num(d1, 0),
                  bench::Table::Num(d16, 0),
                  bench::Table::Num(sync > 0 ? d16 / sync : 0, 2) + "x"});
  }
  table.Print();
  std::cout << "\nShape checks: depth 1 tracks the sync client (same "
               "round-trips per op); depth 16\npipelines disjoint-key ops "
               "and coalesces their phases into batch messages, so\n"
               "replicas serve many ops per mailbox wakeup. E15 "
               "(bench_batching) sweeps the\ndepth axis and the durable "
               "group-commit interaction.\n";
}

void BM_RuntimeReadMajority(benchmark::State& state) {
  StoreOptions options;
  options.replicas = 5;
  ReplicatedStore store(std::move(options));
  auto client = store.MakeClient();
  client->Write("k", 1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(client->Read("k").ok);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RuntimeReadMajority);

void BM_RuntimeWriteMajority(benchmark::State& state) {
  StoreOptions options;
  options.replicas = 5;
  ReplicatedStore store(std::move(options));
  auto client = store.MakeClient();
  std::int64_t v = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(client->Write("k", ++v).ok);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RuntimeWriteMajority);

}  // namespace

int main(int argc, char** argv) {
  PrintThroughput();
  PrintBatchedThroughput();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
