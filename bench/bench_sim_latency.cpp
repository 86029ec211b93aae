// E7 — operation latency under replication (simulated network).
//
// Clients run logical reads and writes against n replicas over a network
// with exponential-tail latency. Percentiles per strategy show the quorum
// trade-off in time rather than messages: a read-one quorum completes on
// the first response, a majority quorum waits for the k-th order statistic,
// write-all waits for the slowest replica.
#include <benchmark/benchmark.h>

#include <algorithm>

#include "quorum/strategies.hpp"
#include "sim/store.hpp"
#include "table.hpp"

namespace {

using namespace qcnt;
using sim::Deployment;
using sim::LatencyModel;
using sim::OpResult;

struct LatencyStats {
  double p50 = 0.0, p95 = 0.0, p99 = 0.0;
  double success = 0.0;
};

LatencyStats Percentiles(std::vector<double>& v, std::size_t attempts) {
  LatencyStats s;
  s.success = static_cast<double>(v.size()) / static_cast<double>(attempts);
  if (v.empty()) return s;
  std::sort(v.begin(), v.end());
  auto pct = [&v](double p) {
    const std::size_t i = static_cast<std::size_t>(
        p * static_cast<double>(v.size() - 1));
    return v[i];
  };
  s.p50 = pct(0.50);
  s.p95 = pct(0.95);
  s.p99 = pct(0.99);
  return s;
}

std::pair<LatencyStats, LatencyStats> MeasureStrategy(
    const quorum::QuorumSystem& system, std::size_t ops,
    std::uint64_t seed) {
  Deployment d(system.n, 1, {system}, 0,
               LatencyModel::Exponential(/*mean=*/4.0, /*floor=*/1.0), 0.0,
               seed);
  std::vector<double> reads, writes;
  // Issue operations back-to-back: each completes (or times out) before
  // the next starts, so latencies are uncontended.
  std::function<void(std::size_t)> issue = [&](std::size_t remaining) {
    if (remaining == 0) return;
    if (remaining % 2 == 0) {
      d.clients[0]->Read([&, remaining](const OpResult& r) {
        if (r.ok) reads.push_back(r.latency);
        issue(remaining - 1);
      });
    } else {
      d.clients[0]->Write(static_cast<std::int64_t>(remaining),
                          [&, remaining](const OpResult& r) {
                            if (r.ok) writes.push_back(r.latency);
                            issue(remaining - 1);
                          });
    }
  };
  issue(ops);
  d.sim.Run();
  return {Percentiles(reads, ops / 2), Percentiles(writes, ops / 2)};
}

/// Prints the table; returns whether its shape checks held.
bool PrintLatency() {
  bench::Banner(
      "E7: simulated latency percentiles (ms), exponential link latency "
      "(floor 1ms, mean 5ms), n=5 / n=9");
  bench::Table table({"n", "strategy", "read p50/p95/p99",
                      "write p50/p95/p99"});
  // n = 5 rows, in order: read-one/write-all, majority, read-all/write-one.
  std::vector<std::pair<LatencyStats, LatencyStats>> n5;
  for (ReplicaId n : {5, 9}) {
    std::vector<quorum::QuorumSystem> strategies{
        quorum::ReadOneWriteAllSystem(n), quorum::MajoritySystem(n),
        quorum::ReadAllWriteOneSystem(n)};
    if (n == 9) strategies.push_back(quorum::GridSystem(3, 3));
    for (const auto& s : strategies) {
      const auto [r, w] = MeasureStrategy(s, 2000, 17 + n);
      if (n == 5) n5.emplace_back(r, w);
      table.AddRow(
          {std::to_string(n), s.name,
           bench::Table::Num(r.p50, 1) + "/" + bench::Table::Num(r.p95, 1) +
               "/" + bench::Table::Num(r.p99, 1),
           bench::Table::Num(w.p50, 1) + "/" + bench::Table::Num(w.p95, 1) +
               "/" + bench::Table::Num(w.p99, 1)});
    }
  }
  table.Print();
  std::cout << "\nShape checks: read-one/write-all has the fastest reads "
               "and slowest writes (waits for\nthe slowest replica); "
               "majority balances the two; larger n stretches the "
               "write-all tail.\n";
  bool fastest_read = true, slowest_write = true;
  for (std::size_t i = 1; i < n5.size(); ++i) {
    fastest_read = fastest_read && n5[0].first.p50 < n5[i].first.p50;
    slowest_write = slowest_write && n5[0].second.p99 > n5[i].second.p99;
  }
  const bool a = bench::ShapeCheck(
      fastest_read, "n=5 read-one/write-all has the fastest read p50");
  const bool b = bench::ShapeCheck(
      slowest_write, "n=5 read-one/write-all has the slowest write p99");
  return a && b;
}

void BM_SimulatedOps(benchmark::State& state) {
  std::uint64_t seed = 1;
  for (auto _ : state) {
    const auto stats = MeasureStrategy(quorum::MajoritySystem(5), 200,
                                       seed++);
    benchmark::DoNotOptimize(stats.first.p50);
  }
  state.SetItemsProcessed(state.iterations() * 200);
}
BENCHMARK(BM_SimulatedOps);

}  // namespace

int main(int argc, char** argv) {
  const bool shape_ok = PrintLatency();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return shape_ok ? 0 : 1;
}
