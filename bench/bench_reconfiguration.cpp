// E9 — reconfiguration restores availability after failures (Section 4).
//
// Timeline experiment on the simulated store: majority(5) initially; two
// replicas crash; optionally a Gifford reconfiguration shrinks the
// configuration to the three survivors; then a third replica crashes. The
// table reports write success rates in each phase, with and without the
// reconfiguration — "if some DMs are down, we may want to change the
// quorums so that logical accesses can be processed in spite of the
// failures."
#include <benchmark/benchmark.h>

#include "quorum/strategies.hpp"
#include "sim/store.hpp"
#include "table.hpp"

namespace {

using namespace qcnt;
using sim::Deployment;
using sim::LatencyModel;
using sim::OpResult;

struct PhaseStats {
  std::size_t ok = 0;
  std::size_t attempts = 0;
  std::string Ratio() const {
    return std::to_string(ok) + "/" + std::to_string(attempts);
  }
};

struct TimelineResult {
  PhaseStats healthy, degraded, after_third_crash;
  bool reconfig_ok = false;
  std::uint64_t final_generation = 0;
};

TimelineResult RunTimeline(bool reconfigure, std::uint64_t seed) {
  std::vector<quorum::QuorumSystem> configs{
      quorum::MajoritySystem(5),
      quorum::FromConfiguration(
          "survivors-012",
          quorum::Configuration({{0, 1}, {0, 2}, {1, 2}},
                                {{0, 1}, {0, 2}, {1, 2}}))};
  Deployment d(5, 1, configs, 0, LatencyModel::Uniform(1.0, 3.0), 0.0, seed,
               {.timeout = std::chrono::milliseconds(200),
                .target_minimal = false});
  TimelineResult result;

  auto run_writes = [&d](PhaseStats& stats, std::size_t count,
                         std::int64_t base) {
    for (std::size_t i = 0; i < count; ++i) {
      ++stats.attempts;
      bool* ok_ptr = nullptr;
      bool ok = false;
      ok_ptr = &ok;
      d.clients[0]->Write(base + static_cast<std::int64_t>(i),
                          [ok_ptr](const OpResult& r) { *ok_ptr = r.ok; });
      d.sim.Run();
      if (ok) ++stats.ok;
    }
  };

  run_writes(result.healthy, 20, 100);

  d.net.Crash(3);
  d.net.Crash(4);
  run_writes(result.degraded, 20, 200);

  if (reconfigure) {
    d.clients[0]->Reconfigure(1, [&](const OpResult& r) {
      result.reconfig_ok = r.ok;
    });
    d.sim.Run();
  }

  d.net.Crash(2);
  run_writes(result.after_third_crash, 20, 300);
  result.final_generation = d.clients[0]->BelievedGeneration();
  return result;
}

/// Prints the timeline; returns whether its shape checks held.
bool PrintTimeline() {
  bench::Banner(
      "E9: write success along a failure timeline (majority(5); crash "
      "{3,4}; [reconfig]; crash {2})");
  bench::Table table({"variant", "healthy", "after 2 crashes",
                      "after 3rd crash", "reconfig", "final gen"});
  const TimelineResult without = RunTimeline(false, 11);
  table.AddRow({"fixed configuration", without.healthy.Ratio(),
                without.degraded.Ratio(),
                without.after_third_crash.Ratio(), "-",
                std::to_string(without.final_generation)});
  const TimelineResult with = RunTimeline(true, 11);
  table.AddRow({"with reconfiguration", with.healthy.Ratio(),
                with.degraded.Ratio(), with.after_third_crash.Ratio(),
                with.reconfig_ok ? "ok" : "FAILED",
                std::to_string(with.final_generation)});
  table.Print();
  std::cout << "\nShape checks: both variants survive a minority of "
               "crashes; only the reconfigured\nsystem keeps accepting "
               "writes once 3 of 5 replicas are down.\n";
  const bool a = bench::ShapeCheck(
      without.after_third_crash.ok == 0,
      "the fixed configuration accepts 0/20 writes after the third crash");
  const bool b = bench::ShapeCheck(
      with.reconfig_ok &&
          with.after_third_crash.ok == with.after_third_crash.attempts &&
          with.final_generation == 1,
      "the reconfigured system accepts 20/20 at generation 1");
  return a && b;
}

void BM_ReconfigurationOp(benchmark::State& state) {
  std::uint64_t seed = 1;
  for (auto _ : state) {
    std::vector<quorum::QuorumSystem> configs{
        quorum::MajoritySystem(5),
        quorum::FromConfiguration(
            "survivors",
            quorum::Configuration({{0, 1}, {0, 2}, {1, 2}},
                                  {{0, 1}, {0, 2}, {1, 2}}))};
    Deployment d(5, 1, configs, 0, LatencyModel::Fixed(1.0), 0.0, seed++);
    bool ok = false;
    d.clients[0]->Reconfigure(1, [&ok](const OpResult& r) { ok = r.ok; });
    d.sim.Run();
    benchmark::DoNotOptimize(ok);
  }
}
BENCHMARK(BM_ReconfigurationOp);

}  // namespace

int main(int argc, char** argv) {
  const bool shape_ok = PrintTimeline();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return shape_ok ? 0 : 1;
}
