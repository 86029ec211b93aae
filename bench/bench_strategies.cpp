// E21 — quorum strategy selection under workload, and the cost of
// switching strategies live.
//
// Section 1 (read_heavy): the same 95%-read workload driven at the same
// 5-replica store under three strategies — majority (the old hardcoded
// default), ROWA, and a read-dominant weighted system (R=2, W=4). With
// minimal-quorum targeting a majority read costs 3+3 messages while a
// ROWA read costs 1+1, so the read-optimized strategies must beat
// majority on read throughput; the CI gate (tools/
// check_bench_strategies.py) enforces exactly that, plus the measured
// messages/op ordering.
//
// Section 2 (switch_under_traffic): client threads drive a mixed
// workload while the coordinator flips the strategy between majority and
// ROWA every ~150 ms via the §4 reconfiguration path (the same machinery
// the StrategyAdvisor uses). Throughput is sampled in 100 ms windows for
// a steady phase (no switches) and a switching phase; the gate requires
// the during-switch median to hold at least half the steady median —
// live strategy switches must be a blip, not an outage.
//
// Results print as tables and are written as JSON (argv[1], default
// "BENCH_strategies.json") so CI can archive and gate them.
#include <atomic>
#include <algorithm>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "runtime/store.hpp"
#include "runtime/strategy_advisor.hpp"
#include "table.hpp"

namespace {

using namespace qcnt;
using namespace std::chrono_literals;
using runtime::AsyncQuorumClient;
using runtime::ClientOptions;
using runtime::OpFuture;
using runtime::ReplicatedStore;
using runtime::StoreOptions;
using runtime::StrategyAdvisor;
using runtime::StrategyAdvisorOptions;

constexpr std::size_t kReplicas = 5;
constexpr std::size_t kClientThreads = 3;
constexpr std::size_t kOpsPerClient = 4000;
constexpr std::size_t kKeys = 128;
constexpr double kReadFraction = 0.95;

struct StrategyRow {
  std::string spec;
  double ops_per_sec = 0;
  double messages_per_op = 0;
  std::uint64_t failures = 0;
  double speedup = 1.0;  // vs the majority row
};

StrategyRow MeasureReadHeavy(const std::string& spec, std::uint64_t seed) {
  StoreOptions options;
  options.replicas = kReplicas;
  options.max_clients = kClientThreads + 1;  // +1: the seeding client
  options.strategy = spec;
  ReplicatedStore store(std::move(options));

  // Seed every key so reads always resolve.
  {
    auto seeder = store.MakeClient();
    for (std::size_t k = 0; k < kKeys; ++k) {
      seeder->Write("k" + std::to_string(k), 1);
    }
  }

  std::atomic<std::uint64_t> failures{0};
  const std::uint64_t msgs_before = store.MessagesSent();
  const auto start = std::chrono::steady_clock::now();
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kClientThreads; ++t) {
    threads.emplace_back([&, t] {
      auto client = store.MakeAsyncClient(
          ClientOptions{.window = 32, .max_batch = 16});
      Rng rng(seed + t);
      std::vector<OpFuture> futures;
      futures.reserve(kOpsPerClient);
      for (std::size_t i = 0; i < kOpsPerClient; ++i) {
        const std::string key =
            "k" + std::to_string(rng.Next() % kKeys);
        if (rng.NextDouble() < kReadFraction) {
          futures.push_back(client->SubmitRead(key));
        } else {
          futures.push_back(client->SubmitWrite(
              key, static_cast<std::int64_t>(i)));
        }
      }
      client->Drain();
      for (OpFuture& f : futures) {
        if (!f.Get().ok) failures.fetch_add(1);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  const double secs =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  const double total_ops =
      static_cast<double>(kClientThreads * kOpsPerClient);
  StrategyRow row;
  row.spec = spec;
  row.ops_per_sec = total_ops / secs;
  row.messages_per_op =
      static_cast<double>(store.MessagesSent() - msgs_before) / total_ops;
  row.failures = failures.load();
  return row;
}

struct SwitchResult {
  std::vector<std::uint64_t> steady_windows;
  std::vector<std::uint64_t> switch_windows;
  double steady_median_ops = 0;    // per second
  double switch_median_ops = 0;    // per second
  double ratio = 0;
  std::uint64_t switches = 0;
  std::uint64_t failures = 0;
};

double MedianPerSec(std::vector<std::uint64_t> windows,
                    std::chrono::milliseconds window) {
  if (windows.empty()) return 0;
  std::sort(windows.begin(), windows.end());
  const double mid =
      static_cast<double>(windows[windows.size() / 2]);
  return mid * (1000.0 / static_cast<double>(window.count()));
}

SwitchResult MeasureSwitchUnderTraffic() {
  constexpr auto kWindow = 100ms;
  constexpr auto kPhase = 1200ms;
  constexpr auto kSwitchEvery = 150ms;

  StoreOptions options;
  options.replicas = 3;
  options.max_clients = kClientThreads;
  options.strategy = "majority";
  ReplicatedStore store(std::move(options));

  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> completed{0};
  std::atomic<std::uint64_t> failures{0};
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kClientThreads; ++t) {
    threads.emplace_back([&, t] {
      auto client = store.MakeClient();
      Rng rng(900 + t);
      std::uint64_t i = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        const std::string key =
            "k" + std::to_string(rng.Next() % kKeys);
        const bool ok = (rng.NextDouble() < 0.8)
                            ? client->Read(key).ok
                            : client->Write(key, static_cast<std::int64_t>(
                                                     ++i)).ok;
        completed.fetch_add(1, std::memory_order_relaxed);
        if (!ok) failures.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }

  const auto sample_phase = [&](std::chrono::milliseconds duration) {
    std::vector<std::uint64_t> windows;
    const auto end = std::chrono::steady_clock::now() + duration;
    std::uint64_t last = completed.load();
    while (std::chrono::steady_clock::now() < end) {
      std::this_thread::sleep_for(kWindow);
      const std::uint64_t now_done = completed.load();
      windows.push_back(now_done - last);
      last = now_done;
    }
    return windows;
  };

  SwitchResult r;
  // Phase A: steady state under majority, no reconfiguration.
  r.steady_windows = sample_phase(kPhase);

  // Phase B: flip majority <-> ROWA through §4 reconfigurations while
  // the same traffic continues.
  StrategyAdvisor advisor(store, StrategyAdvisorOptions{});
  std::atomic<bool> switching{true};
  std::thread switcher([&] {
    bool to_rowa = true;
    while (switching.load()) {
      std::this_thread::sleep_for(kSwitchEvery);
      quorum::StrategyDescriptor d;
      d.kind = to_rowa ? quorum::StrategyKind::kReadOneWriteAll
                       : quorum::StrategyKind::kMajority;
      std::string error;
      if (advisor.SwitchTo(d, &error)) {
        ++r.switches;
        to_rowa = !to_rowa;
      }
    }
  });
  r.switch_windows = sample_phase(kPhase);
  switching.store(false);
  switcher.join();
  stop.store(true);
  for (std::thread& t : threads) t.join();

  r.steady_median_ops = MedianPerSec(r.steady_windows, kWindow);
  r.switch_median_ops = MedianPerSec(r.switch_windows, kWindow);
  r.ratio = r.steady_median_ops > 0
                ? r.switch_median_ops / r.steady_median_ops
                : 0;
  r.failures = failures.load();
  return r;
}

std::string WindowList(const std::vector<std::uint64_t>& v) {
  std::string out = "[";
  for (std::size_t i = 0; i < v.size(); ++i) {
    out += std::to_string(v[i]);
    if (i + 1 < v.size()) out += ", ";
  }
  return out + "]";
}

void WriteJson(const std::string& path,
               const std::vector<StrategyRow>& read_heavy,
               const SwitchResult& sw) {
  std::ofstream os(path);
  os << "{\n"
     << "  \"experiment\": \"E21\",\n"
     << "  \"replicas\": " << kReplicas << ",\n"
     << "  \"client_threads\": " << kClientThreads << ",\n"
     << "  \"ops_per_client\": " << kOpsPerClient << ",\n"
     << "  \"read_fraction\": " << kReadFraction << ",\n"
     << "  \"hardware_concurrency\": "
     << std::thread::hardware_concurrency() << ",\n"
     << "  \"read_heavy\": [\n";
  for (std::size_t i = 0; i < read_heavy.size(); ++i) {
    const StrategyRow& row = read_heavy[i];
    os << "    {\"strategy\": \"" << row.spec << "\""
       << ", \"ops_per_sec\": " << bench::Table::Num(row.ops_per_sec, 0)
       << ", \"messages_per_op\": "
       << bench::Table::Num(row.messages_per_op, 2)
       << ", \"speedup_vs_majority\": " << bench::Table::Num(row.speedup, 2)
       << ", \"failures\": " << row.failures << "}"
       << (i + 1 < read_heavy.size() ? "," : "") << "\n";
  }
  os << "  ],\n"
     << "  \"switch_under_traffic\": {\n"
     << "    \"steady_median_ops_per_sec\": "
     << bench::Table::Num(sw.steady_median_ops, 0) << ",\n"
     << "    \"during_switch_median_ops_per_sec\": "
     << bench::Table::Num(sw.switch_median_ops, 0) << ",\n"
     << "    \"ratio\": " << bench::Table::Num(sw.ratio, 3) << ",\n"
     << "    \"switches\": " << sw.switches << ",\n"
     << "    \"failures\": " << sw.failures << ",\n"
     << "    \"steady_windows\": " << WindowList(sw.steady_windows) << ",\n"
     << "    \"switch_windows\": " << WindowList(sw.switch_windows) << "\n"
     << "  }\n}\n";
}

}  // namespace

int main(int argc, char** argv) {
  const std::string json_path =
      argc > 1 ? argv[1] : "BENCH_strategies.json";

  bench::Banner("E21a: 95%-read workload, 5 replicas, per strategy");
  const std::vector<std::string> specs = {
      "majority", "rowa", "weighted:1,1,1,1,1:2:4"};
  std::vector<StrategyRow> read_heavy;
  for (std::size_t i = 0; i < specs.size(); ++i) {
    read_heavy.push_back(MeasureReadHeavy(specs[i], 7000 + 17 * i));
  }
  for (StrategyRow& row : read_heavy) {
    row.speedup = row.ops_per_sec / read_heavy[0].ops_per_sec;
  }
  bench::Table t1({"strategy", "ops/s", "msgs/op", "speedup vs majority",
                   "failures"});
  for (const StrategyRow& row : read_heavy) {
    t1.AddRow({row.spec, bench::Table::Num(row.ops_per_sec, 0),
               bench::Table::Num(row.messages_per_op, 2),
               bench::Table::Num(row.speedup, 2),
               std::to_string(row.failures)});
  }
  t1.Print();

  bench::Banner("E21b: live strategy switches under mixed traffic");
  const SwitchResult sw = MeasureSwitchUnderTraffic();
  bench::Table t2({"phase", "median ops/s", "windows"});
  t2.AddRow({"steady (majority)", bench::Table::Num(sw.steady_median_ops, 0),
             std::to_string(sw.steady_windows.size())});
  t2.AddRow({"switching every 150ms",
             bench::Table::Num(sw.switch_median_ops, 0),
             std::to_string(sw.switch_windows.size())});
  t2.Print();
  std::cout << "\nswitches installed: " << sw.switches
            << ", during/steady ratio: " << bench::Table::Num(sw.ratio, 3)
            << ", failures: " << sw.failures << "\n";

  WriteJson(json_path, read_heavy, sw);
  std::cout << "\nJSON written to " << json_path << "\n";
  return 0;
}
