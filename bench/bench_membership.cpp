// E19 — the client-visible cost of growing the replica set online.
//
// A 3-replica store serves a pipelined read/write mix from concurrent
// clients while a MembershipCoordinator runs the full three-phase join
// of DESIGN.md §11 (bulk catchup, stamp, seal) against a preloaded
// image. Throughput is sampled in three windows:
//
//   steady       — before the join starts
//   during_join  — exactly the wall-clock span of AddReplica()
//   after_join   — after the new 4-replica configuration is installed
//
// The gate: during_join throughput must stay at or above 50% of steady.
// Catchup chunks are bounded and donor-side reads interleave with live
// writes on the donor's loop, so a join should cost a fraction of
// throughput, not an outage — this experiment is the regression fence for
// that claim.
// Results print as a table and are written as JSON (argv[1], default
// "BENCH_membership.json") for CI archiving, like the other bench gates.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "reconfig/catchup.hpp"
#include "runtime/store.hpp"
#include "table.hpp"

namespace {

using namespace qcnt;
using runtime::AsyncQuorumClient;
using runtime::ClientOptions;
using runtime::OpFuture;
using runtime::ReplicatedStore;
using runtime::StoreOptions;

constexpr std::size_t kReplicas = 3;
constexpr std::size_t kTrafficClients = 2;
constexpr std::size_t kPreloadKeys = 6000;
constexpr std::size_t kTrafficKeys = 64;
constexpr auto kSteadyWindow = std::chrono::milliseconds(500);
constexpr double kGateMinRatio = 0.5;
// A single join lasts tens of milliseconds — one sample is scheduler
// noise on a small machine. Three grow/shrink cycles are measured and
// the gate is judged on the median during-join ratio.
constexpr std::size_t kJoinCycles = 3;

struct WindowRow {
  std::string phase;
  double ops_per_sec = 0;
  double wall_ms = 0;
};

/// Count of completed-ok client ops, shared across traffic threads.
std::atomic<std::uint64_t> g_ok{0};
std::atomic<bool> g_stop{false};

void Traffic(ReplicatedStore& store, std::size_t id) {
  // Pipelined traffic, as in the E2E membership tests: the window
  // overlaps quorum latency, so the measured dip reflects lost capacity
  // rather than a blocking client's amplified queuing delay.
  ClientOptions aopts;
  aopts.window = 16;
  aopts.max_batch = 8;
  aopts.max_attempts = 8;
  aopts.timeout = std::chrono::milliseconds(250);
  auto client = store.MakeAsyncClient(aopts);
  std::uint64_t i = 0;
  std::vector<OpFuture> burst;
  while (!g_stop.load(std::memory_order_relaxed)) {
    burst.clear();
    for (std::size_t b = 0; b < 256; ++b, ++i) {
      const std::string key =
          "t" + std::to_string((id * 31 + i) % kTrafficKeys);
      if (i % 2 == 0) {
        burst.push_back(client->SubmitWrite(key, static_cast<std::int64_t>(i)));
      } else {
        burst.push_back(client->SubmitRead(key));
      }
    }
    client->Drain();
    for (auto& f : burst) {
      if (f.Get().ok) g_ok.fetch_add(1, std::memory_order_relaxed);
    }
  }
}

/// Ops/s over one sampling window delimited by the caller.
struct Sampler {
  std::uint64_t ops0 = 0;
  std::chrono::steady_clock::time_point t0;
  void Begin() {
    ops0 = g_ok.load();
    t0 = std::chrono::steady_clock::now();
  }
  WindowRow End(const std::string& phase) {
    const auto wall = std::chrono::duration<double, std::milli>(
        std::chrono::steady_clock::now() - t0);
    WindowRow r;
    r.phase = phase;
    r.wall_ms = wall.count();
    r.ops_per_sec = static_cast<double>(g_ok.load() - ops0) /
                    (wall.count() / 1000.0);
    return r;
  }
};

void WriteJson(const std::string& path, const std::vector<WindowRow>& rows,
               const reconfig::MembershipReport& report, double ratio) {
  std::ofstream os(path);
  os << "{\n  \"experiment\": \"E19\",\n";
  os << "  \"replicas_before\": " << kReplicas << ",\n";
  os << "  \"replicas_after\": " << (kReplicas + 1) << ",\n";
  os << "  \"traffic_clients\": " << kTrafficClients << ",\n";
  os << "  \"preloaded_keys\": " << kPreloadKeys << ",\n";
  os << "  \"catchup_entries\": " << report.catchup_entries << ",\n";
  os << "  \"seal_entries\": " << report.seal_entries << ",\n";
  os << "  \"windows\": [\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    os << "    {\"phase\": \"" << rows[i].phase
       << "\", \"ops_per_sec\": " << bench::Table::Num(rows[i].ops_per_sec, 0)
       << ", \"wall_ms\": " << bench::Table::Num(rows[i].wall_ms, 1) << "}"
       << (i + 1 < rows.size() ? "," : "") << "\n";
  }
  os << "  ],\n";
  os << "  \"join_cycles\": " << kJoinCycles << ",\n";
  os << "  \"during_over_steady_median\": " << bench::Table::Num(ratio, 3)
     << ",\n";
  os << "  \"gate_min_ratio\": " << bench::Table::Num(kGateMinRatio, 2)
     << "\n}\n";
}

}  // namespace

int main(int argc, char** argv) {
  const std::string json_path =
      argc > 1 ? argv[1] : "BENCH_membership.json";

  StoreOptions o;
  o.replicas = kReplicas;
  o.max_clients = kTrafficClients + 2;  // traffic + preloader + audit slack
  // Retries with a short per-attempt deadline keep a scheduler hiccup
  // from reading as a membership-induced throughput dip: an op parked
  // behind a seal burst re-issues in 250ms instead of stalling a second.
  o.client_options.max_attempts = 8;
  o.client_options.timeout = std::chrono::milliseconds(250);
  ReplicatedStore store(o);

  // Preload the image the joiner will have to stream: this is what makes
  // the join window long enough to sample (catchup + a 3-donor seal).
  {
    auto preloader = store.MakeClient();
    for (std::size_t i = 0; i < kPreloadKeys; ++i) {
      preloader->Write("p" + std::to_string(i), static_cast<std::int64_t>(i));
    }
  }

  std::vector<std::thread> traffic;
  for (std::size_t c = 0; c < kTrafficClients; ++c) {
    traffic.emplace_back(Traffic, std::ref(store), c);
  }

  bench::Banner("E19 — client throughput across an online join (3 -> 4)");
  std::vector<WindowRow> rows;
  Sampler s;

  s.Begin();
  std::this_thread::sleep_for(kSteadyWindow);
  rows.push_back(s.End("steady"));
  const double steady = rows[0].ops_per_sec;

  reconfig::MembershipOptions mopts;
  // Small chunks are the latency knob: each catchup/seal install is a
  // burst of replica work that client ops queue behind, so bounding the
  // burst is what keeps the dip inside the gate.
  mopts.chunk_entries = 32;

  reconfig::MembershipReport report;
  bool joins_ok = true;
  std::vector<double> ratios;
  for (std::size_t cycle = 0; cycle < kJoinCycles; ++cycle) {
    s.Begin();
    report = reconfig::AddReplica(store, mopts);
    const WindowRow w =
        s.End("during_join_" + std::to_string(cycle + 1));
    rows.push_back(w);
    ratios.push_back(steady > 0 ? w.ops_per_sec / steady : 0);
    joins_ok = joins_ok && report.ok;
    if (cycle + 1 < kJoinCycles) {
      // Shrink back so every cycle measures the same 3 -> 4 transition.
      joins_ok =
          joins_ok && reconfig::RemoveReplica(store, report.node, mopts).ok;
    }
  }

  s.Begin();
  std::this_thread::sleep_for(kSteadyWindow);
  rows.push_back(s.End("after_join"));

  g_stop.store(true);
  for (auto& t : traffic) t.join();

  {
    bench::Table t({"phase", "ops/s", "wall ms"});
    for (const WindowRow& r : rows) {
      t.AddRow({r.phase, bench::Table::Num(r.ops_per_sec, 0),
                bench::Table::Num(r.wall_ms, 1)});
    }
    t.Print();
  }
  std::cout << "join ok=" << report.ok
            << " catchup_entries=" << report.catchup_entries
            << " seal_entries=" << report.seal_entries
            << " generation=" << report.generation << "\n";

  std::vector<double> sorted = ratios;
  std::sort(sorted.begin(), sorted.end());
  const double ratio = sorted[sorted.size() / 2];  // median
  WriteJson(json_path, rows, report, ratio);

  // Gate: every join/shrink completed, the store really grew, traffic
  // flowed in every window, and the median dip stayed within budget.
  bool ok = joins_ok && store.Members().size() == kReplicas + 1;
  for (const WindowRow& r : rows) ok = ok && r.ops_per_sec > 0;
  ok = ok && ratio >= kGateMinRatio;
  std::cout << "\nmedian during/steady = " << bench::Table::Num(ratio, 3)
            << " (gate >= " << kGateMinRatio << "); "
            << (ok ? "OK" : "GATE FAILED") << "; wrote " << json_path << "\n";
  return ok ? 0 : 1;
}
