// E18 — the cost of the wire: in-process Bus vs. loopback TCP.
//
// The same ReplicatedStore, the same quorum protocol, two substrates:
// direct mailbox pushes (Bus) vs. the full codec + non-blocking-socket
// path (TcpTransport on 127.0.0.1, where senders write and each node's
// consumer reads its own connections). Three sections:
//
//   1. Sync latency — one blocking client, single-key read and write
//      round trips; reports mean and p99 microseconds per op. Every
//      quorum op is several messages (probe + install to every replica,
//      their responses), so the per-op delta is a few wire crossings.
//   2. Pipelined throughput — the async client with a deep window and
//      batching, ops/second. Batching amortizes framing as it amortizes
//      mailbox wakeups, so the relative gap narrows vs. section 1. One
//      cell is ~80 ms, so it is repeated (bench/repeat.hpp) and reported
//      as median [min, max].
//   3. Syscalls per wire frame for the TCP runs of sections 1 and 2 —
//      event-loop turns, wake-pipe writes, send(2) (made by senders
//      writing through and by the loop alike) and recv(2) (made by
//      consumers, and by the loop for a new connection's first frame) —
//      so a change to the send or receive path shows where its per-frame
//      cost went. tools/check_bench_transport.py gates the loop turns:
//      a warm link's frames must not pass through the event loop.
//
// The point of the experiment is honesty about deployment cost: the
// repo's other benchmarks measure protocol effects on the Bus; this one
// pins how much the real network multiplies the constant factor, on the
// same hardware, with zero protocol changes (the transport is swapped
// under an unchanged client/replica stack — the Transport abstraction is
// doing the work). Results print as tables and are written as JSON
// (argv[1], default "BENCH_transport.json", with host cores, build type
// and git revision) for CI archiving.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "runtime/store.hpp"
#include "repeat.hpp"
#include "table.hpp"

namespace {

using namespace qcnt;
using runtime::AsyncQuorumClient;
using runtime::ClientOptions;
using runtime::OpFuture;
using runtime::ReplicatedStore;
using runtime::StoreOptions;
using runtime::TcpStoreOptions;

constexpr std::size_t kReplicas = 5;
constexpr std::size_t kSyncOps = 2000;
constexpr std::size_t kAsyncOps = 20000;
constexpr std::size_t kWindow = 64;
constexpr std::size_t kKeys = 64;

StoreOptions Options(bool tcp) {
  StoreOptions o;
  o.replicas = kReplicas;
  if (tcp) o.tcp = TcpStoreOptions{};
  // Loopback is reliable but not instantaneous; retries keep scheduler
  // hiccups from aborting a latency sample.
  o.client_options.max_attempts = 3;
  return o;
}

/// Wire syscalls of a phase's TCP runs (summed over repetitions), per
/// wire frame.
struct SyscallRow {
  std::string phase;
  std::uint64_t frames = 0;
  double loop_turns = 0;
  double wake_writes = 0;
  double send_calls = 0;
  double recv_calls = 0;
};

SyscallRow PerFrame(const std::string& phase,
                    const std::vector<net::TcpStats>& runs) {
  net::TcpStats w;
  for (const net::TcpStats& r : runs) {
    w.frames_sent += r.frames_sent;
    w.loop_turns += r.loop_turns;
    w.wake_writes += r.wake_writes;
    w.send_calls += r.send_calls;
    w.recv_calls += r.recv_calls;
  }
  SyscallRow r;
  r.phase = phase;
  r.frames = w.frames_sent;
  const double f = w.frames_sent == 0 ? 1.0 : static_cast<double>(w.frames_sent);
  r.loop_turns = static_cast<double>(w.loop_turns) / f;
  r.wake_writes = static_cast<double>(w.wake_writes) / f;
  r.send_calls = static_cast<double>(w.send_calls) / f;
  r.recv_calls = static_cast<double>(w.recv_calls) / f;
  return r;
}

struct LatencyRow {
  std::string transport;
  std::string op;
  double mean_us = 0;
  double p50_us = 0;
  double p99_us = 0;
};

double Percentile(std::vector<double>& v, double p) {
  std::sort(v.begin(), v.end());
  const std::size_t i = static_cast<std::size_t>(p * (v.size() - 1));
  return v[i];
}

/// Mean/p50/p99 of kSyncOps blocking round trips per op type.
/// A TCP run appends its syscall counters to `syscalls`.
std::vector<LatencyRow> SyncLatency(bool tcp,
                                    std::vector<SyscallRow>& syscalls) {
  ReplicatedStore store(Options(tcp));
  auto client = store.MakeClient();
  const char* name = tcp ? "tcp" : "bus";

  std::vector<double> write_us, read_us;
  for (std::size_t i = 0; i < kSyncOps; ++i) {
    const std::string key = "k" + std::to_string(i % kKeys);
    auto w = client->Write(key, static_cast<std::int64_t>(i));
    if (w.ok) write_us.push_back(static_cast<double>(w.latency.count()));
    auto r = client->Read(key);
    if (r.ok) read_us.push_back(static_cast<double>(r.latency.count()));
  }
  if (tcp) syscalls.push_back(PerFrame("sync", {store.WireStats()}));

  auto row = [&](const char* op, std::vector<double>& v) {
    LatencyRow r;
    r.transport = name;
    r.op = op;
    double sum = 0;
    for (double x : v) sum += x;
    r.mean_us = v.empty() ? 0 : sum / static_cast<double>(v.size());
    r.p50_us = Percentile(v, 0.50);
    r.p99_us = Percentile(v, 0.99);
    return r;
  };
  return {row("read", read_us), row("write", write_us)};
}

struct ThroughputRun {
  double ops_per_sec = 0;
  double wall_ms = 0;
  net::TcpStats wire;  // all zero on the bus
};

struct ThroughputRow {
  std::string transport;
  bench::Spread ops_per_sec;
  bench::Spread wall_ms;
  std::uint64_t frames = 0;  // wire frames per run (tcp only; 0 on the bus)
};

/// One pipelined mixed workload (50/50 read/write) through the async
/// client, on a fresh store.
ThroughputRun AsyncThroughputOnce(bool tcp) {
  ReplicatedStore store(Options(tcp));
  ClientOptions aopts = Options(tcp).client_options;
  aopts.window = kWindow;
  auto client = store.MakeAsyncClient(aopts);

  const auto start = std::chrono::steady_clock::now();
  std::vector<OpFuture> inflight;
  inflight.reserve(kAsyncOps);
  for (std::size_t i = 0; i < kAsyncOps; ++i) {
    const std::string key = "k" + std::to_string(i % kKeys);
    if (i % 2 == 0) {
      inflight.push_back(
          client->SubmitWrite(key, static_cast<std::int64_t>(i)));
    } else {
      inflight.push_back(client->SubmitRead(key));
    }
  }
  client->Flush();
  std::size_t ok = 0;
  for (auto& f : inflight) ok += f.Get().ok ? 1 : 0;
  const auto wall = std::chrono::duration<double, std::milli>(
      std::chrono::steady_clock::now() - start);

  ThroughputRun r;
  r.wall_ms = wall.count();
  r.ops_per_sec = static_cast<double>(ok) / (wall.count() / 1000.0);
  r.wire = store.WireStats();
  return r;
}

/// The pipelined cell, repeated. A TCP row appends its syscall counters,
/// summed over the repetitions, to `syscalls`.
ThroughputRow AsyncThroughput(bool tcp, std::vector<SyscallRow>& syscalls) {
  const std::vector<ThroughputRun> runs =
      bench::Repeat([tcp] { return AsyncThroughputOnce(tcp); });
  ThroughputRow r;
  r.transport = tcp ? "tcp" : "bus";
  r.ops_per_sec = bench::SpreadOf(
      runs, [](const ThroughputRun& run) { return run.ops_per_sec; });
  r.wall_ms = bench::SpreadOf(
      runs, [](const ThroughputRun& run) { return run.wall_ms; });
  r.frames = runs.front().wire.frames_sent;
  std::vector<net::TcpStats> wire;
  for (const ThroughputRun& run : runs) wire.push_back(run.wire);
  if (tcp) syscalls.push_back(PerFrame("pipelined", wire));
  return r;
}

void WriteJson(const std::string& path, const std::vector<LatencyRow>& lat,
               const std::vector<ThroughputRow>& thr,
               const std::vector<SyscallRow>& sys) {
  std::ofstream os(path);
  os << "{\n  \"experiment\": \"E18\",\n";
  os << "  \"host_cores\": " << std::thread::hardware_concurrency() << ",\n";
  os << "  \"build_type\": \"" << QCNT_BUILD_TYPE << "\",\n";
  os << "  \"git\": \"" << bench::GitRevision() << "\",\n";
  os << "  \"replicas\": " << kReplicas << ",\n";
  os << "  \"sync_ops\": " << kSyncOps << ",\n";
  os << "  \"async_ops\": " << kAsyncOps << ",\n";
  os << "  \"async_window\": " << kWindow << ",\n";
  os << "  \"sync_latency_us\": [\n";
  for (std::size_t i = 0; i < lat.size(); ++i) {
    const LatencyRow& r = lat[i];
    os << "    {\"transport\": \"" << r.transport << "\", \"op\": \"" << r.op
       << "\", \"mean\": " << bench::Table::Num(r.mean_us, 1)
       << ", \"p50\": " << bench::Table::Num(r.p50_us, 1)
       << ", \"p99\": " << bench::Table::Num(r.p99_us, 1) << "}"
       << (i + 1 < lat.size() ? "," : "") << "\n";
  }
  os << "  ],\n  \"async_throughput\": [\n";
  for (std::size_t i = 0; i < thr.size(); ++i) {
    const ThroughputRow& r = thr[i];
    // ops_per_sec and wall_ms are medians; the spreads sit beside them.
    os << "    {\"transport\": \"" << r.transport
       << "\", \"ops_per_sec\": " << bench::Table::Num(r.ops_per_sec.median, 0)
       << ", \"wall_ms\": " << bench::Table::Num(r.wall_ms.median, 1)
       << ", \"ops_per_sec_spread\": " << r.ops_per_sec.Json(0)
       << ", \"wall_ms_spread\": " << r.wall_ms.Json(1)
       << ", \"wire_frames\": " << r.frames << "}"
       << (i + 1 < thr.size() ? "," : "") << "\n";
  }
  os << "  ],\n  \"tcp_syscalls_per_frame\": [\n";
  for (std::size_t i = 0; i < sys.size(); ++i) {
    const SyscallRow& r = sys[i];
    os << "    {\"phase\": \"" << r.phase << "\", \"wire_frames\": " << r.frames
       << ", \"loop_turns\": " << bench::Table::Num(r.loop_turns, 3)
       << ", \"wake_writes\": " << bench::Table::Num(r.wake_writes, 3)
       << ", \"send_calls\": " << bench::Table::Num(r.send_calls, 3)
       << ", \"recv_calls\": " << bench::Table::Num(r.recv_calls, 3) << "}"
       << (i + 1 < sys.size() ? "," : "") << "\n";
  }
  os << "  ]\n}\n";
}

}  // namespace

int main(int argc, char** argv) {
  const std::string json_path =
      argc > 1 ? argv[1] : "BENCH_transport.json";

  bench::Banner("E18.1 — sync quorum op latency: bus vs loopback TCP");
  std::vector<LatencyRow> lat;
  std::vector<SyscallRow> sys;
  for (bool tcp : {false, true}) {
    auto rows = SyncLatency(tcp, sys);
    lat.insert(lat.end(), rows.begin(), rows.end());
  }
  {
    bench::Table t({"transport", "op", "mean us", "p50 us", "p99 us"});
    for (const LatencyRow& r : lat) {
      t.AddRow({r.transport, r.op, bench::Table::Num(r.mean_us, 1),
                bench::Table::Num(r.p50_us, 1),
                bench::Table::Num(r.p99_us, 1)});
    }
    t.Print();
  }

  bench::Banner("E18.2 — pipelined async throughput: bus vs loopback TCP");
  std::vector<ThroughputRow> thr;
  for (bool tcp : {false, true}) thr.push_back(AsyncThroughput(tcp, sys));
  {
    bench::Table t({"transport", "reps", "ops/s", "wall ms",
                    "wire frames/run"});
    for (const ThroughputRow& r : thr) {
      t.AddRow({r.transport, std::to_string(r.ops_per_sec.reps),
                r.ops_per_sec.Cell(0), r.wall_ms.Cell(1),
                std::to_string(r.frames)});
    }
    t.Print();
  }

  bench::Banner("E18.3 — TCP syscalls per wire frame");
  {
    bench::Table t({"phase", "wire frames", "loop turns", "wake writes",
                    "send calls", "recv calls"});
    for (const SyscallRow& r : sys) {
      t.AddRow({r.phase, std::to_string(r.frames),
                bench::Table::Num(r.loop_turns, 3),
                bench::Table::Num(r.wake_writes, 3),
                bench::Table::Num(r.send_calls, 3),
                bench::Table::Num(r.recv_calls, 3)});
    }
    t.Print();
  }

  // Shape checks: every section produced data, and the TCP path really
  // used the wire (nonzero frames) while the bus did not.
  bool ok = lat.size() == 4 && thr.size() == 2 && sys.size() == 2;
  for (const LatencyRow& r : lat) ok = ok && r.mean_us > 0;
  for (const ThroughputRow& r : thr) ok = ok && r.ops_per_sec.min > 0;
  ok = ok && thr[0].frames == 0 && thr[1].frames > 0;

  WriteJson(json_path, lat, thr, sys);
  std::cout << "\n" << (ok ? "OK" : "SHAPE CHECK FAILED") << "; wrote "
            << json_path << "\n";
  return ok ? 0 : 1;
}
