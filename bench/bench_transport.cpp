// E18 — the cost of the wire: in-process Bus vs. loopback TCP.
//
// The same ReplicatedStore, the same quorum protocol, two substrates:
// direct mailbox pushes (Bus) vs. the full codec + non-blocking-socket
// path (TcpTransport on 127.0.0.1, where senders write and each node's
// consumer reads its own connections). Four sections:
//
//   1. Sync latency — one blocking client, single-key read and write
//      round trips; reports mean, p50 and p99 microseconds per op. Every
//      quorum op is several messages (probe + install to every replica,
//      their responses), so the per-op delta is a few wire crossings.
//      One cell is ~40-300 ms, so it is repeated (bench/repeat.hpp) and
//      each figure is reported as median [min, max] over the repetitions.
//   2. Pipelined throughput — the async client with a deep window and
//      batching, ops/second. Batching amortizes framing as it amortizes
//      mailbox wakeups, so the relative gap narrows vs. section 1. One
//      cell is ~80 ms, so it is repeated (bench/repeat.hpp) and reported
//      as median [min, max].
//   3. Syscalls per wire frame for the TCP runs of sections 1 and 2 —
//      event-loop turns, wake-pipe writes, send(2) (made by senders
//      writing through and by the loop alike), recv(2) (made by
//      consumers, and by the loop for a new connection's first frame) and
//      receive-set polls (a consumer's zero-timeout epoll_wait before it
//      reads, or its park) — so a change to the send or receive path
//      shows where its per-frame cost went; beside them, the connections
//      dialed and the node pairs that exchanged frames.
//      tools/check_bench_transport.py gates the loop turns (a warm link's
//      frames must not pass through the event loop), the sync phase's
//      recv calls (a pull reads only the connections epoll reports ready)
//      and the connections per talking pair (one duplex connection per
//      node pair: a reply rides its request's socket).
//   4. Mailbox wakeups and parks per handoff for sections 1 and 2, on
//      both transports: how many deliveries into a mailbox (replicas' and
//      the client's) had to wake a parked consumer, and how many waits
//      ended parked. A consumer spins briefly on an empty queue before it
//      parks (net/mailbox.hpp), so a reply that comes within one round
//      trip needs no wake. tools/check_bench_transport.py gates the sync
//      phase on hosts with >= 4 cores: Bus wakeups and TCP parks (a TCP
//      reply arrives as socket bytes, so its wake is a park ending, not
//      a notify).
//   5. Heap allocations per op — every operator new of this binary, on
//      any thread (client, replicas, transport), counted while a window
//      is open: per blocking read, per blocking write and per pipelined
//      op, on both transports. Reported, not gated.
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
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <new>
#include <string>
#include <thread>
#include <vector>

#include "runtime/store.hpp"
#include "repeat.hpp"
#include "table.hpp"

namespace {
std::atomic<bool> g_count_allocs{false};
std::atomic<std::uint64_t> g_allocs{0};
}  // namespace

// E18.5's counter: the replaceable global allocation functions, counting
// while an AllocsPerOp window is open. operator new[] and the nothrow
// forms forward to these.
void* operator new(std::size_t size) {
  if (g_count_allocs.load(std::memory_order_relaxed)) {
    g_allocs.fetch_add(1, std::memory_order_relaxed);
  }
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}

void* operator new(std::size_t size, std::align_val_t align) {
  if (g_count_allocs.load(std::memory_order_relaxed)) {
    g_allocs.fetch_add(1, std::memory_order_relaxed);
  }
  const auto a = static_cast<std::size_t>(align);
  if (void* p = std::aligned_alloc(a, (size + a - 1) / a * a)) return p;
  throw std::bad_alloc();
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

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
  double ready_polls = 0;
  std::uint64_t connects = 0;
  std::uint64_t talking_pairs = 0;
  double ConnectsPerPair() const {
    return talking_pairs == 0 ? 0.0
                              : static_cast<double>(connects) /
                                    static_cast<double>(talking_pairs);
  }
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
    w.ready_polls += r.ready_polls;
    w.connects += r.connects;
    w.talking_pairs += r.talking_pairs;
  }
  SyscallRow r;
  r.phase = phase;
  r.frames = w.frames_sent;
  const double f = w.frames_sent == 0 ? 1.0 : static_cast<double>(w.frames_sent);
  r.loop_turns = static_cast<double>(w.loop_turns) / f;
  r.wake_writes = static_cast<double>(w.wake_writes) / f;
  r.send_calls = static_cast<double>(w.send_calls) / f;
  r.recv_calls = static_cast<double>(w.recv_calls) / f;
  r.ready_polls = static_cast<double>(w.ready_polls) / f;
  r.connects = w.connects;
  r.talking_pairs = w.talking_pairs;
  return r;
}

/// Deliveries into every mailbox of a phase's runs on one transport
/// (summed over repetitions), how many of them had to wake a parked
/// consumer, and how many waits ended parked.
struct MailboxRow {
  std::string transport;
  std::string phase;
  std::uint64_t handoffs = 0;
  std::uint64_t wakeups = 0;
  std::uint64_t parks = 0;
  double PerHandoff(std::uint64_t count) const {
    return handoffs == 0 ? 0.0
                         : static_cast<double>(count) /
                               static_cast<double>(handoffs);
  }
  MailboxRow& operator+=(const MailboxRow& o) {
    handoffs += o.handoffs;
    wakeups += o.wakeups;
    parks += o.parks;
    return *this;
  }
};

/// Handoffs, wakeups and parks of every mailbox on the store's transport.
MailboxRow MailboxCounters(ReplicatedStore& store) {
  MailboxRow w;
  net::Transport& t = store.TransportRef();
  for (std::size_t n = 0; n < t.NodeCount(); ++n) {
    const net::Mailbox& box = t.MailboxOf(static_cast<runtime::NodeId>(n));
    w.handoffs += box.Handoffs();
    w.wakeups += box.Wakeups();
    w.parks += box.Parks();
  }
  return w;
}

struct LatencyRow {
  std::string transport;
  std::string op;
  bench::Spread mean_us;
  bench::Spread p50_us;
  bench::Spread p99_us;
};

/// One sync cell's figures for one op type.
struct LatencyStats {
  double mean_us = 0;
  double p50_us = 0;
  double p99_us = 0;
};

LatencyStats Stats(std::vector<double>& v) {
  LatencyStats s;
  if (v.empty()) return s;
  std::sort(v.begin(), v.end());
  double sum = 0;
  for (double x : v) sum += x;
  s.mean_us = sum / static_cast<double>(v.size());
  s.p50_us = v[(v.size() - 1) / 2];
  s.p99_us = v[(v.size() - 1) * 99 / 100];
  return s;
}

struct SyncRun {
  LatencyStats read;
  LatencyStats write;
  net::TcpStats wire;  // all zero on the bus
  MailboxRow mailboxes;
};

/// kSyncOps blocking write + read round trips on a fresh store.
SyncRun SyncLatencyOnce(bool tcp) {
  ReplicatedStore store(Options(tcp));
  auto client = store.MakeClient();
  std::vector<double> write_us, read_us;
  for (std::size_t i = 0; i < kSyncOps; ++i) {
    const std::string key = "k" + std::to_string(i % kKeys);
    auto w = client->Write(key, static_cast<std::int64_t>(i));
    if (w.ok) write_us.push_back(static_cast<double>(w.latency.count()));
    auto r = client->Read(key);
    if (r.ok) read_us.push_back(static_cast<double>(r.latency.count()));
  }
  SyncRun run;
  run.read = Stats(read_us);
  run.write = Stats(write_us);
  run.wire = store.WireStats();
  run.mailboxes = MailboxCounters(store);
  return run;
}

/// The sync cell, repeated: read and write rows, each figure a spread
/// over the repetitions. Appends the mailbox counters to `mailboxes`
/// and, for TCP, the syscall counters to `syscalls`.
std::vector<LatencyRow> SyncLatency(bool tcp,
                                    std::vector<SyscallRow>& syscalls,
                                    std::vector<MailboxRow>& mailboxes) {
  const std::vector<SyncRun> runs =
      bench::Repeat([tcp] { return SyncLatencyOnce(tcp); });
  std::vector<net::TcpStats> wire;
  MailboxRow boxes;
  for (const SyncRun& run : runs) {
    wire.push_back(run.wire);
    boxes += run.mailboxes;
  }
  boxes.transport = tcp ? "tcp" : "bus";
  boxes.phase = "sync";
  mailboxes.push_back(boxes);
  if (tcp) syscalls.push_back(PerFrame("sync", wire));

  auto row = [&](const char* op, LatencyStats SyncRun::*which) {
    LatencyRow r;
    r.transport = tcp ? "tcp" : "bus";
    r.op = op;
    r.mean_us = bench::SpreadOf(
        runs, [&](const SyncRun& run) { return (run.*which).mean_us; });
    r.p50_us = bench::SpreadOf(
        runs, [&](const SyncRun& run) { return (run.*which).p50_us; });
    r.p99_us = bench::SpreadOf(
        runs, [&](const SyncRun& run) { return (run.*which).p99_us; });
    return r;
  };
  return {row("read", &SyncRun::read), row("write", &SyncRun::write)};
}

struct ThroughputRun {
  double ops_per_sec = 0;
  double wall_ms = 0;
  net::TcpStats wire;  // all zero on the bus
  MailboxRow mailboxes;
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
  r.mailboxes = MailboxCounters(store);
  return r;
}

/// The pipelined cell, repeated. Appends the mailbox counters, summed
/// over the repetitions, to `mailboxes` and, for TCP, the syscall
/// counters to `syscalls`.
ThroughputRow AsyncThroughput(bool tcp, std::vector<SyscallRow>& syscalls,
                              std::vector<MailboxRow>& mailboxes) {
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
  MailboxRow boxes;
  for (const ThroughputRun& run : runs) {
    wire.push_back(run.wire);
    boxes += run.mailboxes;
  }
  boxes.transport = r.transport;
  boxes.phase = "pipelined";
  mailboxes.push_back(boxes);
  if (tcp) syscalls.push_back(PerFrame("pipelined", wire));
  return r;
}

constexpr std::size_t kAllocOps = 2000;

/// Allocations made on every thread while `body` runs, per op of its
/// kAllocOps.
template <class Body>
double AllocsPerOp(Body&& body) {
  const std::uint64_t before = g_allocs.load();
  g_count_allocs.store(true);
  body();
  g_count_allocs.store(false);
  return static_cast<double>(g_allocs.load() - before) /
         static_cast<double>(kAllocOps);
}

struct AllocRun {
  double read = 0;
  double write = 0;
  double pipelined = 0;
};

struct AllocRow {
  std::string transport;
  bench::Spread read;
  bench::Spread write;
  bench::Spread pipelined;
};

/// On a fresh store, after a warm-up that dials every link and writes
/// every key once: kAllocOps blocking writes, then kAllocOps blocking
/// reads, then kAllocOps pipelined ops (50/50) through the async client.
AllocRun AllocsOnce(bool tcp) {
  ReplicatedStore store(Options(tcp));
  std::vector<std::string> keys;
  for (std::size_t k = 0; k < kKeys; ++k) {
    keys.push_back("k" + std::to_string(k));
  }
  AllocRun run;
  {
    auto client = store.MakeClient();
    for (const std::string& key : keys) {
      client->Write(key, 0);
      client->Read(key);
    }
    run.write = AllocsPerOp([&] {
      for (std::size_t i = 0; i < kAllocOps; ++i) {
        client->Write(keys[i % kKeys], static_cast<std::int64_t>(i));
      }
    });
    run.read = AllocsPerOp([&] {
      for (std::size_t i = 0; i < kAllocOps; ++i) client->Read(keys[i % kKeys]);
    });
  }
  ClientOptions aopts = Options(tcp).client_options;
  aopts.window = kWindow;
  auto client = store.MakeAsyncClient(aopts);
  for (const std::string& key : keys) client->SubmitWrite(key, 0);
  client->Drain();
  run.pipelined = AllocsPerOp([&] {
    for (std::size_t i = 0; i < kAllocOps; ++i) {
      const std::string& key = keys[i % kKeys];
      if (i % 2 == 0) {
        client->SubmitWrite(key, static_cast<std::int64_t>(i));
      } else {
        client->SubmitRead(key);
      }
    }
    client->Drain();
  });
  return run;
}

AllocRow Allocs(bool tcp) {
  const std::vector<AllocRun> runs =
      bench::Repeat([tcp] { return AllocsOnce(tcp); });
  AllocRow r;
  r.transport = tcp ? "tcp" : "bus";
  r.read = bench::SpreadOf(runs, [](const AllocRun& a) { return a.read; });
  r.write = bench::SpreadOf(runs, [](const AllocRun& a) { return a.write; });
  r.pipelined =
      bench::SpreadOf(runs, [](const AllocRun& a) { return a.pipelined; });
  return r;
}

void WriteJson(const std::string& path, const std::vector<LatencyRow>& lat,
               const std::vector<ThroughputRow>& thr,
               const std::vector<MailboxRow>& boxes,
               const std::vector<SyscallRow>& sys,
               const std::vector<AllocRow>& allocs) {
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
    // mean, p50 and p99 are medians over the repetitions; the spreads
    // sit beside them.
    os << "    {\"transport\": \"" << r.transport << "\", \"op\": \"" << r.op
       << "\", \"mean\": " << bench::Table::Num(r.mean_us.median, 1)
       << ", \"p50\": " << bench::Table::Num(r.p50_us.median, 1)
       << ", \"p99\": " << bench::Table::Num(r.p99_us.median, 1)
       << ", \"mean_spread\": " << r.mean_us.Json(1)
       << ", \"p50_spread\": " << r.p50_us.Json(1)
       << ", \"p99_spread\": " << r.p99_us.Json(1) << "}"
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
  os << "  ],\n  \"mailbox_handoffs\": [\n";
  for (std::size_t i = 0; i < boxes.size(); ++i) {
    const MailboxRow& r = boxes[i];
    os << "    {\"transport\": \"" << r.transport << "\", \"phase\": \""
       << r.phase << "\", \"handoffs\": " << r.handoffs
       << ", \"wakeups\": " << r.wakeups << ", \"parks\": " << r.parks
       << ", \"wakeups_per_handoff\": "
       << bench::Table::Num(r.PerHandoff(r.wakeups), 3)
       << ", \"parks_per_handoff\": "
       << bench::Table::Num(r.PerHandoff(r.parks), 3) << "}"
       << (i + 1 < boxes.size() ? "," : "") << "\n";
  }
  os << "  ],\n  \"tcp_syscalls_per_frame\": [\n";
  for (std::size_t i = 0; i < sys.size(); ++i) {
    const SyscallRow& r = sys[i];
    os << "    {\"phase\": \"" << r.phase << "\", \"wire_frames\": " << r.frames
       << ", \"loop_turns\": " << bench::Table::Num(r.loop_turns, 3)
       << ", \"wake_writes\": " << bench::Table::Num(r.wake_writes, 3)
       << ", \"send_calls\": " << bench::Table::Num(r.send_calls, 3)
       << ", \"recv_calls\": " << bench::Table::Num(r.recv_calls, 3)
       << ", \"ready_polls\": " << bench::Table::Num(r.ready_polls, 3)
       << ", \"connects\": " << r.connects
       << ", \"talking_pairs\": " << r.talking_pairs
       << ", \"connects_per_pair\": "
       << bench::Table::Num(r.ConnectsPerPair(), 3) << "}"
       << (i + 1 < sys.size() ? "," : "") << "\n";
  }
  os << "  ],\n  \"allocs_per_op\": [\n";
  for (std::size_t i = 0; i < allocs.size(); ++i) {
    const AllocRow& r = allocs[i];
    os << "    {\"transport\": \"" << r.transport
       << "\", \"read\": " << r.read.Json(2)
       << ", \"write\": " << r.write.Json(2)
       << ", \"pipelined\": " << r.pipelined.Json(2) << "}"
       << (i + 1 < allocs.size() ? "," : "") << "\n";
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
  std::vector<MailboxRow> boxes;
  for (bool tcp : {false, true}) {
    auto rows = SyncLatency(tcp, sys, boxes);
    lat.insert(lat.end(), rows.begin(), rows.end());
  }
  {
    bench::Table t({"transport", "op", "reps", "mean us", "p50 us",
                    "p99 us"});
    for (const LatencyRow& r : lat) {
      t.AddRow({r.transport, r.op, std::to_string(r.p50_us.reps),
                r.mean_us.Cell(1), r.p50_us.Cell(1), r.p99_us.Cell(1)});
    }
    t.Print();
  }

  bench::Banner("E18.2 — pipelined async throughput: bus vs loopback TCP");
  std::vector<ThroughputRow> thr;
  for (bool tcp : {false, true}) {
    thr.push_back(AsyncThroughput(tcp, sys, boxes));
  }
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

  bench::Banner("E18.3 — TCP syscalls per wire frame, connections per pair");
  {
    bench::Table t({"phase", "wire frames", "loop turns", "wake writes",
                    "send calls", "recv calls", "ready polls", "connects",
                    "talking pairs"});
    for (const SyscallRow& r : sys) {
      t.AddRow({r.phase, std::to_string(r.frames),
                bench::Table::Num(r.loop_turns, 3),
                bench::Table::Num(r.wake_writes, 3),
                bench::Table::Num(r.send_calls, 3),
                bench::Table::Num(r.recv_calls, 3),
                bench::Table::Num(r.ready_polls, 3),
                std::to_string(r.connects),
                std::to_string(r.talking_pairs)});
    }
    t.Print();
  }

  bench::Banner("E18.4 — mailbox wakeups and parks per handoff");
  {
    bench::Table t({"transport", "phase", "handoffs", "wakeups/handoff",
                    "parks/handoff"});
    for (const MailboxRow& r : boxes) {
      t.AddRow({r.transport, r.phase, std::to_string(r.handoffs),
                bench::Table::Num(r.PerHandoff(r.wakeups), 3),
                bench::Table::Num(r.PerHandoff(r.parks), 3)});
    }
    t.Print();
  }

  bench::Banner("E18.5 — heap allocations per op, every thread");
  std::vector<AllocRow> allocs;
  for (bool tcp : {false, true}) allocs.push_back(Allocs(tcp));
  {
    bench::Table t({"transport", "reps", "blocking read", "blocking write",
                    "pipelined op"});
    for (const AllocRow& r : allocs) {
      t.AddRow({r.transport, std::to_string(r.read.reps), r.read.Cell(2),
                r.write.Cell(2), r.pipelined.Cell(2)});
    }
    t.Print();
  }

  // Shape checks: every section produced data, and the TCP path really
  // used the wire (nonzero frames) while the bus did not.
  bool ok = lat.size() == 4 && thr.size() == 2 && sys.size() == 2 &&
            boxes.size() == 4;
  for (const AllocRow& r : allocs) {
    ok = ok && r.read.min > 0 && r.write.min > 0 && r.pipelined.min > 0;
  }
  for (const LatencyRow& r : lat) ok = ok && r.mean_us.min > 0;
  for (const MailboxRow& r : boxes) ok = ok && r.handoffs > 0;
  for (const ThroughputRow& r : thr) ok = ok && r.ops_per_sec.min > 0;
  ok = ok && thr[0].frames == 0 && thr[1].frames > 0;

  WriteJson(json_path, lat, thr, boxes, sys, allocs);
  std::cout << "\n" << (ok ? "OK" : "SHAPE CHECK FAILED") << "; wrote "
            << json_path << "\n";
  return ok ? 0 : 1;
}
