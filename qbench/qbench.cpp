// qbench: end-to-end and per-layer benchmark of runtime::ReplicatedStore.
//
// One process, one client thread. A run is three segments. Each builds a
// store with default StoreOptions (3 replicas, majority, auto
// shards/workers), preloads the keyspace, then measures rounds of a sync
// phase (one blocking QuorumClient, one op outstanding) and a pipeline
// phase (one AsyncQuorumClient at its default window and batch size,
// closed loop). Workloads, metric definitions and the reasons for each
// statistic are documented in README.md next to this file.
//
//   qbench --workload bus_hot --seed 1 --seconds 25 --trace 0
//          --out-dir .bench_build/qbench/out
//
// The last line of standard output is one JSON object
// {"correct", "attempted", "failed", "metrics"}: the end-to-end metrics
// with --trace 0, the per-layer metrics with --trace 1. The traced run
// repeats each segment's rounds with spans on after the untraced ones, so
// it can report its own overhead. Any correctness violation prints
// "correct": false and exits 1.
#include <sys/resource.h>
#include <sys/statfs.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "net/codec.hpp"
#include "runtime/store.hpp"
#include "storage/backend.hpp"

namespace {

using namespace qcnt;
using runtime::AsyncQuorumClient;
using runtime::ClientResult;
using runtime::ClientStatus;
using runtime::OpFuture;
using runtime::QuorumClient;
using runtime::ReplicatedStore;
using runtime::StoreOptions;
using Clock = std::chrono::steady_clock;

double Seconds(Clock::duration d) {
  return std::chrono::duration<double>(d).count();
}
std::int64_t Nanos(Clock::duration d) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(d).count();
}

// ---------------------------------------------------------------------------
// Workloads

struct Workload {
  std::string name;
  bool tcp = false;
  bool durable = false;
  std::size_t keys = 0;
  double read_frac = 0;
  /// Zipf exponent over key ranks; 0 = uniform.
  double zipf = 0;
  /// Key format; durable keys are longer so the WAL sees checkpoint-sized
  /// traffic within one run (README.md, "bus_durable").
  const char* key_format = "k%05zu";
};

std::optional<Workload> FindWorkload(const std::string& name) {
  if (name == "bus_hot") return Workload{name, false, false, 10000, 0.9, 0.99};
  if (name == "tcp_hot") return Workload{name, true, false, 10000, 0.9, 0.99};
  if (name == "bus_durable") {
    return Workload{name, false, true, 100000, 0.1, 0,
                    "account/%08zu/balance"};
  }
  return std::nullopt;
}

/// Store set-ups per run, each followed by its share of the timed rounds;
/// setup_s is their median.
constexpr std::size_t kSetups = 3;
/// One round of the timed pass: a sync phase taking kSyncShare of it,
/// then a pipeline phase. --seconds sets the number of rounds.
constexpr double kRoundSeconds = 2.5;
constexpr double kSyncShare = 0.4;
/// Width of one slice of a timed phase: the unit over which host steal,
/// CPU time, ops and median latency are recorded (README.md, "Why these
/// statistics").
constexpr double kSliceSeconds = 0.25;
/// The end-to-end statistics are taken over the slices in which the host
/// stole at most this share of the CPU time (one 10 ms tick of a 0.25 s
/// slice on 4 CPUs)...
constexpr double kCalmSteal = 0.01;
/// ...or, when fewer than this share of a phase's slices are that calm,
/// over this share of them with the least steal.
constexpr double kCalmFloor = 0.125;
constexpr std::size_t kWarmSyncOps = 1000;
constexpr std::size_t kWarmPipeOps = 5000;

std::uint64_t SplitMix(std::uint64_t& s) {
  std::uint64_t z = (s += 0x9E3779B97F4A7C15ull);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

struct Op {
  std::uint32_t key = 0;
  bool write = false;
  std::int64_t value = 0;
};

/// The seeded op stream: key ranks (Zipf or uniform), the read/write mix,
/// and distinct write values, so a stale read is always detectable.
class Generator {
 public:
  Generator(const Workload& w, std::uint64_t seed)
      : state_(seed * 0x2545F4914F6CDD1Dull + 1), read_frac_(w.read_frac) {
    std::uint64_t s = seed;
    value_base_ = static_cast<std::int64_t>(SplitMix(s) >> 34) << 30;
    if (w.zipf > 0) {
      cdf_.resize(w.keys);
      double sum = 0;
      for (std::size_t i = 0; i < w.keys; ++i) {
        sum += 1.0 / std::pow(static_cast<double>(i + 1), w.zipf);
        cdf_[i] = sum;
      }
      for (double& c : cdf_) c /= sum;
    }
    keys_ = w.keys;
  }

  Op Next() {
    Op op;
    op.key = NextKey();
    op.write = Uniform() >= read_frac_;
    if (op.write) op.value = NextValue();
    return op;
  }
  std::int64_t NextValue() { return value_base_ + ++values_; }

 private:
  double Uniform() {
    return static_cast<double>(SplitMix(state_) >> 11) * 0x1.0p-53;
  }
  std::uint32_t NextKey() {
    if (cdf_.empty()) {
      return static_cast<std::uint32_t>(SplitMix(state_) % keys_);
    }
    const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), Uniform());
    return static_cast<std::uint32_t>(
        std::min<std::size_t>(it - cdf_.begin(), keys_ - 1));
  }

  std::uint64_t state_;
  double read_frac_;
  std::size_t keys_ = 0;
  std::vector<double> cdf_;
  std::int64_t value_base_ = 0;
  std::int64_t values_ = 0;
};

// ---------------------------------------------------------------------------
// Tracing: spans around every benchmark→store call, kept in memory and
// written out when the run ends. Spans nest (a phase span parents the op
// calls made inside it), so self time = duration − direct children.

enum class SpanName : std::uint8_t {
  kConstruct, kPreload, kDestroy, kReopen, kWarmup, kSyncPhase, kPipePhase,
  kCheck, kRead, kWrite, kSubmitRead, kSubmitWrite, kGet, kFlush, kDrain,
  kCrash, kRecover, kCount
};

constexpr const char* kSpanNames[] = {
    "store.construct", "store.preload", "store.destroy", "store.reopen",
    "bench.warmup", "bench.sync_phase", "bench.pipe_phase", "bench.check",
    "client.Read", "client.Write", "async.SubmitRead", "async.SubmitWrite",
    "async.Get", "async.Flush", "async.Drain", "store.Crash",
    "store.Recover"};
static_assert(std::size(kSpanNames) ==
              static_cast<std::size_t>(SpanName::kCount));

class Tracer {
 public:
  struct Record {
    std::int64_t start_ns;
    std::int64_t end_ns;
    std::uint32_t parent;  // index + 1; 0 = root
    SpanName name;
  };

  bool enabled = false;

  std::uint32_t Open(SpanName name) {
    if (!enabled) return 0;
    spans_.push_back({Nanos(Clock::now() - epoch_), 0,
                      open_.empty() ? 0 : open_.back(), name});
    open_.push_back(static_cast<std::uint32_t>(spans_.size()));
    return open_.back();
  }
  void Close(std::uint32_t id) {
    if (id == 0) return;
    spans_[id - 1].end_ns = Nanos(Clock::now() - epoch_);
    open_.pop_back();
  }

  struct SpanTotals {
    std::uint64_t count = 0;
    double total_us = 0;
    double self_us = 0;
  };
  std::vector<SpanTotals> Aggregate() const {
    std::vector<SpanTotals> t(static_cast<std::size_t>(SpanName::kCount));
    std::vector<std::int64_t> child_ns(spans_.size(), 0);
    for (const Record& r : spans_) {
      if (r.parent != 0) child_ns[r.parent - 1] += r.end_ns - r.start_ns;
    }
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Record& r = spans_[i];
      SpanTotals& x = t[static_cast<std::size_t>(r.name)];
      ++x.count;
      x.total_us += (r.end_ns - r.start_ns) / 1e3;
      x.self_us += (r.end_ns - r.start_ns - child_ns[i]) / 1e3;
    }
    return t;
  }
  void Write(const std::string& path) const {
    std::ofstream out(path);
    out << "id,parent,name,start_ns,end_ns\n";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Record& r = spans_[i];
      out << i + 1 << ',' << r.parent << ','
          << kSpanNames[static_cast<std::size_t>(r.name)] << ','
          << r.start_ns << ',' << r.end_ns << '\n';
    }
  }

 private:
  Clock::time_point epoch_ = Clock::now();
  std::vector<Record> spans_;
  std::vector<std::uint32_t> open_;
};

Tracer g_tracer;

class Span {
 public:
  explicit Span(SpanName name) : id_(g_tracer.Open(name)) {}
  ~Span() { g_tracer.Close(id_); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  std::uint32_t id_;
};

// ---------------------------------------------------------------------------
// Process and host probes

struct CpuStat {
  std::uint64_t total = 0;
  std::uint64_t steal = 0;
};

CpuStat ReadCpuStat() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  CpuStat s;
  in >> cpu;
  for (int i = 0; i < 10 && in; ++i) {
    std::uint64_t v = 0;
    in >> v;
    // Fields: user nice system idle iowait irq softirq steal guest
    // guest_nice; guest time is already counted in user.
    if (i < 8) s.total += v;
    if (i == 7) s.steal = v;
  }
  return s;
}

std::size_t ThreadCount() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("Threads:", 0) == 0) return std::stoul(line.substr(8));
  }
  return 0;
}

double CpuUs(const rusage& r) {
  return r.ru_utime.tv_sec * 1e6 + r.ru_utime.tv_usec +
         r.ru_stime.tv_sec * 1e6 + r.ru_stime.tv_usec;
}
double CtxSwitches(const rusage& r) {
  return static_cast<double>(r.ru_nvcsw + r.ru_nivcsw);
}
rusage Usage() {
  rusage r{};
  getrusage(RUSAGE_SELF, &r);
  return r;
}

std::string FsName(const std::string& dir) {
  struct statfs s {};
  if (statfs(dir.c_str(), &s) != 0) return "unknown";
  switch (static_cast<unsigned long>(s.f_type)) {
    case 0x01021994ul: return "tmpfs";
    case 0xEF53ul: return "ext4";
    case 0x58465342ul: return "xfs";
    case 0x9123683Eul: return "btrfs";
    case 0x794C7630ul: return "overlayfs";
    default: {
      std::ostringstream o;
      o << "0x" << std::hex << static_cast<unsigned long>(s.f_type);
      return o.str();
    }
  }
}

std::uint64_t DirBytes(const std::string& dir) {
  std::uint64_t total = 0;
  std::error_code ec;
  for (const auto& e :
       std::filesystem::recursive_directory_iterator(dir, ec)) {
    if (e.is_regular_file(ec)) total += e.file_size(ec);
  }
  return total;
}

// ---------------------------------------------------------------------------
// Statistics

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

/// Whole-microsecond latency histogram with a fixed footprint, so the
/// benchmark's own memory does not grow with the number of ops.
class Histogram {
 public:
  void Add(double us) {
    const auto b = static_cast<std::size_t>(std::max(0.0, us));
    ++buckets_[std::min(b, buckets_.size() - 1)];
    ++n_;
  }
  std::uint64_t Count() const { return n_; }
  /// Nearest-rank percentile, to the microsecond.
  double Percentile(double p) const {
    if (n_ == 0) return 0;
    const auto rank = std::max<std::uint64_t>(
        1, static_cast<std::uint64_t>(std::ceil(p * n_)));
    std::uint64_t seen = 0;
    for (std::size_t b = 0; b < buckets_.size(); ++b) {
      seen += buckets_[b];
      if (seen >= rank) return static_cast<double>(b);
    }
    return static_cast<double>(buckets_.size() - 1);
  }

 private:
  std::vector<std::uint64_t> buckets_ = std::vector<std::uint64_t>(1 << 17);
  std::uint64_t n_ = 0;
};

/// Median of whole-microsecond samples (ClientResult::latency truncates),
/// interpolated inside the median's 1 µs bin as for grouped data: a
/// sample reading v lies in [v, v + 1).
double GroupedMedian(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double half = v.size() / 2.0;
  const double m = v[v.size() / 2];
  const auto lo = std::lower_bound(v.begin(), v.end(), m) - v.begin();
  const auto hi = std::upper_bound(v.begin(), v.end(), m) - v.begin();
  return m + (half - lo) / static_cast<double>(hi - lo);
}

// ---------------------------------------------------------------------------
// Counters read at phase boundaries (public getters only)

struct Counters {
  std::uint64_t msgs = 0;
  std::vector<runtime::BatchStats> batch;  // per replica
  storage::StorageStats storage;
  std::uint64_t commit_passes = 0;
  net::TcpStats wire;
  rusage usage{};
  CpuStat cpu;
};

Counters Snapshot(const ReplicatedStore& store) {
  Counters c;
  c.msgs = store.MessagesSent();
  for (std::size_t r = 0; r < store.ReplicaCount(); ++r) {
    c.batch.push_back(store.ReplicaBatchStats(r));
    c.commit_passes += store.ReplicaCommitPasses(r);
  }
  c.storage = store.TotalStorageStats();
  c.wire = store.WireStats();
  c.usage = Usage();
  c.cpu = ReadCpuStat();
  return c;
}

/// Counter deltas over the timed sub-phases, summed across rounds.
struct Totals {
  double msgs = 0;
  double batches = 0, batched_ops = 0, replica_ops = 0;
  double mailbox_handoffs = 0, mailbox_wakeups = 0;
  double worker_handoffs = 0, worker_wakeups = 0;
  std::vector<std::vector<double>> shard_ops;  // [replica][shard]
  double log_records = 0, log_bytes = 0, appends = 0, fsyncs = 0;
  double commit_passes = 0;
  double frames = 0, wire_bytes = 0;
  double cpu_us = 0, ctx_switches = 0;
  double host_ticks = 0, steal_ticks = 0;

  Totals& operator+=(const Totals& o) {
    msgs += o.msgs;
    batches += o.batches;
    batched_ops += o.batched_ops;
    replica_ops += o.replica_ops;
    mailbox_handoffs += o.mailbox_handoffs;
    mailbox_wakeups += o.mailbox_wakeups;
    worker_handoffs += o.worker_handoffs;
    worker_wakeups += o.worker_wakeups;
    shard_ops.resize(std::max(shard_ops.size(), o.shard_ops.size()));
    for (std::size_t r = 0; r < o.shard_ops.size(); ++r) {
      auto& mine = shard_ops[r];
      mine.resize(std::max(mine.size(), o.shard_ops[r].size()));
      for (std::size_t s = 0; s < o.shard_ops[r].size(); ++s) {
        mine[s] += o.shard_ops[r][s];
      }
    }
    log_records += o.log_records;
    log_bytes += o.log_bytes;
    appends += o.appends;
    fsyncs += o.fsyncs;
    commit_passes += o.commit_passes;
    frames += o.frames;
    wire_bytes += o.wire_bytes;
    cpu_us += o.cpu_us;
    ctx_switches += o.ctx_switches;
    host_ticks += o.host_ticks;
    steal_ticks += o.steal_ticks;
    return *this;
  }

  /// Max over replicas of (busiest shard's ops ÷ mean ops per shard).
  double ShardSkew() const {
    double skew = 0;
    for (const auto& shards : shard_ops) {
      double max = 0, sum = 0;
      for (double ops : shards) {
        max = std::max(max, ops);
        sum += ops;
      }
      if (sum > 0) skew = std::max(skew, max / (sum / shards.size()));
    }
    return skew;
  }
  double Steal() const {
    return host_ticks > 0 ? steal_ticks / host_ticks : 0;
  }
};

Totals Delta(const Counters& a, const Counters& b) {
  Totals d;
  d.msgs = static_cast<double>(b.msgs - a.msgs);
  for (std::size_t r = 0; r < b.batch.size(); ++r) {
    const runtime::BatchStats& x = a.batch[r];
    const runtime::BatchStats& y = b.batch[r];
    d.batches += y.batches_applied - x.batches_applied;
    d.batched_ops += y.batched_ops - x.batched_ops;
    d.replica_ops += (y.read_ops - x.read_ops) + (y.write_ops - x.write_ops);
    d.mailbox_handoffs += y.mailbox_handoffs - x.mailbox_handoffs;
    d.mailbox_wakeups += y.mailbox_wakeups - x.mailbox_wakeups;
    d.worker_handoffs += y.worker_handoffs - x.worker_handoffs;
    d.worker_wakeups += y.worker_wakeups - x.worker_wakeups;
    std::vector<double> shards;
    for (std::size_t s = 0; s < y.per_shard.size(); ++s) {
      const double before = s < x.per_shard.size() ? x.per_shard[s].ops : 0;
      shards.push_back(y.per_shard[s].ops - before);
    }
    d.shard_ops.push_back(std::move(shards));
  }
  d.log_records =
      static_cast<double>(b.storage.records_appended -
                          a.storage.records_appended);
  d.log_bytes =
      static_cast<double>(b.storage.bytes_appended - a.storage.bytes_appended);
  d.appends =
      static_cast<double>(b.storage.batch_appends - a.storage.batch_appends);
  d.fsyncs = static_cast<double>(b.storage.fsyncs - a.storage.fsyncs);
  d.commit_passes = static_cast<double>(b.commit_passes - a.commit_passes);
  d.frames = static_cast<double>(b.wire.frames_sent - a.wire.frames_sent);
  d.wire_bytes = static_cast<double>(b.wire.bytes_sent - a.wire.bytes_sent);
  d.cpu_us = CpuUs(b.usage) - CpuUs(a.usage);
  d.ctx_switches = CtxSwitches(b.usage) - CtxSwitches(a.usage);
  d.host_ticks = static_cast<double>(b.cpu.total - a.cpu.total);
  d.steal_ticks = static_cast<double>(b.cpu.steal - a.cpu.steal);
  return d;
}

// ---------------------------------------------------------------------------
// The run

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string out_dir;
  std::string source_id = "unknown";
};

/// One kSliceSeconds slice of a timed phase.
struct Slice {
  double steal = 0;     // host steal share over the slice
  double cpu_us = 0;    // process user+sys CPU over the slice
  std::size_t ops = 0;  // ops completed successfully in the slice
  /// Median latency of the slice's ops by kind; negative when none.
  double p50_us[2] = {-1, -1};
};

/// Cuts a timed phase into slices, recording per slice the host's steal
/// share, the process's CPU time, the ops completed and their median
/// latency, so the end-to-end statistics can be taken over the slices
/// the host interfered with least (README.md). Latency samples are kept
/// only until their slice closes.
class Slicer {
 public:
  /// `integral_us`: samples are whole microseconds (ClientResult::latency)
  /// and take the grouped median.
  Slicer(Clock::time_point start, bool integral_us)
      : start_(start),
        integral_us_(integral_us),
        cpu_(ReadCpuStat()),
        usage_us_(CpuUs(Usage())) {}

  /// One op of `kind` (0 or 1) completed successfully at `now`.
  void Add(Clock::time_point now, int kind, double us) {
    Advance(now);
    samples_[kind].push_back(us);
  }
  /// Close the phase at `end`: whole slices only.
  std::vector<Slice> Finish(Clock::time_point end) {
    Advance(end);
    return std::move(slices_);
  }

 private:
  void Advance(Clock::time_point now) {
    const auto i = static_cast<std::size_t>(
        Seconds(now - start_) / kSliceSeconds + 1e-9);
    if (i <= slices_.size()) return;
    const CpuStat cpu = ReadCpuStat();
    const double usage_us = CpuUs(Usage());
    const double total = static_cast<double>(cpu.total - cpu_.total);
    Slice s;
    s.steal = total > 0 ? (cpu.steal - cpu_.steal) / total : 0;
    s.cpu_us = usage_us - usage_us_;
    for (int k = 0; k < 2; ++k) {
      s.ops += samples_[k].size();
      if (!samples_[k].empty()) {
        s.p50_us[k] = integral_us_ ? GroupedMedian(samples_[k])
                                   : Median(samples_[k]);
      }
      samples_[k].clear();
    }
    slices_.push_back(s);
    // A stall past several slice ends leaves the slices it spans empty.
    while (slices_.size() < i) slices_.push_back({s.steal, 0, 0, {-1, -1}});
    cpu_ = cpu;
    usage_us_ = usage_us;
  }

  Clock::time_point start_;
  bool integral_us_;
  CpuStat cpu_;
  double usage_us_;
  std::vector<double> samples_[2];
  std::vector<Slice> slices_;
};

/// Results of one timed pass: rounds of a sync phase then a pipeline
/// phase.
struct Pass {
  std::vector<Slice> sync_slices;  // p50_us: reads, writes
  std::vector<Slice> pipe_slices;  // p50_us[0]: every op
  Histogram read_hist, write_hist, pipe_hist;
  std::size_t sync_ops = 0, sync_escalations = 0;
  std::size_t pipe_ops = 0;
  AsyncQuorumClient::Stats pipe_stats;  // deltas, summed over rounds
  double submit_us = 0, get_us = 0;     // traced runs only
  Totals sync, pipe;
  std::size_t threads = 0;
  /// Sample of the pipeline's acked writes, replayed against a storage
  /// backend in the traced run.
  std::vector<storage::WalRecord> writes;

  Totals Both() const {
    Totals t = sync;
    t += pipe;
    return t;
  }
};

class Bench {
 public:
  Bench(Workload w, Args args)
      : w_(std::move(w)), args_(std::move(args)), gen_(w_, args_.seed) {
    char buf[64];
    for (std::size_t i = 0; i < w_.keys; ++i) {
      std::snprintf(buf, sizeof buf, w_.key_format, i);
      keys_.emplace_back(buf);
    }
    acked_.assign(w_.keys, 0);
    submitted_.assign(w_.keys, 0);
    uncertain_.assign(w_.keys, 0);
    wal_dir_ = args_.out_dir + "/wal-" + w_.name;
  }

  int Run();

 private:
  StoreOptions Options() const {
    StoreOptions o;
    if (w_.tcp) o.tcp = runtime::TcpStoreOptions{};
    if (w_.durable) {
      storage::DurabilityOptions d;
      d.directory = wal_dir_;
      d.fsync = storage::FsyncPolicy::kGroupCommit;
      o.durability = d;
    }
    return o;
  }

  void Fail(const std::string& what) {
    if (violations_ < 20) std::cerr << "qbench: VIOLATION: " << what << "\n";
    ++violations_;
  }
  void Count(const ClientResult& r) {
    ++attempted_;
    if (r.status != ClientStatus::kOk) ++failed_;
  }
  /// Record a completed op against the model of acked values.
  void Resolve(const Op& op, std::int64_t expect, const ClientResult& r) {
    Count(r);
    if (op.write) {
      if (r.ok) {
        acked_[op.key] = op.value;
        uncertain_[op.key] = 0;
      } else {
        uncertain_[op.key] = 1;
      }
    } else if (r.ok && !uncertain_[op.key] && r.value != expect) {
      Fail("read of " + keys_[op.key] + " returned " +
           std::to_string(r.value) + ", expected " + std::to_string(expect));
    }
  }

  void BuildStore();
  void Preload();
  void Warmup();
  double Setup(bool check);
  void CheckAll(const char* when);
  void SyncPhase(Pass& p, double seconds);
  void PipePhase(Pass& p, double seconds);
  void Rounds(Pass& p, int rounds, bool check_sync);
  void CountStorageWork();
  void CrashRecoverCheck();
  void CollectDivergences();
  std::map<std::string, double> Layers(const Pass& p, const Pass& untraced);
  void PrintEnv(const Pass& p);

  Workload w_;
  Args args_;
  Generator gen_;
  std::vector<std::string> keys_;
  std::vector<std::int64_t> acked_, submitted_;
  std::vector<std::uint8_t> uncertain_;
  std::string wal_dir_;

  std::unique_ptr<ReplicatedStore> store_;
  std::unique_ptr<AsyncQuorumClient> aux_;  // preload, warm-up, checks
  std::unique_ptr<QuorumClient> sync_;
  std::unique_ptr<AsyncQuorumClient> pipe_;

  std::uint64_t attempted_ = 0, failed_ = 0, violations_ = 0;
  std::uint64_t divergences_ = 0;
  std::vector<double> reopen_s_;
  std::uint64_t replayed_records_ = 0;
  double recover_ms_ = 0;
  double checkpoints_per_shard_ = 0, rotations_per_shard_ = 0;
};

void Bench::BuildStore() {
  Span s(SpanName::kConstruct);
  store_ = std::make_unique<ReplicatedStore>(Options());
  aux_ = store_->MakeAsyncClient();
  sync_ = store_->MakeClient();
  pipe_ = store_->MakeAsyncClient();
}

void Bench::CollectDivergences() {
  if (!store_) return;
  divergences_ += sync_->DivergencesObserved();
  divergences_ += aux_->ClientStats().divergences_observed;
  divergences_ += pipe_->ClientStats().divergences_observed;
}

void Bench::Preload() {
  Span s(SpanName::kPreload);
  std::deque<std::pair<OpFuture, Op>> q;
  for (std::uint32_t k = 0; k < w_.keys; ++k) {
    const Op op{k, true, gen_.NextValue()};
    submitted_[k] = op.value;
    q.emplace_back(aux_->SubmitWrite(keys_[k], op.value), op);
    while (!q.empty() && q.front().first.Ready()) {
      Resolve(q.front().second, 0, q.front().first.Get());
      q.pop_front();
    }
  }
  aux_->Drain();
  for (auto& [f, op] : q) Resolve(op, 0, f.Get());
}

void Bench::Warmup() {
  Span s(SpanName::kWarmup);
  for (std::size_t i = 0; i < kWarmSyncOps; ++i) {
    const Op op = gen_.Next();
    const std::int64_t expect = acked_[op.key];
    if (op.write) submitted_[op.key] = op.value;
    Resolve(op, expect,
            op.write ? sync_->Write(keys_[op.key], op.value)
                     : sync_->Read(keys_[op.key]));
  }
  std::deque<std::tuple<OpFuture, Op, std::int64_t>> q;
  for (std::size_t i = 0; i < kWarmPipeOps; ++i) {
    const Op op = gen_.Next();
    const std::int64_t expect = submitted_[op.key];
    if (op.write) submitted_[op.key] = op.value;
    q.emplace_back(op.write ? aux_->SubmitWrite(keys_[op.key], op.value)
                            : aux_->SubmitRead(keys_[op.key]),
                   op, expect);
    while (!q.empty() && std::get<0>(q.front()).Ready()) {
      auto& [f, o, e] = q.front();
      Resolve(o, e, f.Get());
      q.pop_front();
    }
  }
  for (auto& [f, o, e] : q) Resolve(o, e, f.Get());
}

/// One set-up: construct + preload (+ destroy and reopen on a durable
/// workload, replaying every replica's WAL tail) + warm-up. With `check`,
/// an all-keys check runs after the reopen, off the clock.
double Bench::Setup(bool check) {
  if (store_) {
    CollectDivergences();
    aux_.reset();
    sync_.reset();
    pipe_.reset();
    store_.reset();
  }
  std::filesystem::remove_all(wal_dir_);
  acked_.assign(w_.keys, 0);
  submitted_.assign(w_.keys, 0);
  uncertain_.assign(w_.keys, 0);

  const auto t0 = Clock::now();
  BuildStore();
  Preload();
  double secs = Seconds(Clock::now() - t0);
  if (w_.durable) {
    const auto t1 = Clock::now();
    CollectDivergences();
    aux_.reset();
    sync_.reset();
    pipe_.reset();
    {
      Span s(SpanName::kDestroy);
      store_.reset();
    }
    {
      Span s(SpanName::kReopen);
      store_ = std::make_unique<ReplicatedStore>(Options());
    }
    reopen_s_.push_back(Seconds(Clock::now() - t1));
    aux_ = store_->MakeAsyncClient();
    sync_ = store_->MakeClient();
    pipe_ = store_->MakeAsyncClient();
    secs += Seconds(Clock::now() - t1);
    replayed_records_ = store_->TotalStorageStats().recovery_replayed;
    if (check) CheckAll("after reopen");
  }
  const auto t2 = Clock::now();
  Warmup();
  return secs + Seconds(Clock::now() - t2);
}

/// A quorum read of every key must return its last acked write.
void Bench::CheckAll(const char* when) {
  Span s(SpanName::kCheck);
  std::size_t bad = 0;
  std::deque<std::pair<OpFuture, std::uint32_t>> q;
  auto resolve = [&](OpFuture& f, std::uint32_t k) {
    const ClientResult r = f.Get();
    Count(r);
    if (!r.ok || (!uncertain_[k] && r.value != acked_[k])) {
      if (bad++ < 5) {
        Fail(std::string(when) + ": key " + keys_[k] + " read " +
             std::to_string(r.value) + " (" + runtime::ToString(r.status) +
             "), last acked " + std::to_string(acked_[k]));
      }
    }
  };
  for (std::uint32_t k = 0; k < w_.keys; ++k) {
    q.emplace_back(aux_->SubmitRead(keys_[k]), k);
    while (!q.empty() && q.front().first.Ready()) {
      resolve(q.front().first, q.front().second);
      q.pop_front();
    }
  }
  for (auto& [f, k] : q) resolve(f, k);
  if (bad > 5) Fail(std::string(when) + ": " + std::to_string(bad) +
                    " keys in all did not read their last acked write");
}

Clock::time_point Deadline(Clock::time_point start, double seconds) {
  return start + std::chrono::duration_cast<Clock::duration>(
                     std::chrono::duration<double>(seconds));
}

void Bench::SyncPhase(Pass& p, double seconds) {
  const Counters begin = Snapshot(*store_);
  const std::uint64_t escalations = sync_->Escalations();
  {
    Span phase(SpanName::kSyncPhase);
    const auto start = Clock::now();
    const auto end = Deadline(start, seconds);
    Slicer slicer(start, false);
    for (auto now = start; now < end; now = Clock::now()) {
      const Op op = gen_.Next();
      const std::int64_t expect = acked_[op.key];
      if (op.write) submitted_[op.key] = op.value;
      ClientResult r;
      {
        Span s(op.write ? SpanName::kWrite : SpanName::kRead);
        r = op.write ? sync_->Write(keys_[op.key], op.value)
                     : sync_->Read(keys_[op.key]);
      }
      const auto done = Clock::now();
      Resolve(op, expect, r);
      ++p.sync_ops;
      if (!r.ok) continue;
      const double us = Nanos(done - now) / 1e3;
      (op.write ? p.write_hist : p.read_hist).Add(us);
      if (done < end) slicer.Add(done, op.write ? 1 : 0, us);
    }
    for (const Slice& s : slicer.Finish(end)) p.sync_slices.push_back(s);
  }
  p.sync += Delta(begin, Snapshot(*store_));
  p.sync_escalations += sync_->Escalations() - escalations;
}

void Bench::PipePhase(Pass& p, double seconds) {
  struct Pending {
    OpFuture f;
    Op op;
    std::int64_t expect;
  };
  AsyncQuorumClient& c = *pipe_;
  const AsyncQuorumClient::Stats s0 = c.ClientStats();
  const bool traced = g_tracer.enabled;
  std::deque<Pending> q;
  const Counters begin = Snapshot(*store_);
  const auto start = Clock::now();
  const auto end = Deadline(start, seconds);
  Slicer slicer(start, true);
  auto resolve = [&](Pending& x, Clock::time_point now) {
    ClientResult r;
    {
      const auto t0 = traced ? Clock::now() : Clock::time_point{};
      Span s(SpanName::kGet);
      r = x.f.Get();
      if (traced) p.get_us += Nanos(Clock::now() - t0) / 1e3;
    }
    Resolve(x.op, x.expect, r);
    ++p.pipe_ops;
    if (!r.ok) return;
    const double us = static_cast<double>(r.latency.count());
    p.pipe_hist.Add(us);
    if (now < end) slicer.Add(now, 0, us);
    if (x.op.write && traced && p.writes.size() < (1u << 16)) {
      p.writes.push_back({storage::WalRecord::Type::kWrite, keys_[x.op.key],
                          r.version, x.op.value, 0, 0});
    }
  };
  {
    Span phase(SpanName::kPipePhase);
    for (auto now = start; now < end; now = Clock::now()) {
      const Op op = gen_.Next();
      const std::int64_t expect = submitted_[op.key];
      if (op.write) submitted_[op.key] = op.value;
      const auto t0 = traced ? Clock::now() : Clock::time_point{};
      {
        Span s(op.write ? SpanName::kSubmitWrite : SpanName::kSubmitRead);
        q.push_back({op.write ? c.SubmitWrite(keys_[op.key], op.value)
                              : c.SubmitRead(keys_[op.key]),
                     op, expect});
      }
      if (traced) p.submit_us += Nanos(Clock::now() - t0) / 1e3;
      while (!q.empty() && q.front().f.Ready()) {
        resolve(q.front(), now);
        q.pop_front();
      }
    }
    p.threads = std::max(p.threads, ThreadCount());
    {
      Span s(SpanName::kFlush);
      c.Flush();
    }
    {
      Span s(SpanName::kDrain);
      c.Drain();
    }
    for (const Slice& s : slicer.Finish(end)) p.pipe_slices.push_back(s);
    const auto now = Clock::now();
    for (Pending& x : q) resolve(x, now);
  }
  p.pipe += Delta(begin, Snapshot(*store_));
  const AsyncQuorumClient::Stats& s1 = c.ClientStats();
  AsyncQuorumClient::Stats& d = p.pipe_stats;
  d.retries += s1.retries - s0.retries;
  d.batches_sent += s1.batches_sent - s0.batches_sent;
  d.batched_requests += s1.batched_requests - s0.batched_requests;
  d.escalations += s1.escalations - s0.escalations;
}

/// `rounds` rounds of a sync phase then a pipeline phase on the current
/// store, added to `p`. The all-keys check runs after the last pipeline
/// phase and, with `check_sync`, after the first sync phase, off the
/// clock.
void Bench::Rounds(Pass& p, int rounds, bool check_sync) {
  for (int r = 0; r < rounds; ++r) {
    SyncPhase(p, kRoundSeconds * kSyncShare);
    if (r == 0 && check_sync) CheckAll("after the sync phase");
    PipePhase(p, kRoundSeconds * (1 - kSyncShare));
  }
  CheckAll("after the pipeline phase");
}

/// Adds the current store's checkpoints and segment rotations per shard
/// (its counters start at the reopen), for the least-loaded replica that
/// logged writes: with minimal-quorum targeting, a replica outside every
/// picked quorum logs none. Uniform keys spread a replica's writes evenly
/// over its shards.
void Bench::CountStorageWork() {
  double checkpoints = 0, rotations = 0;
  bool any = false;
  for (std::size_t r = 0; r < store_->ReplicaCount(); ++r) {
    const storage::StorageStats st = store_->ReplicaStorageStats(r);
    if (st.records_appended == 0) continue;
    const double c = static_cast<double>(st.checkpoints_written);
    const double s = static_cast<double>(st.segments_rotated);
    checkpoints = any ? std::min(checkpoints, c) : c;
    rotations = any ? std::min(rotations, s) : s;
    any = true;
  }
  const double shards = static_cast<double>(store_->ShardsPerReplica());
  checkpoints_per_shard_ += checkpoints / shards;
  rotations_per_shard_ += rotations / shards;
}

/// Durable only: one replica fail-stops and recovers from its WAL and
/// checkpoints; then another replica goes down, so every quorum read must
/// be served with the recovered replica's data.
void Bench::CrashRecoverCheck() {
  const auto t0 = Clock::now();
  {
    Span s(SpanName::kCrash);
    store_->Crash(0);
  }
  {
    Span s(SpanName::kRecover);
    store_->Recover(0);
  }
  recover_ms_ = Seconds(Clock::now() - t0) * 1e3;
  store_->Crash(1);
  CheckAll("after replica 0 crash/recover, replica 1 down");
  store_->Recover(1);
}

/// Marks the calm slices of a phase: those in which the host stole at
/// most kCalmSteal of the CPU time. When fewer than kCalmFloor of the
/// slices are that calm (the whole phase ran under host contention), the
/// kCalmFloor share with the least steal, earlier slices first.
std::vector<bool> CalmSlices(const std::vector<Slice>& slices) {
  std::vector<bool> calm(slices.size(), false);
  std::size_t n = 0;
  for (std::size_t i = 0; i < slices.size(); ++i) {
    calm[i] = slices[i].steal <= kCalmSteal;
    n += calm[i];
  }
  const auto floor = std::max<std::size_t>(
      1, static_cast<std::size_t>(std::lround(kCalmFloor * slices.size())));
  if (n >= floor) return calm;
  std::vector<std::size_t> order(slices.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(), [&](auto a, auto b) {
    return slices[a].steal < slices[b].steal;
  });
  calm.assign(slices.size(), false);
  for (std::size_t i = 0; i < floor && i < order.size(); ++i) {
    calm[order[i]] = true;
  }
  return calm;
}

/// Median over the marked slices of a per-slice value, skipping slices
/// where it is missing (negative).
template <typename Fn>
double MedianOver(const std::vector<Slice>& slices,
                  const std::vector<bool>& keep, Fn&& value) {
  std::vector<double> v;
  for (std::size_t i = 0; i < slices.size(); ++i) {
    const double x = value(slices[i]);
    if (keep[i] && x >= 0) v.push_back(x);
  }
  return Median(v);
}

std::map<std::string, double> EndToEndOf(const Pass& p) {
  const auto sync_calm = CalmSlices(p.sync_slices);
  const auto pipe_calm = CalmSlices(p.pipe_slices);
  double cpu_us = 0, ops = 0;
  for (std::size_t i = 0; i < p.pipe_slices.size(); ++i) {
    if (!pipe_calm[i]) continue;
    cpu_us += p.pipe_slices[i].cpu_us;
    ops += static_cast<double>(p.pipe_slices[i].ops);
  }
  return {
      {"read_p50_us", MedianOver(p.sync_slices, sync_calm,
                                 [](const Slice& s) { return s.p50_us[0]; })},
      {"write_p50_us", MedianOver(p.sync_slices, sync_calm,
                                  [](const Slice& s) { return s.p50_us[1]; })},
      {"pipe_ops_per_s",
       MedianOver(p.pipe_slices, pipe_calm,
                  [](const Slice& s) { return s.ops / kSliceSeconds; })},
      {"pipe_p50_us", MedianOver(p.pipe_slices, pipe_calm,
                                 [](const Slice& s) { return s.p50_us[0]; })},
      {"pipe_cpu_us_per_op", ops > 0 ? cpu_us / ops : 0},
  };
}

std::map<std::string, double> EndToEnd(const Pass& p, double setup_s) {
  auto m = EndToEndOf(p);
  m["setup_s"] = setup_s;
  m["peak_rss_mb"] = Usage().ru_maxrss / 1024.0;
  return m;
}

/// Median ns per call of `fn` over `reps` repetitions of `batch` calls.
template <typename Fn>
double NsPerCall(std::size_t batch, int reps, Fn&& fn) {
  std::vector<double> ns;
  for (int r = 0; r < reps; ++r) {
    const auto t0 = Clock::now();
    for (std::size_t i = 0; i < batch; ++i) fn(i);
    ns.push_back(static_cast<double>(Nanos(Clock::now() - t0)) / batch);
  }
  return Median(ns);
}

std::map<std::string, double> Bench::Layers(const Pass& p,
                                            const Pass& untraced) {
  std::map<std::string, double> m;
  const double sync_ops = std::max<double>(1, p.sync_ops);
  const double pipe_ops = std::max<double>(1, p.pipe_ops);
  const double ops = sync_ops + pipe_ops;

  // runtime/client
  m["client.msgs_per_op"] = p.sync.msgs / sync_ops;
  m["client.escalations_per_kop"] = 1e3 * p.sync_escalations / sync_ops;
  m["client.read_p99_us"] = p.read_hist.Percentile(0.99);
  m["client.read_n"] = static_cast<double>(p.read_hist.Count());
  m["client.write_p99_us"] = p.write_hist.Percentile(0.99);
  m["client.write_n"] = static_cast<double>(p.write_hist.Count());

  // runtime/async_client
  const AsyncQuorumClient::Stats& a = p.pipe_stats;
  m["async.msgs_per_op"] = p.pipe.msgs / pipe_ops;
  m["async.reqs_per_batch"] =
      a.batches_sent ? static_cast<double>(a.batched_requests) / a.batches_sent
                     : 0;
  m["async.submit_wait_us_per_op"] = p.submit_us / pipe_ops;
  m["async.get_wait_us_per_op"] = p.get_us / pipe_ops;
  m["async.retries_per_kop"] = 1e3 * a.retries / pipe_ops;
  m["async.escalations_per_kop"] = 1e3 * a.escalations / pipe_ops;
  m["async.op_p99_us"] = p.pipe_hist.Percentile(0.99);
  m["async.op_n"] = static_cast<double>(p.pipe_hist.Count());

  // quorum
  const Totals both = p.Both();
  const Totals& pipe_r = p.pipe;
  const quorum::QuorumSystem& qs = store_->Configs().front();
  const std::uint64_t all_up = (1ull << qs.n) - 1;
  const double min_read = static_cast<double>(qs.pick_read(all_up)->size());
  const double min_write = static_cast<double>(qs.pick_write(all_up)->size());
  // A read needs one read quorum; a write discovers its version at a read
  // quorum, then installs at a write quorum.
  m["quorum.min_reqs_per_op"] =
      w_.read_frac * min_read + (1 - w_.read_frac) * (min_read + min_write);
  m["quorum.replica_reqs_per_op"] = both.replica_ops / ops;
  std::vector<std::uint64_t> masks{all_up};
  if (w_.durable) masks.push_back(all_up & ~1ull);  // replica 0 down
  std::size_t picked = 0;
  m["quorum.pick_ns"] = NsPerCall(1 << 16, 9, [&](std::size_t i) {
    const std::uint64_t up = masks[i % masks.size()];
    const auto q = (i & 1) ? qs.pick_write(up) : qs.pick_read(up);
    picked += q ? q->size() : 0;
  });
  if (picked == 0) Fail("quorum replay picked no quorum");

  // runtime/replica_server (pipeline phase)
  m["replica.ops_per_batch"] =
      pipe_r.batches ? pipe_r.batched_ops / pipe_r.batches : 0;
  m["replica.mailbox_handoffs_per_op"] = pipe_r.mailbox_handoffs / pipe_ops;
  m["replica.mailbox_wakeups_per_op"] = pipe_r.mailbox_wakeups / pipe_ops;
  m["replica.worker_handoffs_per_op"] = pipe_r.worker_handoffs / pipe_ops;
  m["replica.worker_wakeups_per_op"] = pipe_r.worker_wakeups / pipe_ops;
  m["replica.shard_skew"] = pipe_r.ShardSkew();

  // net (both timed phases)
  const net::TcpStats w1 = store_->WireStats();
  const double frames = both.frames;
  const double bytes = both.wire_bytes;
  m["net.frames_per_op"] = frames / ops;
  m["net.bytes_per_op"] = bytes / ops;
  m["net.bytes_per_frame"] = frames > 0 ? bytes / frames : 0;
  m["net.decode_errors"] = static_cast<double>(w1.decode_errors);
  m["net.backpressure_drops"] = static_cast<double>(w1.backpressure_drops);
  // Codec replay on the run's message mix: single-op request/response
  // frames as the sync client sends them, batch frames of the measured
  // batch size as the pipeline sends them, over the run's keys.
  {
    std::vector<net::WireFrame> mix;
    const std::size_t batch =
        std::max<std::size_t>(1, std::lround(m["async.reqs_per_batch"]));
    using Kind = runtime::RtMessage::Kind;
    const Kind singles[] = {Kind::kReadReq, Kind::kReadResp, Kind::kWriteReq,
                            Kind::kWriteAck};
    const Kind batches[] = {Kind::kBatchReadReq, Kind::kBatchReadResp,
                            Kind::kBatchWriteReq, Kind::kBatchWriteAck};
    std::uint64_t s = args_.seed;
    auto key = [&] { return keys_[SplitMix(s) % keys_.size()]; };
    // Weight single vs batch frames by the phases' message counts.
    const double single_share = p.sync.msgs / both.msgs;
    for (int i = 0; i < 64; ++i) {
      net::WireFrame f;
      f.from = 3;
      f.to = static_cast<runtime::NodeId>(i % 3);
      f.msg.op = SplitMix(s) >> 20;
      f.msg.version = SplitMix(s) >> 40;
      f.msg.value = static_cast<std::int64_t>(SplitMix(s) >> 2);
      if (i < 64 * single_share) {
        f.msg.kind = singles[i % 4];
        f.msg.key = key();
      } else {
        f.msg.kind = batches[i % 4];
        for (std::size_t b = 0; b < batch; ++b) {
          f.msg.batch.push_back({SplitMix(s) >> 20, key(),
                                 SplitMix(s) >> 40,
                                 static_cast<std::int64_t>(SplitMix(s) >> 2)});
        }
      }
      mix.push_back(std::move(f));
    }
    std::vector<std::vector<std::uint8_t>> encoded(mix.size());
    for (std::size_t i = 0; i < mix.size(); ++i) {
      net::EncodeFrame(mix[i], encoded[i]);
    }
    std::vector<std::uint8_t> buf;
    m["net.encode_ns_per_frame"] = NsPerCall(4096, 9, [&](std::size_t i) {
      buf.clear();
      net::EncodeFrame(mix[i % mix.size()], buf);
    });
    std::size_t decoded = 0;
    m["net.decode_ns_per_frame"] = NsPerCall(4096, 9, [&](std::size_t i) {
      const auto& e = encoded[i % encoded.size()];
      decoded += net::DecodeFrame(e.data(), e.size()).status ==
                 net::DecodeStatus::kOk;
    });
    if (decoded != 9 * 4096) Fail("codec replay failed to decode a frame");
  }

  // storage (both timed phases)
  m["storage.log_bytes_per_write"] =
      both.log_records > 0 ? both.log_bytes / both.log_records : 0;
  m["storage.appends_per_kop"] = 1e3 * both.appends / ops;
  m["storage.commit_passes_per_kop"] = 1e3 * both.commit_passes / ops;
  m["storage.fsyncs_per_kop"] = 1e3 * both.fsyncs / ops;
  m["storage.checkpoints_per_shard"] = checkpoints_per_shard_;
  m["storage.rotations_per_shard"] = rotations_per_shard_;
  m["storage.disk_bytes_per_key"] =
      w_.durable ? DirBytes(wal_dir_) / static_cast<double>(w_.keys) : 0;
  m["storage.apply_batch_us"] = 0;
  if (w_.durable && !p.writes.empty()) {
    // Replay the run's acked writes through a fresh durable backend with
    // the store's options, in batches of the size one shard saw.
    const std::size_t batch = std::max<std::size_t>(
        1, std::lround(m["replica.ops_per_batch"] *
                       (1 - w_.read_frac)));
    const std::string dir = args_.out_dir + "/apply-" + w_.name;
    std::filesystem::remove_all(dir);
    storage::DurabilityOptions d = *Options().durability;
    d.directory = dir;
    auto backend = storage::MakeDurableBackend(dir, d);
    backend->Recover();
    std::vector<std::vector<storage::WalRecord>> batches;
    for (std::size_t i = 0; i + batch <= p.writes.size(); i += batch) {
      batches.emplace_back(p.writes.begin() + i,
                           p.writes.begin() + i + batch);
    }
    m["storage.apply_batch_us"] =
        NsPerCall(batches.size(), 1, [&](std::size_t i) {
          backend->ApplyWriteBatch(batches[i]);
        }) / 1e3;
    backend.reset();
    std::filesystem::remove_all(dir);
  }
  m["storage.reopen_s"] = Median(reopen_s_);
  m["storage.replayed_records"] = static_cast<double>(replayed_records_);
  m["storage.recover_ms"] = recover_ms_;

  // process / host
  m["proc.sync_cpu_us_per_op"] = p.sync.cpu_us / sync_ops;
  m["proc.ctx_switches_per_op"] = both.ctx_switches / ops;
  m["proc.threads"] = static_cast<double>(p.threads);
  m["host.steal_frac"] = both.Steal();
  {
    double steal = 0, n = 0;
    for (const auto* slices : {&p.sync_slices, &p.pipe_slices}) {
      const auto calm = CalmSlices(*slices);
      for (std::size_t i = 0; i < slices->size(); ++i) {
        if (!calm[i]) continue;
        steal += (*slices)[i].steal;
        ++n;
      }
    }
    m["host.calm_steal_frac"] = n > 0 ? steal / n : 0;
  }

  // Self time per layer, from the spans.
  const auto totals = g_tracer.Aggregate();
  auto self = [&](std::initializer_list<SpanName> names) {
    double us = 0;
    for (SpanName n : names) us += totals[static_cast<std::size_t>(n)].self_us;
    return us;
  };
  m["self.client_us_per_op"] =
      self({SpanName::kRead, SpanName::kWrite}) / sync_ops;
  m["self.async_us_per_op"] =
      self({SpanName::kSubmitRead, SpanName::kSubmitWrite, SpanName::kGet,
            SpanName::kFlush, SpanName::kDrain}) / pipe_ops;
  m["self.bench_us_per_op"] =
      self({SpanName::kSyncPhase, SpanName::kPipePhase}) / ops;

  // Tracing overhead: this traced pass minus the untraced pass before it.
  const auto e_traced = EndToEndOf(p);
  const auto e_plain = EndToEndOf(untraced);
  for (const char* k : {"read_p50_us", "write_p50_us", "pipe_ops_per_s",
                        "pipe_p50_us", "pipe_cpu_us_per_op"}) {
    m[std::string("trace.overhead_") + k] = e_traced.at(k) - e_plain.at(k);
  }

  // The per-layer table, on stderr.
  std::fprintf(stderr, "%-22s %10s %12s %12s\n", "span", "calls", "total_ms",
               "self_ms");
  for (std::size_t i = 0; i < totals.size(); ++i) {
    if (totals[i].count == 0) continue;
    std::fprintf(stderr, "%-22s %10llu %12.2f %12.2f\n", kSpanNames[i],
                 static_cast<unsigned long long>(totals[i].count),
                 totals[i].total_us / 1e3, totals[i].self_us / 1e3);
  }
  return m;
}

void Bench::PrintEnv(const Pass& p) {
  std::ostringstream o;
  o << "{\"env\": {\"workload\": \"" << w_.name << "\", \"seed\": "
    << args_.seed << ", \"nproc\": " << sysconf(_SC_NPROCESSORS_ONLN)
    << ", \"hardware_concurrency\": " << std::thread::hardware_concurrency()
    << ", \"transport\": \"" << store_->TransportName()
    << "\", \"replicas\": " << store_->ReplicaCount()
    << ", \"shards_per_replica\": " << store_->ShardsPerReplica()
    << ", \"workers_per_replica\": " << store_->ReplicaWorkerCount(0)
    << ", \"threads\": " << p.threads << ", \"build_type\": \""
    << QBENCH_BUILD_TYPE << "\", \"source\": \"" << args_.source_id
    << "\", \"fsync\": \""
    << (w_.durable ? storage::ToString(storage::FsyncPolicy::kGroupCommit)
                   : "none")
    << "\", \"wal_dir\": \"" << (w_.durable ? wal_dir_ : "") << "\""
    << ", \"wal_fs\": \"" << (w_.durable ? FsName(wal_dir_) : "") << "\""
    << ", \"host_steal_frac\": " << p.Both().Steal() << "}}";
  std::cout << o.str() << "\n";
}

void PrintResult(bool correct, std::uint64_t attempted, std::uint64_t failed,
                 const std::map<std::string, double>& metrics,
                 const std::map<std::string, std::string>& units) {
  std::ostringstream o;
  o.precision(10);
  o << "{\"correct\": " << (correct ? "true" : "false")
    << ", \"attempted\": " << attempted << ", \"failed\": " << failed
    << ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, value] : metrics) {
    o << (first ? "" : ", ") << "\"" << name << "\": {\"value\": "
      << (std::isfinite(value) ? value : 0) << ", \"unit\": \""
      << units.at(name) << "\"}";
    first = false;
  }
  o << "}}";
  std::cout << o.str() << std::endl;
}

std::string UnitOf(const std::string& name) {
  static const std::map<std::string, std::string> exact = {
      {"setup_s", "s"}, {"pipe_ops_per_s", "1/s"}, {"peak_rss_mb", "MB"},
      {"quorum.pick_ns", "ns"}, {"async.reqs_per_batch", "count"},
      {"replica.ops_per_batch", "count"}, {"replica.shard_skew", "ratio"},
      {"net.bytes_per_frame", "B"}, {"net.decode_errors", "count"},
      {"net.backpressure_drops", "count"}, {"storage.reopen_s", "s"},
      {"storage.replayed_records", "count"}, {"storage.recover_ms", "ms"},
      {"storage.log_bytes_per_write", "B"},
      {"storage.disk_bytes_per_key", "B"}, {"proc.threads", "count"},
      {"host.steal_frac", "fraction"}, {"host.calm_steal_frac", "fraction"},
      {"storage.checkpoints_per_shard", "count"},
      {"storage.rotations_per_shard", "count"},
      {"trace.overhead_pipe_ops_per_s", "1/s"}};
  if (const auto it = exact.find(name); it != exact.end()) return it->second;
  auto ends = [&](const char* suffix) {
    const std::size_t n = std::strlen(suffix);
    return name.size() >= n && name.compare(name.size() - n, n, suffix) == 0;
  };
  if (ends("_n")) return "count";
  if (ends("_us") || ends("_us_per_op")) return "us";
  if (ends("_ns_per_frame")) return "ns";
  if (ends("_per_kop")) return "1/kop";
  if (ends("bytes_per_op")) return "B/op";
  return "1/op";
}

int Bench::Run() {
  std::filesystem::create_directories(args_.out_dir);
  // kSetups segments, each a set-up on a fresh store and then its share of
  // the timed rounds, so the set-ups sample the host's load across the
  // run as the rounds do. A traced run repeats each segment's rounds with
  // spans on, after the untraced ones.
  const int rounds = std::max(
      1, static_cast<int>(std::lround(args_.seconds / kRoundSeconds)));
  std::vector<double> setups;
  Pass plain, traced;
  for (std::size_t seg = 0; seg < kSetups; ++seg) {
    g_tracer.enabled = args_.trace;
    setups.push_back(Setup(seg == 0));
    g_tracer.enabled = false;
    const int n = static_cast<int>(rounds * (seg + 1) / kSetups -
                                   rounds * seg / kSetups);
    Rounds(plain, n, seg == 0);
    if (args_.trace) {
      g_tracer.enabled = true;
      Rounds(traced, n, false);
      g_tracer.enabled = false;
    }
    if (w_.durable) CountStorageWork();
  }
  g_tracer.enabled = args_.trace;
  if (w_.durable) CrashRecoverCheck();
  g_tracer.enabled = false;

  const Pass& p = args_.trace ? traced : plain;
  PrintEnv(p);
  std::map<std::string, double> metrics =
      args_.trace ? Layers(p, plain) : EndToEnd(p, Median(setups));
  if (w_.tcp) {
    const net::TcpStats wire = store_->WireStats();
    if (wire.decode_errors > 0 || wire.backpressure_drops > 0) {
      Fail("wire: " + std::to_string(wire.decode_errors) +
           " decode errors, " + std::to_string(wire.backpressure_drops) +
           " backpressure drops");
    }
  }
  if (args_.trace) {
    g_tracer.Write(args_.out_dir + "/trace-" + w_.name + ".csv");
  }

  CollectDivergences();
  if (divergences_ > 0) {
    Fail(std::to_string(divergences_) + " Lemma 8 divergences observed");
  }
  aux_.reset();
  sync_.reset();
  pipe_.reset();
  store_.reset();
  std::filesystem::remove_all(wal_dir_);
  std::map<std::string, std::string> units;
  for (const auto& [name, value] : metrics) units[name] = UnitOf(name);
  std::cerr << "qbench: " << w_.name << " attempted " << attempted_
            << " failed " << failed_ << " violations " << violations_
            << "\n";
  PrintResult(violations_ == 0, attempted_, failed_, metrics, units);
  return violations_ == 0 ? 0 : 1;
}

int PrintUsage(const char* argv0) {
  std::cerr << "usage: " << argv0
            << " --workload bus_hot|tcp_hot|bus_durable --seed N"
               " --seconds S --trace 0|1 --out-dir DIR [--source-id ID]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    try {
      if (flag == "--workload") args.workload = value;
      else if (flag == "--seed") args.seed = std::stoull(value);
      else if (flag == "--seconds") args.seconds = std::stod(value);
      else if (flag == "--trace") args.trace = value == "1";
      else if (flag == "--out-dir") args.out_dir = value;
      else if (flag == "--source-id") args.source_id = value;
      else return PrintUsage(argv[0]);
    } catch (const std::exception&) {
      return PrintUsage(argv[0]);
    }
  }
  const auto workload = FindWorkload(args.workload);
  if (!workload || args.out_dir.empty() || !(args.seconds > 0) ||
      argc % 2 == 0) {
    return PrintUsage(argv[0]);
  }
  // Measure the store a user gets by default: no environment overrides.
  for (const char* var : {"QCNT_SHARDS", "QCNT_WORKERS", "QCNT_STRATEGY",
                          "QCNT_FAULT_SEED", "QCNT_TCP_PORT_BASE"}) {
    unsetenv(var);
  }
  try {
    Bench bench(*workload, args);
    return bench.Run();
  } catch (const std::exception& e) {
    std::cerr << "qbench: aborted: " << e.what() << "\n";
    return 1;
  }
}
