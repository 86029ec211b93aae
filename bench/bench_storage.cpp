// E20 — storage engine v2: bounded recovery and the cold-read layer.
//
// Five sections, run against one replica's DurableBackend in spill mode
// (the configuration built for keyspaces larger than RAM):
//
//   1. Recovery vs total state, fixed WAL tail. v1 recovery reloaded the
//      whole snapshot, so restart cost grew with the keyspace; v2 opens
//      checkpoints footer-only and replays just the segment tail. The
//      sweep holds the tail at kTailRecords while total state quadruples:
//      the replayed-record count must stay constant, wall-clock ~flat.
//   2. Recovery vs tail, fixed total state. The inverse control: replay
//      cost must scale with the tail — that is the knob operators bound
//      with checkpoint_tail_bytes.
//   3. Cold-read throughput: point Lookups against spilled state, split
//      into present-key probes (bloom passes, one block decode) and
//      absent-key probes (bloom rejects ~99% without touching a block).
//      The counters expose the filter's hit/miss/false-positive split.
//   4. Group-commit sanity: the full ReplicatedStore write path under
//      the fixed window vs the adaptive window — the adaptive knob must
//      stay within noise of the E14/E15 baseline it generalizes.
//   5. Merge pacing: load every key in 1000-write batches (fewer for
//      small loads) with MaybeCompact after each, as the replica loop
//      does, and time each batch. The checkpoint-chain merge runs in slices, so the worst
//      batch stall tracks the tail, not total state; the merged entries
//      written by any one call must stay within that call's budget (the
//      newest checkpoint's entry count). Then a full Recover() of the
//      loaded replica.
//
// Emits BENCH_storage.json (argv[1] overrides the path) for
// tools/check_bench_storage.py. Scale with QCNT_E20_KEYS (default
// 200'000 so CI stays fast; 10'000'000 reproduces the ISSUE's target —
// at ~35 bytes/record plan ~400 MiB of scratch disk).
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iostream>
#include <string>
#include <vector>

#include "common/env.hpp"
#include "runtime/store.hpp"
#include "storage/backend.hpp"
#include "table.hpp"

namespace {

namespace fs = std::filesystem;
using namespace qcnt;
using Clock = std::chrono::steady_clock;

constexpr const char* kScratch = "bench_storage_scratch";
constexpr std::uint64_t kTailRecords = 4000;

double MsSince(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0)
      .count();
}

std::string Key(std::uint64_t i) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "user_%010llu",
                static_cast<unsigned long long>(i));
  return buf;
}

storage::DurabilityOptions SpillOptions() {
  storage::DurabilityOptions o;
  o.fsync = storage::FsyncPolicy::kNever;  // measure the engine, not the disk
  // Bigger-than-default checkpoints and a longer chain keep the populate
  // phase's compaction traffic sane at the 10M-key scale.
  o.checkpoint_tail_bytes = 4u << 20;
  o.segment_bytes = 1u << 20;
  o.max_checkpoints = 8;
  o.spill_cold_reads = true;
  return o;
}

/// Write keys [0, keys) at version 1 in `batch_records`-write batches
/// through the normal apply + threshold path (one ApplyWriteBatch and one
/// MaybeCompact per batch, like the replica loop); `on_batch` gets each
/// batch's wall time in ms.
void LoadKeys(storage::Backend& backend, storage::Image& image,
              std::uint64_t keys, std::uint64_t batch_records,
              const std::function<void(double)>& on_batch) {
  std::vector<storage::WalRecord> batch;
  batch.reserve(batch_records);
  for (std::uint64_t i = 0; i < keys; ++i) {
    storage::WalRecord r;
    r.key = Key(i);
    r.version = 1;
    r.value = static_cast<std::int64_t>(i);
    batch.push_back(std::move(r));
    if (batch.size() < batch_records && i + 1 < keys) continue;
    const auto t0 = Clock::now();
    for (const storage::WalRecord& rec : batch) {
      image.ApplyWrite(rec.key, rec.version, rec.value);
    }
    backend.ApplyWriteBatch(batch);
    backend.MaybeCompact(image);
    on_batch(MsSince(t0));
    batch.clear();
  }
}

/// Populate `dir` with `keys` distinct keys, leaving a checkpointed
/// chain; then append exactly `tail` more records so the un-checkpointed
/// tail is a controlled size.
void Populate(const std::string& dir, std::uint64_t keys,
              std::uint64_t tail) {
  fs::remove_all(dir);
  fs::create_directories(dir);
  auto backend = storage::MakeDurableBackend(dir, SpillOptions());
  storage::Image image = backend->Recover();
  LoadKeys(*backend, image, keys, 1000, [](double) {});
  backend->ForceCheckpoint(image);  // tail now empty
  for (std::uint64_t i = 0; i < tail; ++i) {
    // Overwrite low keys at version 2: a realistic hot tail.
    const std::uint64_t k = i % (keys > 0 ? keys : 1);
    image.ApplyWrite(Key(k), 2, -1);
    storage::WalRecord r;
    r.key = Key(k);
    r.version = 2;
    r.value = -1;
    backend->ApplyWriteBatch({r});
    // No MaybeCompact: the tail must survive to the recovery measurement
    // (kTailRecords * ~35 B stays under checkpoint_tail_bytes anyway).
  }
}

struct RecoveryPoint {
  std::uint64_t total_keys = 0;
  std::uint64_t tail_records = 0;
  double recover_ms = 0;
  std::uint64_t replayed = 0;
  std::uint64_t image_entries = 0;  // what Recover materialized in RAM
};

RecoveryPoint MeasureRecovery(std::uint64_t keys, std::uint64_t tail) {
  const std::string dir = std::string(kScratch) + "/recovery";
  Populate(dir, keys, tail);
  RecoveryPoint p;
  p.total_keys = keys;
  p.tail_records = tail;
  {
    auto backend = storage::MakeDurableBackend(dir, SpillOptions());
    const auto t0 = Clock::now();
    const storage::Image image = backend->Recover();
    p.recover_ms = MsSince(t0);
    const storage::StorageStats stats = backend->Stats();
    p.replayed = stats.recovery_replayed;
    p.image_entries = image.data.size();
  }
  fs::remove_all(dir);
  return p;
}

struct ColdReadPoint {
  std::uint64_t present_probes = 0;
  double present_per_sec = 0;
  std::uint64_t absent_probes = 0;
  double absent_per_sec = 0;
  std::uint64_t bloom_hits = 0;
  std::uint64_t bloom_misses = 0;
  std::uint64_t bloom_false_positives = 0;
  double false_positive_rate = 0;
  bool all_present_found = true;
};

ColdReadPoint MeasureColdReads(std::uint64_t keys) {
  const std::string dir = std::string(kScratch) + "/cold";
  Populate(dir, keys, 0);
  ColdReadPoint p;
  auto backend = storage::MakeDurableBackend(dir, SpillOptions());
  storage::Image image = backend->Recover();

  const std::uint64_t probes = std::min<std::uint64_t>(keys, 50'000);
  storage::Versioned v;
  // Present keys, strided so probes spread across blocks and files.
  const std::uint64_t stride = keys > probes ? keys / probes : 1;
  auto t0 = Clock::now();
  for (std::uint64_t i = 0; i < probes; ++i) {
    if (!backend->Lookup(Key((i * stride) % keys), &v)) {
      p.all_present_found = false;
    }
  }
  p.present_per_sec = static_cast<double>(probes) / (MsSince(t0) / 1000.0);
  p.present_probes = probes;

  // Absent keys: the bloom filter's whole reason to exist.
  t0 = Clock::now();
  for (std::uint64_t i = 0; i < probes; ++i) {
    backend->Lookup(Key(keys + 1 + i), &v);
  }
  p.absent_per_sec = static_cast<double>(probes) / (MsSince(t0) / 1000.0);
  p.absent_probes = probes;

  const storage::StorageStats stats = backend->Stats();
  p.bloom_hits = stats.bloom_hits;
  p.bloom_misses = stats.bloom_misses;
  p.bloom_false_positives = stats.bloom_false_positives;
  // Per-filter-probe rate: a lookup consults one bloom filter per
  // checkpoint in the chain until the key is found, so the denominator
  // is filter consultations for keys the checkpoint did NOT hold
  // (misses + false positives) — dividing by lookups instead would
  // scale the reported rate with chain length.
  const std::uint64_t filter_rejections =
      stats.bloom_misses + stats.bloom_false_positives;
  p.false_positive_rate =
      filter_rejections == 0
          ? 0
          : static_cast<double>(stats.bloom_false_positives) /
                static_cast<double>(filter_rejections);
  fs::remove_all(dir);
  return p;
}

struct GroupCommitPoint {
  double fixed_writes_per_sec = 0;
  double adaptive_writes_per_sec = 0;
  std::uint64_t fixed_fsyncs = 0;
  std::uint64_t adaptive_fsyncs = 0;
};

double StoreWriteRate(bool adaptive, std::uint64_t* fsyncs) {
  const std::string dir =
      std::string(kScratch) + (adaptive ? "/gc_adaptive" : "/gc_fixed");
  fs::remove_all(dir);
  runtime::StoreOptions options;
  options.replicas = 3;
  storage::DurabilityOptions durability;
  durability.directory = dir;
  durability.fsync = storage::FsyncPolicy::kGroupCommit;
  durability.group_commit_window = std::chrono::microseconds(500);
  durability.adaptive_commit_window = adaptive;
  options.durability = durability;
  double rate = 0;
  {
    runtime::ReplicatedStore store(std::move(options));
    auto client = store.MakeClient();
    const std::size_t ops = 400;
    const auto t0 = Clock::now();
    for (std::size_t i = 0; i < ops; ++i) {
      std::string key = "k";
      key += std::to_string(i % 8);
      if (!client->Write(key, static_cast<std::int64_t>(i)).ok) {
        return 0;
      }
    }
    rate = static_cast<double>(ops) / (MsSince(t0) / 1000.0);
    *fsyncs = store.TotalStorageStats().fsyncs;
  }
  fs::remove_all(dir);
  return rate;
}

struct PacingPoint {
  std::uint64_t batches = 0;
  double worst_stall_ms = 0;
  double p99_stall_ms = 0;
  double load_s = 0;
  std::uint64_t merges = 0;
  std::uint64_t merge_entries = 0;
  std::uint64_t max_merge_entries_per_call = 0;
  /// Largest budget any call had: the newest checkpoint's entry count.
  std::uint64_t merge_budget_entries = 0;
  double recover_ms = 0;
};

PacingPoint MeasureMergePacing(std::uint64_t keys) {
  const std::string dir = std::string(kScratch) + "/pacing";
  fs::remove_all(dir);
  fs::create_directories(dir);
  // SpillOptions and 1000-write batches at scale (4 MiB tail, 1 MiB
  // segments, an 8-file chain). A load too small to fill ~64 such tails
  // (~40 B per record) gets a proportionally smaller tail and batches, so
  // the CI-sized run still merges several times with ~100 batches per
  // checkpoint interval, as at 10M keys.
  storage::DurabilityOptions options = SpillOptions();
  options.checkpoint_tail_bytes =
      std::min<std::uint64_t>(options.checkpoint_tail_bytes, keys * 40 / 64);
  options.segment_bytes = std::min<std::uint64_t>(
      options.segment_bytes, options.checkpoint_tail_bytes / 4);
  const std::uint64_t batch_records =
      std::clamp<std::uint64_t>(keys / 8192, 1, 1000);
  PacingPoint p;
  std::vector<double> stalls;
  {
    auto backend = storage::MakeDurableBackend(dir, options);
    storage::Image image = backend->Recover();
    storage::StorageStats last = backend->Stats();
    std::uint64_t newest_checkpoint = 0;
    const auto load0 = Clock::now();
    LoadKeys(*backend, image, keys, batch_records, [&](double ms) {
      stalls.push_back(ms);
      const storage::StorageStats now = backend->Stats();
      // A call's merge slice is sized before it checkpoints, so its
      // budget is the checkpoint that was newest when it started.
      if (now.merge_entries > last.merge_entries) {
        p.max_merge_entries_per_call =
            std::max(p.max_merge_entries_per_call,
                     now.merge_entries - last.merge_entries);
        p.merge_budget_entries =
            std::max(p.merge_budget_entries, newest_checkpoint);
      }
      if (now.checkpoints_written > last.checkpoints_written) {
        newest_checkpoint = now.checkpoint_entries - last.checkpoint_entries;
      }
      last = now;
    });
    p.load_s = MsSince(load0) / 1000.0;
    p.merges = last.checkpoint_merges;
    p.merge_entries = last.merge_entries;
  }
  p.batches = stalls.size();
  std::sort(stalls.begin(), stalls.end());
  if (!stalls.empty()) {
    p.worst_stall_ms = stalls.back();
    p.p99_stall_ms = stalls[(stalls.size() - 1) * 99 / 100];
  }
  {
    auto backend = storage::MakeDurableBackend(dir, options);
    const auto t0 = Clock::now();
    backend->Recover();
    p.recover_ms = MsSince(t0);
  }
  fs::remove_all(dir);
  return p;
}

void EmitRecoveryRows(std::ofstream& os, const char* name,
                      const std::vector<RecoveryPoint>& rows) {
  os << "  \"" << name << "\": [\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const RecoveryPoint& r = rows[i];
    os << "    {\"total_keys\": " << r.total_keys
       << ", \"tail_records\": " << r.tail_records
       << ", \"recover_ms\": " << r.recover_ms
       << ", \"replayed\": " << r.replayed
       << ", \"image_entries\": " << r.image_entries << "}"
       << (i + 1 < rows.size() ? "," : "") << "\n";
  }
  os << "  ],\n";
}

}  // namespace

int main(int argc, char** argv) {
  const std::string json_path = argc > 1 ? argv[1] : "BENCH_storage.json";
  const std::uint64_t keys =
      common::EnvU64("QCNT_E20_KEYS", 1000, 1u << 30).value_or(200'000);
  fs::remove_all(kScratch);

  // --- 1. Recovery vs total state, fixed tail --------------------------
  bench::Banner("E20: recovery time vs total state (tail fixed at " +
                std::to_string(kTailRecords) + " records)");
  std::vector<RecoveryPoint> vs_state;
  for (const std::uint64_t n : {keys / 4, keys / 2, keys}) {
    vs_state.push_back(MeasureRecovery(n, kTailRecords));
  }
  {
    bench::Table table({"total keys", "tail records", "recover ms",
                        "records replayed", "RAM entries after"});
    for (const RecoveryPoint& r : vs_state) {
      table.AddRow({std::to_string(r.total_keys),
                    std::to_string(r.tail_records),
                    bench::Table::Num(r.recover_ms, 2),
                    std::to_string(r.replayed),
                    std::to_string(r.image_entries)});
    }
    table.Print();
    std::cout << "\nShape check: replayed records and recovery time track "
                 "the tail, not total state\n(v1 reloaded the whole "
                 "snapshot here — linear in total keys).\n";
  }

  // --- 2. Recovery vs tail, fixed total state --------------------------
  bench::Banner("E20: recovery time vs WAL tail (state fixed at " +
                std::to_string(keys / 2) + " keys)");
  std::vector<RecoveryPoint> vs_tail;
  for (const std::uint64_t tail : {kTailRecords / 4, kTailRecords,
                                   kTailRecords * 4}) {
    vs_tail.push_back(MeasureRecovery(keys / 2, tail));
  }
  {
    bench::Table table({"total keys", "tail records", "recover ms",
                        "records replayed"});
    for (const RecoveryPoint& r : vs_tail) {
      table.AddRow({std::to_string(r.total_keys),
                    std::to_string(r.tail_records),
                    bench::Table::Num(r.recover_ms, 2),
                    std::to_string(r.replayed)});
    }
    table.Print();
    std::cout << "\nShape check: replay cost scales with the tail — the "
                 "bound checkpoint_tail_bytes buys.\n";
  }

  // --- 3. Cold reads through the bloom + block index -------------------
  bench::Banner("E20: cold point reads over " + std::to_string(keys) +
                " spilled keys");
  const ColdReadPoint cold = MeasureColdReads(keys);
  {
    bench::Table table({"probe set", "probes", "reads/s", "bloom hits",
                        "bloom misses", "false positives"});
    table.AddRow({"present keys", std::to_string(cold.present_probes),
                  bench::Table::Num(cold.present_per_sec, 0),
                  std::to_string(cold.bloom_hits), "-", "-"});
    table.AddRow({"absent keys", std::to_string(cold.absent_probes),
                  bench::Table::Num(cold.absent_per_sec, 0), "-",
                  std::to_string(cold.bloom_misses),
                  std::to_string(cold.bloom_false_positives)});
    table.Print();
    std::cout << "\nShape check: absent probes are mostly bloom misses "
                 "(no block I/O); the false-positive\nrate sits near the "
                 "designed ~1% at 10 bits/key (measured: "
              << bench::Table::Num(100.0 * cold.false_positive_rate, 2)
              << "%).\n";
  }
  if (!cold.all_present_found) {
    std::cerr << "E20 FAIL: a present key missed in the cold layer\n";
    fs::remove_all(kScratch);
    return 1;
  }

  // --- 4. Group-commit sanity (E14/E15 anchor) -------------------------
  bench::Banner("E20: group-commit window — fixed vs adaptive");
  GroupCommitPoint gc;
  gc.fixed_writes_per_sec = StoreWriteRate(false, &gc.fixed_fsyncs);
  gc.adaptive_writes_per_sec = StoreWriteRate(true, &gc.adaptive_fsyncs);
  {
    bench::Table table({"window", "writes/s", "fsyncs"});
    table.AddRow({"fixed 500us",
                  bench::Table::Num(gc.fixed_writes_per_sec, 0),
                  std::to_string(gc.fixed_fsyncs)});
    table.AddRow({"adaptive 100us..4000us",
                  bench::Table::Num(gc.adaptive_writes_per_sec, 0),
                  std::to_string(gc.adaptive_fsyncs)});
    table.Print();
    std::cout << "\nShape check: the adaptive window stays within noise "
                 "of the fixed-window baseline\n(it exists to trade "
                 "latency for amortization under load, not to change "
                 "throughput here).\n";
  }
  if (gc.fixed_writes_per_sec <= 0 || gc.adaptive_writes_per_sec <= 0) {
    std::cerr << "E20 FAIL: a group-commit section produced no writes\n";
    fs::remove_all(kScratch);
    return 1;
  }

  // --- 5. Merge pacing: per-batch stall while the chain merges ---------
  bench::Banner("E20: per-batch stall over a " + std::to_string(keys) +
                "-key load (merges paced in slices)");
  const PacingPoint pacing = MeasureMergePacing(keys);
  {
    bench::Table table({"batches", "worst stall ms", "p99 stall ms",
                        "load s", "merges", "max merged/call",
                        "budget/call", "Recover() ms"});
    table.AddRow({std::to_string(pacing.batches),
                  bench::Table::Num(pacing.worst_stall_ms, 2),
                  bench::Table::Num(pacing.p99_stall_ms, 2),
                  bench::Table::Num(pacing.load_s, 1),
                  std::to_string(pacing.merges),
                  std::to_string(pacing.max_merge_entries_per_call),
                  std::to_string(pacing.merge_budget_entries),
                  bench::Table::Num(pacing.recover_ms, 2)});
    table.Print();
    std::cout << "\nShape check: no call writes more merged entries than "
                 "the newest checkpoint holds,\nso the worst batch stall "
                 "is bounded by the tail, not by total state.\n";
  }

  // --- JSON ------------------------------------------------------------
  std::ofstream os(json_path);
  os << "{\n";
  os << "  \"keys\": " << keys << ",\n";
  os << "  \"tail_records\": " << kTailRecords << ",\n";
  EmitRecoveryRows(os, "recovery_vs_state", vs_state);
  EmitRecoveryRows(os, "recovery_vs_tail", vs_tail);
  os << "  \"cold_reads\": {\"present_probes\": " << cold.present_probes
     << ", \"present_per_sec\": " << cold.present_per_sec
     << ", \"absent_probes\": " << cold.absent_probes
     << ", \"absent_per_sec\": " << cold.absent_per_sec
     << ", \"bloom_hits\": " << cold.bloom_hits
     << ", \"bloom_misses\": " << cold.bloom_misses
     << ", \"bloom_false_positives\": " << cold.bloom_false_positives
     << ", \"false_positive_rate\": " << cold.false_positive_rate
     << "},\n";
  os << "  \"group_commit\": {\"fixed_writes_per_sec\": "
     << gc.fixed_writes_per_sec
     << ", \"adaptive_writes_per_sec\": " << gc.adaptive_writes_per_sec
     << ", \"fixed_fsyncs\": " << gc.fixed_fsyncs
     << ", \"adaptive_fsyncs\": " << gc.adaptive_fsyncs << "},\n";
  os << "  \"merge_pacing\": {\"batches\": " << pacing.batches
     << ", \"worst_stall_ms\": " << pacing.worst_stall_ms
     << ", \"p99_stall_ms\": " << pacing.p99_stall_ms
     << ", \"load_s\": " << pacing.load_s
     << ", \"merges\": " << pacing.merges
     << ", \"merge_entries\": " << pacing.merge_entries
     << ", \"max_merge_entries_per_call\": "
     << pacing.max_merge_entries_per_call
     << ", \"merge_budget_entries\": " << pacing.merge_budget_entries
     << ", \"recover_ms\": " << pacing.recover_ms << "}\n";
  os << "}\n";
  os.close();
  std::cout << "\nwrote " << json_path << "\n";

  fs::remove_all(kScratch);
  return 0;
}
