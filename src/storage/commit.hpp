// Cross-shard group-commit coordination.
//
// A sharded durable replica owns one WAL segment per shard. With the
// per-segment group-commit policy each segment made its *own* fsync
// decision inside Append — so a batch touching S shards paid up to S
// inline fsyncs, every one of them stalling the replica loop, and a quiet
// segment's tail was never synced at all (the window check only ran on
// the next append).
//
// The coordinator replaces those per-segment decisions with one shared
// commit ticket per replica: the replica loop appends with FsyncPolicy::
// kNever and just marks the ticket dirty (an atomic flag + a notify —
// never a syscall on the append path). A dedicated committer thread
// wakes, lets the group-commit window fill so appends to every shard pile
// onto the same ticket, then walks every registered segment and fsyncs
// exactly the dirty ones. One fsync *decision* per window covers the
// whole shard set, and the replica loop never blocks behind the disk.
//
// Adaptive windows (optional): the fixed window is a compromise — too
// narrow under load (fsyncs amortize few appends), too wide when idle
// (every commit waits the full window for nothing). With
// `Options::adaptive` the committer re-sizes the window after each pass
// from the observed arrival rate: many appends rode the last ticket →
// widen (more amortization per fsync); a near-empty ticket → narrow
// (less added latency). The decision rule is a pure function
// (`NextWindow`) so tests pin it down without threads or clocks.
//
// Durability bound is unchanged from per-segment group commit: an acked
// write can predate its fsync by at most the window (plus the sync pass
// itself) — the classic group-commit trade, now paid once per replica
// instead of once per shard, with the window floor/ceiling bounding the
// adaptive case.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <thread>
#include <vector>

namespace qcnt::storage {

class Wal;

class GroupCommitCoordinator {
 public:
  struct Options {
    std::chrono::microseconds window{500};
    /// Re-size the window from observed arrival rate. Off by default:
    /// the fixed window is the measured PR-8 baseline.
    bool adaptive = false;
    std::chrono::microseconds min_window{100};
    std::chrono::microseconds max_window{4000};
  };

  /// Appends marked during one pass at or above this ride-along count
  /// widen the window; at or below the narrow count it shrinks back.
  static constexpr std::uint64_t kWidenMarks = 8;
  static constexpr std::uint64_t kNarrowMarks = 1;

  explicit GroupCommitCoordinator(Options options);
  /// Fixed-window convenience (the pre-adaptive interface).
  explicit GroupCommitCoordinator(std::chrono::microseconds window)
      : GroupCommitCoordinator(Options{window, false, window, window}) {}
  ~GroupCommitCoordinator();

  GroupCommitCoordinator(const GroupCommitCoordinator&) = delete;
  GroupCommitCoordinator& operator=(const GroupCommitCoordinator&) = delete;

  /// Register a segment for commit passes. The caller keeps ownership;
  /// it must Detach before destroying the Wal.
  void Attach(Wal* wal);

  /// Deregister a segment. Blocks until any in-flight commit pass that
  /// may hold the segment has finished, so the Wal is safe to destroy
  /// when this returns.
  void Detach(Wal* wal);

  /// Mark the shared ticket dirty: something was appended somewhere.
  /// Cheap and non-blocking — never waits on a sync in progress.
  void MarkDirty();

  /// Commit passes that fsynced at least one segment — the number of
  /// fsync *decisions* taken for the whole shard set.
  std::uint64_t Passes() const {
    return passes_.load(std::memory_order_relaxed);
  }

  /// Individual segment fsyncs issued across all passes.
  std::uint64_t WalsSynced() const {
    return wals_synced_.load(std::memory_order_relaxed);
  }

  /// The window the next pass will sleep (moves only in adaptive mode).
  std::chrono::microseconds CurrentWindow() const {
    return std::chrono::microseconds(
        window_us_.load(std::memory_order_relaxed));
  }

  /// The adaptive step, factored out for direct testing: given the window
  /// just slept and the appends that marked the ticket during it, the
  /// window for the next pass. Doubles toward max_window at or above
  /// kWidenMarks, halves toward min_window at or below kNarrowMarks,
  /// holds otherwise; returns `options.window` untouched when adaptation
  /// is off.
  static std::chrono::microseconds NextWindow(std::chrono::microseconds
                                                  current,
                                              std::uint64_t marks,
                                              const Options& options);

 private:
  void Loop();

  const Options options_;
  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::vector<Wal*> wals_;
  bool dirty_ = false;
  bool in_pass_ = false;  // committer is touching segments (Detach waits)
  bool stop_ = false;
  std::atomic<std::uint64_t> passes_{0};
  std::atomic<std::uint64_t> wals_synced_{0};
  std::atomic<std::uint64_t> marks_{0};  // MarkDirty calls since last pass
  std::atomic<std::int64_t> window_us_;
  std::thread committer_;
};

}  // namespace qcnt::storage
