// Workload-adaptive quorum strategy selection.
//
// The paper's §4 reconfiguration machinery makes the quorum system a
// runtime variable; the StrategyAdvisor closes the loop by choosing one
// from the observed workload. A background thread samples the store's
// replica-side read/write counters (BatchStats::read_ops/write_ops)
// every poll_interval; when the read fraction of a window crosses
// read_heavy_threshold the advisor installs the read-optimized strategy
// (ROWA by default), and when it falls back to write_heavy_threshold it
// restores the balanced strategy (majority by default). The gap between
// the two thresholds is the hysteresis band: a workload oscillating
// inside it never flaps the configuration.
//
// A switch is a full §4 reconfiguration over the *current* member set —
// append the target configuration, stamp it through a write quorum of
// the old one (QuorumClient::Reconfigure on the store's coordinator
// slot), then commit it as the config new clients start from. Live
// clients learn the new stamp through fence NACKs mid-operation, so the
// switch needs no quiescence. Membership changes and strategy switches
// serialize on the store's membership lock.
#pragma once

#include <chrono>
#include <condition_variable>
#include <mutex>
#include <string>
#include <thread>

#include "quorum/strategy_descriptor.hpp"
#include "runtime/client.hpp"

namespace qcnt::runtime {

class ReplicatedStore;

struct StrategyAdvisorOptions {
  /// Workload-sampling period.
  std::chrono::milliseconds poll_interval{50};
  /// Read fraction at or above which a window argues for `read_heavy`.
  double read_heavy_threshold = 0.9;
  /// Read fraction at or below which a window argues for `balanced`.
  /// Must be < read_heavy_threshold; the gap is the hysteresis band.
  double write_heavy_threshold = 0.5;
  /// Windows with fewer total ops than this are ignored — an idle store
  /// must not reconfigure on the ratio of a handful of stragglers.
  std::uint64_t min_ops_per_window = 64;
  /// Quiet period after a switch before another is considered.
  std::chrono::milliseconds cooldown{250};
  /// Strategy installed when the workload turns read-heavy. Must be
  /// derivable over the store's current member count at switch time.
  quorum::StrategyDescriptor read_heavy{
      quorum::StrategyKind::kReadOneWriteAll, 0, 0, {}, 0, 0};
  /// Strategy restored when writes return.
  quorum::StrategyDescriptor balanced{quorum::StrategyKind::kMajority,
                                      0, 0, {}, 0, 0};
  /// Options for the reconfiguring client a switch runs.
  ClientOptions client;
};

class StrategyAdvisor {
 public:
  struct Stats {
    /// Sampling windows observed (including ones below min_ops).
    std::uint64_t windows = 0;
    /// Successful strategy switches installed.
    std::uint64_t switches = 0;
    /// Switch attempts that failed (no quorum, underivable strategy).
    std::uint64_t failed_switches = 0;
    /// Read fraction of the last window that met min_ops_per_window.
    double last_read_fraction = 0.0;
    /// Human-readable reason of the last failed switch (empty if none).
    std::string last_error;
  };

  /// The advisor samples immediately after Start(); construction itself
  /// starts nothing.
  StrategyAdvisor(ReplicatedStore& store, StrategyAdvisorOptions options);
  ~StrategyAdvisor();

  StrategyAdvisor(const StrategyAdvisor&) = delete;
  StrategyAdvisor& operator=(const StrategyAdvisor&) = delete;

  void Start();
  void Stop();

  /// Install `d` over the current member set via a §4 reconfiguration,
  /// regardless of workload (the manual lever; the sampling loop calls
  /// this too). Returns false with `error` filled when the descriptor
  /// cannot span the membership or the stamp found no quorum.
  bool SwitchTo(const quorum::StrategyDescriptor& d, std::string* error);

  Stats AdvisorStats() const;

 private:
  void Run();
  void Tick();

  ReplicatedStore* store_;
  StrategyAdvisorOptions options_;

  std::thread thread_;
  mutable std::mutex mu_;
  std::condition_variable cv_;
  bool running_ = false;
  bool stop_ = false;

  std::uint64_t last_reads_ = 0;
  std::uint64_t last_writes_ = 0;
  std::chrono::steady_clock::time_point cooldown_until_{};
  Stats stats_;
};

}  // namespace qcnt::runtime
