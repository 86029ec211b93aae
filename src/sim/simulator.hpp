// Discrete-event simulator.
//
// The paper evaluates nothing empirically; our quantitative experiments
// (DESIGN.md E7/E9/E11) need a substrate with message latency, crashes and
// partitions. This simulator is deterministic given a seed: events fire in
// (time, insertion-sequence) order, so runs are exactly reproducible.
#pragma once

#include <cstdint>
#include <functional>
#include <limits>
#include <queue>
#include <vector>

namespace qcnt::sim {

/// Simulated time in milliseconds.
using Time = double;

inline constexpr Time kForever = std::numeric_limits<Time>::infinity();

class Simulator {
 public:
  Time Now() const { return now_; }

  /// Schedule fn at absolute time t (>= Now()).
  void At(Time t, std::function<void()> fn);

  /// Schedule fn after a delay (>= 0) from Now().
  void After(Time delay, std::function<void()> fn);

  /// Run until the queue empties or simulated time exceeds `until`.
  void Run(Time until = kForever);

  std::size_t PendingEvents() const { return queue_.size(); }

 private:
  struct Event {
    Time at;
    std::uint64_t seq;  // tie-break: FIFO among simultaneous events
    std::function<void()> fn;
  };
  struct Later {
    bool operator()(const Event& a, const Event& b) const {
      if (a.at != b.at) return a.at > b.at;
      return a.seq > b.seq;
    }
  };

  Time now_ = 0.0;
  std::uint64_t next_seq_ = 0;
  std::priority_queue<Event, std::vector<Event>, Later> queue_;
};

}  // namespace qcnt::sim
