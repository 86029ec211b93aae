// Simulated message network with latency, drops, crashes and partitions.
//
// Nodes exchange the runtime's RtMessage values. Delivery latency is
// sampled from a configurable distribution; messages may be dropped
// independently; crashed nodes neither send nor receive; partitioned node
// pairs cannot communicate. Everything is driven by the shared Simulator,
// and all randomness comes from one seeded Rng, so runs are reproducible.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "common/rng.hpp"
#include "runtime/message.hpp"
#include "sim/simulator.hpp"

namespace qcnt::sim {

using runtime::NodeId;

struct LatencyModel {
  enum class Kind : std::uint8_t { kFixed, kUniform, kExponential };
  Kind kind = Kind::kFixed;
  /// kFixed: value = a. kUniform: [a, b]. kExponential: mean a, offset b
  /// (i.e. b + Exp(a), so there is a propagation floor).
  double a = 1.0;
  double b = 0.0;

  Time Sample(Rng& rng) const;

  static LatencyModel Fixed(double ms) {
    return {Kind::kFixed, ms, 0.0};
  }
  static LatencyModel Uniform(double lo, double hi) {
    return {Kind::kUniform, lo, hi};
  }
  static LatencyModel Exponential(double mean, double floor = 0.0) {
    return {Kind::kExponential, mean, floor};
  }
};

class Network {
 public:
  using Handler = std::function<void(NodeId from, const runtime::RtMessage&)>;

  Network(Simulator& sim, std::size_t nodes, LatencyModel latency,
          double drop_probability, std::uint64_t seed);

  void SetHandler(NodeId node, Handler handler);

  /// Deliver m from `from` to `to` after a sampled latency, unless either
  /// endpoint is down at send or delivery time, the pair is partitioned,
  /// or the message is dropped.
  void Send(NodeId from, NodeId to, runtime::RtMessage m);
  /// The same for one destination of a fan-out: every destination's Send
  /// gets the one shared message, so n destinations cost no copies.
  void Send(NodeId from, NodeId to,
            std::shared_ptr<const runtime::RtMessage> m);

  void Crash(NodeId node);
  void Recover(NodeId node);
  /// Bitmask of currently up nodes (node i -> bit i; node count <= 64).
  std::uint64_t UpMask() const;

  /// Split the network into {nodes with bit set} vs the rest. Messages
  /// across the cut are dropped until Heal().
  void Partition(std::uint64_t side_mask);
  void Heal();

  std::uint64_t MessagesSent() const { return sent_; }
  std::uint64_t MessagesDelivered() const { return delivered_; }
  std::uint64_t MessagesDropped() const { return dropped_; }

 private:
  /// A message between its send and its delivery event: a fan-out's
  /// shared one, or else a single send's own.
  struct InFlight {
    NodeId from = 0;
    NodeId to = 0;
    std::shared_ptr<const runtime::RtMessage> shared;
    runtime::RtMessage own;
  };

  bool Reachable(NodeId from, NodeId to) const;
  /// Count the send, and unless it is dropped, schedule its delivery and
  /// return its slot for the caller to fill (valid until the next call).
  InFlight* Schedule(NodeId from, NodeId to);
  void Deliver(std::uint32_t slot);

  Simulator* sim_;
  LatencyModel latency_;
  double drop_probability_;
  Rng rng_;
  std::vector<Handler> handlers_;
  std::vector<std::uint8_t> up_;
  /// In-flight messages by slot (free slots listed in free_slots_). A
  /// delivery event names only its slot, so its closure fits inside the
  /// event's std::function and a send allocates nothing per destination.
  std::vector<InFlight> in_flight_;
  std::vector<std::uint32_t> free_slots_;
  std::uint64_t partition_side_ = ~0ull;  // every node on one side: no cut
  std::uint64_t sent_ = 0;
  std::uint64_t delivered_ = 0;
  std::uint64_t dropped_ = 0;
};

}  // namespace qcnt::sim
