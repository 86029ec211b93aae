#include "sim/network.hpp"

#include "common/check.hpp"

namespace qcnt::sim {

Time LatencyModel::Sample(Rng& rng) const {
  switch (kind) {
    case Kind::kFixed:
      return a;
    case Kind::kUniform:
      return a + (b - a) * rng.NextDouble();
    case Kind::kExponential:
      return b + rng.Exponential(a);
  }
  return a;
}

Network::Network(Simulator& sim, std::size_t nodes, LatencyModel latency,
                 double drop_probability, std::uint64_t seed)
    : sim_(&sim),
      latency_(latency),
      drop_probability_(drop_probability),
      rng_(seed),
      handlers_(nodes),
      up_(nodes, 1) {
  QCNT_CHECK(nodes >= 1 && nodes <= 64);
  QCNT_CHECK(drop_probability >= 0.0 && drop_probability < 1.0);
}

void Network::SetHandler(NodeId node, Handler handler) {
  QCNT_CHECK(node < handlers_.size());
  handlers_[node] = std::move(handler);
}

bool Network::Reachable(NodeId from, NodeId to) const {
  const bool a = (partition_side_ >> from) & 1;
  const bool b = (partition_side_ >> to) & 1;
  return a == b;
}

void Network::Send(NodeId from, NodeId to, runtime::RtMessage m) {
  if (InFlight* f = Schedule(from, to)) f->own = std::move(m);
}

void Network::Send(NodeId from, NodeId to,
                   std::shared_ptr<const runtime::RtMessage> m) {
  if (InFlight* f = Schedule(from, to)) f->shared = std::move(m);
}

Network::InFlight* Network::Schedule(NodeId from, NodeId to) {
  QCNT_CHECK(from < handlers_.size() && to < handlers_.size());
  ++sent_;
  if (!up_[from] || !Reachable(from, to) ||
      rng_.Chance(drop_probability_)) {
    ++dropped_;
    return nullptr;
  }
  const Time delay = latency_.Sample(rng_);
  std::uint32_t slot;
  if (free_slots_.empty()) {
    slot = static_cast<std::uint32_t>(in_flight_.size());
    in_flight_.emplace_back();
  } else {
    slot = free_slots_.back();
    free_slots_.pop_back();
  }
  sim_->After(delay, [this, slot] { Deliver(slot); });
  InFlight& f = in_flight_[slot];
  f.from = from;
  f.to = to;
  return &f;
}

void Network::Deliver(std::uint32_t slot) {
  // Moved out first: the handler may send, and reuse the slot.
  const InFlight f = std::move(in_flight_[slot]);
  free_slots_.push_back(slot);
  // Re-check liveness and reachability at delivery time.
  if (!up_[f.to] || !Reachable(f.from, f.to)) {
    ++dropped_;
    return;
  }
  ++delivered_;
  if (handlers_[f.to]) handlers_[f.to](f.from, f.shared ? *f.shared : f.own);
}

void Network::Crash(NodeId node) {
  QCNT_CHECK(node < up_.size());
  up_[node] = 0;
}

void Network::Recover(NodeId node) {
  QCNT_CHECK(node < up_.size());
  up_[node] = 1;
}

std::uint64_t Network::UpMask() const {
  std::uint64_t mask = 0;
  for (NodeId i = 0; i < up_.size(); ++i) {
    if (up_[i]) mask |= 1ull << i;
  }
  return mask;
}

void Network::Partition(std::uint64_t side_mask) {
  partition_side_ = side_mask;
}

void Network::Heal() { partition_side_ = ~0ull; }

}  // namespace qcnt::sim
