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
  QCNT_CHECK(from < handlers_.size() && to < handlers_.size());
  ++sent_;
  if (!up_[from] || !Reachable(from, to) ||
      rng_.Chance(drop_probability_)) {
    ++dropped_;
    return;
  }
  const Time delay = latency_.Sample(rng_);
  sim_->After(delay, [this, from, to, m = std::move(m)] {
    // Re-check liveness and reachability at delivery time.
    if (!up_[to] || !Reachable(from, to)) {
      ++dropped_;
      return;
    }
    ++delivered_;
    if (handlers_[to]) handlers_[to](from, m);
  });
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
