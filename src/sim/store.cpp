#include "sim/store.hpp"

#include <algorithm>

#include "common/check.hpp"

namespace qcnt::sim {

using runtime::BatchEntry;
using runtime::QuorumOp;
using runtime::RtMessage;
using runtime::TimePoint;
using Millis = std::chrono::duration<double, std::milli>;

Replica::Replica(Network& net, NodeId id)
    : handler_(storage::MakeMemoryBackend()) {
  net.SetHandler(id, [this, &net, id](NodeId from, const RtMessage& m) {
    RtMessage reply;
    if (handler_.Handle(m, reply)) net.Send(id, from, std::move(reply));
  });
}

QuorumStoreClient::QuorumStoreClient(
    Simulator& sim, Network& net, NodeId id,
    std::shared_ptr<runtime::ConfigTable> table, std::uint32_t initial_config,
    runtime::ClientOptions options)
    : sim_(&sim),
      net_(&net),
      id_(id),
      core_(id, std::move(table), initial_config, options) {
  net.SetHandler(id, [this](NodeId from, const RtMessage& m) {
    OnMessage(from, m);
  });
}

TimePoint QuorumStoreClient::Now() const {
  // Simulated milliseconds from a fixed origin.
  return TimePoint{} +
         std::chrono::duration_cast<TimePoint::duration>(Millis(sim_->Now()));
}

void QuorumStoreClient::Submit(QuorumOp::Kind kind, std::int64_t value,
                               std::uint32_t target, Callback done) {
  queue_.push_back(std::make_shared<Op>(
      Op{QuorumOp(kind, "", value, target), 0.0, 0, std::move(done)}));
  if (queue_.size() == 1) LaunchFront();
}

void QuorumStoreClient::LaunchFront() {
  // A copy: completion pops the queue's own pointer.
  const std::shared_ptr<Op> state = queue_.front();
  state->start = sim_->Now();
  state->messages_before = net_->MessagesSent();
  Apply(state, state->op.Start(core_, Now()));
}

std::shared_ptr<QuorumStoreClient::Op> QuorumStoreClient::Running(
    std::uint64_t op_id) const {
  // A relaunched attempt runs under a fresh id: the dead one's replies
  // match nothing.
  if (queue_.empty() || queue_.front()->op.Id() != op_id) return nullptr;
  return queue_.front();
}

void QuorumStoreClient::SendTo(std::uint64_t to, RtMessage m) {
  const auto shared = std::make_shared<const RtMessage>(std::move(m));
  for (std::uint64_t rest = to; rest != 0; rest &= rest - 1) {
    net_->Send(id_, static_cast<NodeId>(__builtin_ctzll(rest)), shared);
  }
}

void QuorumStoreClient::Apply(const std::shared_ptr<Op>& state,
                              QuorumOp::Step step) {
  QuorumOp& op = state->op;
  switch (step) {
    case QuorumOp::Step::kWait:
      break;
    case QuorumOp::Step::kSend:
      if (op.OpKind() == QuorumOp::Kind::kReconfigure) {
        // Both legs reach old and target members; each node gets the data
        // leg before the stamp.
        SendTo(op.DirectTargets(), op.Request(core_));
        if (op.OpPhase() == QuorumOp::Phase::kWrite) {
          SendTo(op.DirectTargets(), op.StampRequest());
        }
        op.Sent(core_, op.DirectTargets(), Now());
      } else {
        const auto m = std::make_shared<const RtMessage>(op.Request(core_));
        const std::uint64_t sent = core_.Target(
            *core_.Table()->At(core_.ConfigId()),
            op.OpPhase() == QuorumOp::Phase::kWrite, op.Targetable(core_),
            [&](NodeId r) {
              net_->Send(id_, r, m);
              return true;
            });
        op.Sent(core_, sent, Now());
      }
      break;
    case QuorumOp::Step::kEscalate:  // only targeted reads and writes
      SendTo(op.Fanout(), op.Request(core_));
      break;
    case QuorumOp::Step::kDone: {
      const OpResult result{op.Result().ok, op.Result().value,
                            op.Result().version, sim_->Now() - state->start,
                            net_->MessagesSent() - state->messages_before};
      QCNT_CHECK(queue_.front() == state);
      queue_.pop_front();
      if (!queue_.empty()) LaunchFront();
      if (state->done) state->done(result);
      return;
    }
  }
  Arm(state);
}

void QuorumStoreClient::Arm(const std::shared_ptr<Op>& state) {
  const TimePoint at = state->op.NextTimer();
  if (at == state->armed) return;
  state->armed = at;
  const Time due = Millis(at - TimePoint{}).count();
  sim_->At(std::max(due, sim_->Now()), [this, state, at] {
    if (state->armed != at || state->op.Done()) return;  // superseded
    state->armed = TimePoint::max();
    Apply(state, state->op.OnTimer(core_, std::max(Now(), at)));
  });
}

void QuorumStoreClient::OnMessage(NodeId from, const RtMessage& m) {
  if (!core_.Hear(from, m)) return;
  const TimePoint now = Now();
  if (m.kind == RtMessage::Kind::kConfigWriteAck) {
    if (const auto state = Running(m.op)) {
      Apply(state, state->op.OnStampAck(core_, from, now));
    }
    return;
  }
  const bool read = m.kind == RtMessage::Kind::kBatchReadResp;
  for (const BatchEntry& entry : m.batch) {
    const auto state = Running(entry.op);
    if (!state) continue;  // finished or relaunched
    Apply(state, read ? state->op.OnRead(core_, from, m.generation,
                                         m.config_id, entry.version,
                                         entry.value, now)
                      : state->op.OnWriteAck(core_, from, entry.value != 0,
                                             now));
  }
}

Deployment::Deployment(std::size_t replica_count, std::size_t client_count,
                       std::vector<quorum::QuorumSystem> configs,
                       std::uint32_t initial_config, LatencyModel latency,
                       double drop_probability, std::uint64_t seed,
                       runtime::ClientOptions client_options)
    : net(sim, replica_count + client_count, latency, drop_probability,
          seed) {
  auto table = std::make_shared<runtime::ConfigTable>(std::move(configs));
  for (std::size_t r = 0; r < replica_count; ++r) {
    replicas.push_back(std::make_unique<Replica>(net, static_cast<NodeId>(r)));
  }
  for (std::size_t c = 0; c < client_count; ++c) {
    clients.push_back(std::make_unique<QuorumStoreClient>(
        sim, net, static_cast<NodeId>(replica_count + c), table,
        initial_config, client_options));
  }
}

}  // namespace qcnt::sim
