#include "runtime/async_client.hpp"

#include <algorithm>

#include "common/check.hpp"

namespace qcnt::runtime {

namespace {
TimePoint Now() { return std::chrono::steady_clock::now(); }
}  // namespace

bool OpFuture::Ready() const { return op_->Done(); }

ClientResult OpFuture::Get() {
  while (!op_->Done() && client_->PumpOnce()) {
  }
  QCNT_CHECK_MSG(op_->Done(), "future unresolved with nothing in flight");
  return op_->Result();
}

AsyncQuorumClient::AsyncQuorumClient(Transport& transport, NodeId id,
                                     std::shared_ptr<ConfigTable> table,
                                     std::uint32_t initial_config,
                                     ClientOptions options)
    : transport_(&transport),
      id_(id),
      core_(id, std::move(table), initial_config, options) {}

AsyncQuorumClient::AsyncQuorumClient(Transport& transport, NodeId id,
                                     std::vector<quorum::QuorumSystem> configs,
                                     std::uint32_t initial_config,
                                     ClientOptions options)
    : AsyncQuorumClient(transport, id,
                        std::make_shared<ConfigTable>(std::move(configs)),
                        initial_config, options) {}

OpFuture AsyncQuorumClient::SubmitRead(std::string key) {
  return Submit(std::make_shared<Op>(Op::Kind::kRead, std::move(key), 0));
}

OpFuture AsyncQuorumClient::SubmitWrite(std::string key, std::int64_t value) {
  return Submit(
      std::make_shared<Op>(Op::Kind::kWrite, std::move(key), value));
}

OpFuture AsyncQuorumClient::SubmitReconfigure(std::uint32_t target) {
  // The stamp is store-wide; the read leg runs on a distinguished key so
  // version discovery still exercises a read quorum of the old config.
  return Submit(std::make_shared<Op>(Op::Kind::kReconfigure, "", 0, target));
}

OpFuture AsyncQuorumClient::Submit(std::shared_ptr<Op> op) {
  // Backpressure: a full window pumps completions (and flushes staged
  // batches) before the new op is accepted.
  while (pending_ >= core_.Options().window && PumpOnce()) {
  }
  ++core_.stats.ops_submitted;
  ++pending_;
  auto& queue = per_key_[op->Key()];
  queue.push_back(op);
  if (queue.size() == 1) Apply(op, op->Start(core_, Now()));
  return OpFuture(this, std::move(op));
}

void AsyncQuorumClient::Apply(const std::shared_ptr<Op>& op,
                              QuorumOp::Step step) {
  switch (step) {
    case QuorumOp::Step::kWait:
      return;
    case QuorumOp::Step::kSend:
      if (op->OpPhase() == Op::Phase::kRead) in_flight_.emplace(op->Id(), op);
      if (op->OpKind() == Op::Kind::kReconfigure) {
        const std::uint64_t to = op->DirectTargets();
        SendDirect(*op, to);
        op->Sent(core_, to, Now());
      } else if (op->OpPhase() == Op::Phase::kRead) {
        staged_reads_.push_back(op->Entry());
        if (staged_reads_.size() >= core_.Options().max_batch) {
          FlushStaged(staged_reads_, RtMessage::Kind::kBatchReadReq);
        }
      } else {
        staged_writes_.push_back(op->Entry());
        if (staged_writes_.size() >= core_.Options().max_batch) {
          FlushStaged(staged_writes_, RtMessage::Kind::kBatchWriteReq);
        }
      }
      return;
    case QuorumOp::Step::kEscalate:
      SendDirect(*op, op->Fanout());
      return;
    case QuorumOp::Step::kDone:
      SendRepairs(*op);
      Complete(op);
      return;
  }
}

std::size_t AsyncQuorumClient::SendTo(std::uint64_t to, const RtMessage& m) {
  std::size_t delivered = 0;
  for (std::uint64_t rest = to; rest != 0; rest &= rest - 1) {
    const auto r = static_cast<NodeId>(__builtin_ctzll(rest));
    if (transport_->Send(id_, r, m)) ++delivered;
  }
  return delivered;
}

void AsyncQuorumClient::SendDirect(const Op& op, std::uint64_t to) {
  core_.stats.batches_sent += 1;
  core_.stats.batched_requests += 1;
  SendTo(to, op.Request(core_));
  if (op.OpKind() == Op::Kind::kReconfigure &&
      op.OpPhase() == Op::Phase::kWrite) {
    SendTo(to, op.StampRequest());  // each node gets the data leg first
  }
}

void AsyncQuorumClient::SendRepairs(const Op& op) {
  if (op.RepairTargets() == 0) return;
  // Fire-and-forget: install the freshest pair at lagging replicas, under
  // the believed stamp (so replicas that installed the configuration this
  // read just learned about do not fence it). The acks come back under
  // the finished op's id and are dropped as stray. Only repairs the
  // transport accepted count: a dropped send repaired nothing.
  RtMessage m;
  m.kind = RtMessage::Kind::kBatchWriteReq;
  m.op = op.Id();
  m.generation = core_.Generation();
  m.config_id = core_.ConfigId();
  m.batch.push_back(BatchEntry{op.Id(), op.Key(), op.Result().version,
                               op.Result().value});
  core_.stats.repairs_issued += SendTo(op.RepairTargets(), m);
}

void AsyncQuorumClient::Flush() {
  FlushStaged(staged_reads_, RtMessage::Kind::kBatchReadReq);
  FlushStaged(staged_writes_, RtMessage::Kind::kBatchWriteReq);
}

void AsyncQuorumClient::FlushStaged(std::vector<BatchEntry>& staged,
                                    RtMessage::Kind kind) {
  if (staged.empty()) return;
  RtMessage m;
  m.kind = kind;
  // The believed stamp rides on the whole batch: replies carry a config
  // payload only when they teach this client something newer, and a
  // replica holding a newer generation fences every install entry
  // (per-entry NACKs teach the retry).
  m.generation = core_.Generation();
  m.config_id = core_.ConfigId();
  m.batch = std::move(staged);
  staged.clear();
  const bool write_quorum = kind == RtMessage::Kind::kBatchWriteReq;
  core_.stats.batches_sent += 1;
  core_.stats.batched_requests += m.batch.size();
  // Target the believed configuration's members at send time: once a
  // response teaches this client a newer generation, the very next flush
  // already reaches the new replica set. Targeting is a first-attempt
  // fast path; a batch carrying any op that may not target broadcasts, so
  // a struggling op is never starved by proxy.
  const auto mc = core_.Table()->At(core_.ConfigId());
  bool targeted = true;
  for (const BatchEntry& entry : m.batch) {
    const auto it = in_flight_.find(entry.op);
    if (it != in_flight_.end() && !it->second->Targetable(core_)) {
      targeted = false;
      break;
    }
  }
  const std::uint64_t sent =
      core_.Target(*mc, write_quorum, targeted,
                   [&](NodeId r) { return transport_->Send(id_, r, m); });
  const TimePoint now = Now();
  for (const BatchEntry& entry : m.batch) {
    const auto it = in_flight_.find(entry.op);
    if (it != in_flight_.end()) it->second->Sent(core_, sent, now);
  }
  // The transport copied the message; keep its buffer for the next batch.
  staged = std::move(m.batch);
  staged.clear();
}

bool AsyncQuorumClient::PumpOnce() {
  // First drain whatever already arrived, without blocking and without
  // flushing: each response completes ops, admits same-key successors and
  // stages follow-up write phases, so the batches flushed below coalesce
  // a whole burst of progress instead of going out one entry at a time.
  // One TryPopAll per drain: on TCP every observation pulls, so a guard
  // that looked first (Size) would pay a second recv that can only find
  // nothing.
  net::Mailbox& mailbox = transport_->MailboxOf(id_);
  for (Envelope& e : mailbox.TryPopAll()) Dispatch(e, Now());
  Flush();
  HandleTimers(Now());
  Flush();  // retries relaunched by HandleTimers stage new reads
  if (in_flight_.empty()) return false;
  TimePoint wake = TimePoint::max();
  for (const auto& [id, op] : in_flight_) {
    wake = std::min(wake, op->NextTimer());
  }
  std::optional<Envelope> e = mailbox.Pop(wake);
  const TimePoint now = Now();
  if (!e) {
    if (now < wake) {
      // The only early nullopt from a blocking Pop is a closed mailbox:
      // the store is shutting down, nothing in flight can ever complete.
      FailAllInFlight();
    } else {
      HandleTimers(now);
    }
    return !in_flight_.empty() || !staged_reads_.empty() ||
           !staged_writes_.empty();
  }
  Dispatch(*e, now);
  HandleTimers(now);
  return true;
}

void AsyncQuorumClient::Dispatch(const Envelope& e, TimePoint now) {
  const RtMessage& m = e.msg;
  if (m.kind != RtMessage::Kind::kBatchReadResp &&
      m.kind != RtMessage::Kind::kBatchWriteAck &&
      m.kind != RtMessage::Kind::kConfigWriteAck) {
    return;  // not a response this client asked for
  }
  if (!core_.Hear(e.from, m)) return;
  if (m.kind == RtMessage::Kind::kConfigWriteAck) {
    const auto it = in_flight_.find(m.op);
    if (it == in_flight_.end()) return;
    const std::shared_ptr<Op> op = it->second;
    Apply(op, op->OnStampAck(core_, e.from, now));
    return;
  }
  const bool read = m.kind == RtMessage::Kind::kBatchReadResp;
  for (const BatchEntry& entry : m.batch) {
    const auto it = in_flight_.find(entry.op);
    if (it == in_flight_.end()) continue;  // completed, retried or timed out
    const std::shared_ptr<Op> op = it->second;
    Apply(op, read ? op->OnRead(core_, e.from, m.generation, m.config_id,
                                entry.version, entry.value, now)
                   : op->OnWriteAck(core_, e.from, entry.value != 0, now));
  }
}

void AsyncQuorumClient::Complete(const std::shared_ptr<Op>& op) {
  in_flight_.erase(op->Id());
  --pending_;
  auto it = per_key_.find(op->Key());
  QCNT_CHECK(it != per_key_.end() && it->second.front() == op);
  it->second.erase(it->second.begin());
  if (it->second.empty()) {
    per_key_.erase(it);
  } else {
    // Hand the key to its successor; the slot this op freed keeps the
    // window invariant.
    const std::shared_ptr<Op> next = it->second.front();
    Apply(next, next->Start(core_, Now()));
  }
}

void AsyncQuorumClient::FailAllInFlight() {
  const TimePoint now = Now();
  while (!in_flight_.empty()) {
    const std::shared_ptr<Op> op = in_flight_.begin()->second;
    op->Abort(core_, now);
    Complete(op);
  }
}

void AsyncQuorumClient::HandleTimers(TimePoint now) {
  due_.clear();
  for (const auto& [id, op] : in_flight_) {
    if (op->NextTimer() <= now) due_.push_back(op);
  }
  for (const std::shared_ptr<Op>& op : due_) {
    const std::uint64_t old_id = op->Id();
    const QuorumOp::Step step = op->OnTimer(core_, now);
    // A relaunched attempt runs under a fresh id; Apply files it again.
    if (op->Id() != old_id) in_flight_.erase(old_id);
    Apply(op, step);
  }
  due_.clear();
}

bool AsyncQuorumClient::Drain() {
  while (PumpOnce()) {
  }
  return core_.stats.ops_failed == 0;
}

}  // namespace qcnt::runtime
