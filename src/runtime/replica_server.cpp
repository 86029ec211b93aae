#include "runtime/replica_server.hpp"

#include <chrono>

#include "common/check.hpp"

namespace qcnt::runtime {

ReplicaServer::ReplicaServer(Transport& transport, NodeId id)
    : ReplicaServer(transport, id, storage::MakeMemoryBackend()) {}

ReplicaServer::ReplicaServer(Transport& transport, NodeId id,
                             std::unique_ptr<storage::Backend> backend,
                             bool record_history)
    : transport_(&transport),
      id_(id),
      // Recovers before the hooks below capture `this`: a backend refusing
      // its directory (storage::LayoutError) throws out of the constructor
      // with nothing left registered on the transport.
      handler_(std::move(backend), record_history) {
  // The crash hook makes Transport::Crash a deterministic cut: it pushes
  // a kCrashDrain marker and waits until the loop passed it, so
  // everything delivered before the crash is applied and everything after
  // is refused. The recover hook re-arms the node for external work.
  transport_->SetCrashHook(id_, [this] { OnBusCrash(); });
  transport_->SetRecoverHook(id_, [this] { OnBusRecover(); });
  StartLoop();
}

ReplicaServer::~ReplicaServer() {
  Shutdown();
  transport_->SetCrashHook(id_, nullptr);
  transport_->SetRecoverHook(id_, nullptr);
}

void ReplicaServer::StartLoop() {
  crash_cut_.store(false, std::memory_order_release);
  {
    std::lock_guard<std::mutex> lock(drain_mu_);
    loop_live_ = true;
  }
  thread_ = std::thread([this] { Loop(); });
}

void ReplicaServer::NoteLoopExit() {
  {
    std::lock_guard<std::mutex> lock(drain_mu_);
    loop_live_ = false;
  }
  // A crash-drain waiter must not hang on a node whose loop is gone.
  drain_cv_.notify_all();
}

void ReplicaServer::Shutdown() {
  if (!thread_.joinable()) return;
  // Push directly: the bus would drop the message if this node is
  // "crashed", but shutdown must always get through.
  RtMessage m;
  m.kind = RtMessage::Kind::kShutdown;
  transport_->MailboxOf(id_).Push(Envelope{id_, std::move(m)});
  thread_.join();
  thread_ = std::thread();
}

void ReplicaServer::OnBusCrash() {
  // Runs inside Transport::Crash, after up_ flipped but with the mailbox
  // intact: this hook owns the backlog. Instead of clearing the mailbox
  // from the crashing thread (which raced in-flight peeks and could
  // vaporize messages the loop was entitled to finish), push a
  // kCrashDrain marker through the mailbox and wait until the loop has
  // passed it. Everything ahead of the marker was delivered before the
  // crash and is applied; everything behind it is refused via Crashed() —
  // a deterministic FIFO cut with no cleared queue.
  std::lock_guard<std::mutex> call(drain_call_mu_);  // serialize crashes
  std::uint64_t epoch = 0;
  {
    std::lock_guard<std::mutex> lock(drain_mu_);
    if (!loop_live_) {
      // No loop will ever see a marker (crash raced shutdown or hit a
      // node wiped by CrashAndWipe): discard the backlog directly.
      transport_->MailboxOf(id_).Clear();
      return;
    }
    epoch = ++drain_epoch_;
  }
  RtMessage m;
  m.kind = RtMessage::Kind::kCrashDrain;
  m.generation = epoch;  // ack matching across overlapping crashes
  // Push directly: Send would drop on the (now down) node, and the marker
  // must ride the same FIFO as the backlog it cuts.
  transport_->MailboxOf(id_).Push(Envelope{id_, std::move(m)});
  std::unique_lock<std::mutex> lock(drain_mu_);
  drain_cv_.wait(lock, [&] { return drained_epoch_ == epoch || !loop_live_; });
}

void ReplicaServer::OnBusRecover() {
  // Eager re-arm. The lazy reset inside Crashed() alone would be racy
  // across crash→recover→crash: a message delivered between the recover
  // and the second crash (thus ahead of the second marker) would be
  // wrongly dropped by the stale cut.
  crash_cut_.store(false, std::memory_order_release);
}

bool ReplicaServer::Crashed() {
  if (!crash_cut_.load(std::memory_order_acquire)) return false;
  if (transport_->IsUp(id_)) {
    // Recovered between the transport flipping up_ and the recover hook
    // running; clear the cut lazily.
    crash_cut_.store(false, std::memory_order_release);
    return false;
  }
  return true;
}

void ReplicaServer::AckCrashDrain(std::uint64_t epoch) {
  {
    std::lock_guard<std::mutex> lock(drain_mu_);
    drained_epoch_ = epoch;
  }
  drain_cv_.notify_all();
}

void ReplicaServer::CrashAndWipe() {
  Shutdown();
  handler_.Wipe();
}

void ReplicaServer::Restart() {
  if (thread_.joinable()) return;
  handler_.Recover();
  StartLoop();
}

ReplicaSnapshot ReplicaServer::Peek() {
  QCNT_CHECK_MSG(Running(), "Peek() requires a running replica");
  std::lock_guard<std::mutex> call(peek_call_mu_);
  std::unique_lock<std::mutex> lock(peek_mu_);
  const std::uint64_t epoch = ++peek_epoch_;
  const auto push_request = [&] {
    RtMessage m;
    m.kind = RtMessage::Kind::kImagePeek;
    m.generation = epoch;
    // Push directly (not Bus::Send): peeking is an observer's side channel
    // and must work even on a bus-partitioned node.
    transport_->MailboxOf(id_).Push(Envelope{id_, std::move(m)});
  };
  push_request();
  // A crash-drain never discards a queued peek; the timed retry (same
  // epoch, deduplicated by peek_served_) is a liveness guard for the
  // rare paths that still discard the queue (crash racing shutdown,
  // CrashAndWipe).
  while (!peek_cv_.wait_for(lock, std::chrono::milliseconds(50),
                            [&] { return peek_served_ == epoch; })) {
    push_request();
  }
  ReplicaSnapshot out = std::move(peek_slot_);
  peek_slot_ = ReplicaSnapshot{};
  out.stats = BatchStats();
  return out;
}

void ReplicaServer::ServePeek(std::uint64_t epoch) {
  std::lock_guard<std::mutex> lock(peek_mu_);
  if (epoch != peek_epoch_ || peek_served_ == epoch) {
    return;  // stale epoch or a retry already served
  }
  ReplicaSnapshot& out = peek_slot_;
  out.image = handler_.FullImage();
  out.history = handler_.History();
  out.storage = handler_.StorageStats();
  peek_served_ = epoch;
  peek_cv_.notify_all();
}

storage::StorageStats ReplicaServer::StorageStats() const {
  return handler_.StorageStats();
}

BatchStats ReplicaServer::BatchStats() const {
  const ReplicaHandler::Counters c = handler_.Count();
  runtime::BatchStats s;
  s.batches_applied = c.batches;
  s.batched_ops = c.batched_ops;
  s.max_batch = c.max_batch;
  s.read_ops = c.read_ops;
  s.write_ops = c.write_ops;
  s.per_shard.push_back(
      ShardCounters{c.ops, c.batches, handler_.StorageStats().fsyncs,
                    queue_peak_.load(std::memory_order_relaxed)});
  const net::Mailbox& inbox = transport_->MailboxOf(id_);
  s.mailbox_handoffs = inbox.Handoffs();
  s.mailbox_wakeups = inbox.Wakeups();
  return s;
}

void ReplicaServer::Loop() {
  net::Mailbox& mailbox = transport_->MailboxOf(id_);
  for (;;) {
    std::deque<Envelope> batch = mailbox.PopAll();
    if (batch.empty()) {
      NoteLoopExit();
      return;  // mailbox closed and drained
    }
    if (batch.size() > queue_peak_.load(std::memory_order_relaxed)) {
      queue_peak_.store(batch.size(), std::memory_order_relaxed);
    }
    for (Envelope& e : batch) {
      if (e.msg.kind == RtMessage::Kind::kShutdown) {
        NoteLoopExit();
        return;
      }
      if (e.msg.kind == RtMessage::Kind::kCrashDrain) {
        crash_cut_.store(true, std::memory_order_release);
        AckCrashDrain(e.msg.generation);
        continue;
      }
      if (e.msg.kind == RtMessage::Kind::kImagePeek) {
        // Side channel: served even behind a crash cut, with no reply.
        ServePeek(e.msg.generation);
        continue;
      }
      // Behind a crash cut only the side channels stay live. (The
      // up-check in Bus::Send keeps replies from escaping anyway.)
      if (Crashed()) continue;
      RtMessage reply;
      if (handler_.Handle(e.msg, reply)) {
        transport_->Send(id_, e.from, std::move(reply));
      }
    }
  }
}

}  // namespace qcnt::runtime
