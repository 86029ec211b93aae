#include "runtime/replica_server.hpp"

#include <algorithm>
#include <chrono>

#include "common/check.hpp"

namespace qcnt::runtime {

namespace {
/// Default (and ceiling-guarded) entries per catchup chunk. Bounded
/// chunks are the point: the donor never materializes more than one
/// chunk, and the joiner applies chunk k before chunk k+1 is requested,
/// so live traffic interleaves at chunk granularity.
constexpr std::size_t kCatchupChunkEntries = 128;
constexpr std::size_t kCatchupChunkCeiling = 4096;
}  // namespace

ReplicaServer::ReplicaServer(Transport& transport, NodeId id)
    : ReplicaServer(transport, id, storage::MakeMemoryBackend()) {}

ReplicaServer::ReplicaServer(Transport& transport, NodeId id,
                             std::unique_ptr<storage::Backend> backend,
                             bool record_history)
    : transport_(&transport),
      id_(id),
      record_history_(record_history),
      backend_(std::move(backend)) {
  QCNT_CHECK(backend_ != nullptr);
  // Recover before the hooks below capture `this`: a backend refusing its
  // directory (storage::LayoutError) throws out of the constructor with
  // nothing left registered on the transport.
  image_ = backend_->Recover();
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
  join_ = JoinState{};  // a pull in progress dies with the node
  {
    // The remembered config payload is volatile replica state too; a
    // wiped replica re-learns it from the next config write.
    std::lock_guard<std::mutex> lock(config_payload_mu_);
    config_payload_.reset();
    config_payload_gen_ = 0;
    config_payload_id_ = 0;
  }
  image_ = storage::Image{};
  history_.clear();  // volatile, dies with the node
  backend_->OnCrash();
}

void ReplicaServer::Restart() {
  if (thread_.joinable()) return;
  image_ = backend_->Recover();
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
  out.image = image_;
  // Spill mode: the in-memory image is only the un-checkpointed tail.
  // Overlay the checkpoint chain so observers still see the full map; the
  // image merge rule keeps the hot copy wherever both layers hold a key.
  // Non-spill backends visit nothing here.
  backend_->ScanAll(
      [&out](const std::string& key, const storage::Versioned& v) {
        out.image.ApplyWrite(key, v.version, v.value);
      });
  out.history = history_;
  out.storage = backend_->Stats();
  peek_served_ = epoch;
  peek_cv_.notify_all();
}

storage::StorageStats ReplicaServer::StorageStats() const {
  return backend_->Stats();
}

BatchStats ReplicaServer::BatchStats() const {
  runtime::BatchStats s;
  s.batches_applied = batches_applied_.load(std::memory_order_relaxed);
  s.batched_ops = batched_ops_.load(std::memory_order_relaxed);
  s.max_batch = max_batch_.load(std::memory_order_relaxed);
  s.read_ops = read_ops_.load(std::memory_order_relaxed);
  s.write_ops = write_ops_.load(std::memory_order_relaxed);
  s.per_shard.push_back(
      ShardCounters{ops_.load(std::memory_order_relaxed), s.batches_applied,
                    backend_->Stats().fsyncs,
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
    TrackPeak(queue_peak_, batch.size());
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
      // Behind a crash cut only the internal side channels stay live.
      // (The up-check in Bus::Send keeps replies from escaping anyway.)
      if (Crashed() && e.msg.kind != RtMessage::Kind::kImagePeek) continue;
      Handle(e);
    }
  }
}

void ReplicaServer::NoteConfigPayload(const RtMessage& m) {
  if (!m.config) return;
  std::lock_guard<std::mutex> lock(config_payload_mu_);
  // Same (generation, config_id) order as the image stamp: an orphaned
  // stamp from a lost reconfigure attempt is superseded, a duplicated
  // install is a no-op.
  if (m.generation > config_payload_gen_ ||
      (m.generation == config_payload_gen_ &&
       m.config_id >= config_payload_id_)) {
    config_payload_gen_ = m.generation;
    config_payload_id_ = m.config_id;
    config_payload_ = std::make_shared<const ConfigPayload>(*m.config);
  }
}

void ReplicaServer::MaybeAttachConfig(const RtMessage& req,
                                      RtMessage& reply) {
  // Only a reply that teaches a newer stamp than the requester already
  // holds needs the payload; an up-to-date client resolves the id from
  // its own table.
  if (reply.generation < req.generation ||
      (reply.generation == req.generation &&
       reply.config_id <= req.config_id)) {
    return;
  }
  std::lock_guard<std::mutex> lock(config_payload_mu_);
  if (config_payload_ != nullptr && config_payload_id_ == reply.config_id) {
    reply.config = *config_payload_;
  }
}

void ReplicaServer::ApplyToImage(const std::string& key,
                                 std::uint64_t version, std::int64_t value) {
  auto it = image_.data.find(key);
  if (it == image_.data.end()) {
    // Spill mode: a key absent from the in-memory map may still hold a
    // durable version in the checkpoint chain — install that before the
    // merge below, or a retried/stale install could regress an acked
    // version the image evicted. Lookup leaves `cold` zeroed on a true
    // miss (memory backends and non-spill durables return false
    // immediately), reproducing the old default-insert.
    storage::Versioned cold;
    backend_->Lookup(key, &cold);
    it = image_.data.emplace(key, cold).first;
  }
  storage::Versioned& v = it->second;
  // (version, value) is a total order: concurrent writers that race to
  // the same version converge deterministically (the verified automaton
  // layer shows a concurrency-control layer prevents such races; the
  // runtime stays safe without one). Strictly-greater on the value leg
  // makes the apply idempotent: a re-delivered copy of an already-held
  // (version, value) is a no-op — no duplicate history entry and no
  // duplicate WAL record — while still being acked, which is what lets a
  // lossy/duplicating bus retry writes safely.
  if (version > v.version || (version == v.version && value > v.value)) {
    v.version = version;
    v.value = value;
    if (record_history_) history_.push_back({key, version, value});
    storage::WalRecord rec;
    rec.type = storage::WalRecord::Type::kWrite;
    rec.key = key;
    rec.version = version;
    rec.value = value;
    wal_batch_.push_back(std::move(rec));
  }
}

void ReplicaServer::TrackPeak(std::atomic<std::uint64_t>& peak,
                              std::uint64_t v) {
  std::uint64_t prev = peak.load(std::memory_order_relaxed);
  while (prev < v && !peak.compare_exchange_weak(prev, v,
                                                 std::memory_order_relaxed)) {
  }
}

void ReplicaServer::FinishBatch(std::size_t entries) {
  if (!wal_batch_.empty()) {
    // One write(2) and one group-commit fsync decision per batch, before
    // the single ack that covers it — write-ahead still holds: the ack
    // covers exactly the records the backend accepted.
    backend_->ApplyWriteBatch(wal_batch_);
    backend_->MaybeCompact(image_);
    wal_batch_.clear();
  }
  ops_.fetch_add(entries, std::memory_order_relaxed);
  batches_applied_.fetch_add(1, std::memory_order_relaxed);
  batched_ops_.fetch_add(entries, std::memory_order_relaxed);
  TrackPeak(max_batch_, entries);
}

void ReplicaServer::HandleBatchRead(const RtMessage& m, RtMessage& reply) {
  reply.kind = RtMessage::Kind::kBatchReadResp;
  reply.batch.reserve(m.batch.size());
  for (const BatchEntry& entry : m.batch) {
    // find(), not operator[]: a read must not grow the image (spill mode
    // keeps it bounded), and a miss falls through to the cold layer —
    // which reports {0, 0} for keys absent everywhere.
    storage::Versioned v;
    if (const auto it = image_.data.find(entry.key);
        it != image_.data.end()) {
      v = it->second;
    } else {
      backend_->Lookup(entry.key, &v);
    }
    // No key echo: the client matches entries by op.
    reply.batch.push_back(BatchEntry{entry.op, {}, v.version, v.value});
  }
  // The header stamp teaches the client the store's configuration.
  reply.generation = image_.generation;
  reply.config_id = image_.config_id;
  MaybeAttachConfig(m, reply);
  FinishBatch(m.batch.size());
  read_ops_.fetch_add(m.batch.size(), std::memory_order_relaxed);
}

void ReplicaServer::HandleBatchWrite(const RtMessage& m,
                                     RtMessage& reply) {
  reply.kind = RtMessage::Kind::kBatchWriteAck;
  reply.batch.reserve(m.batch.size());
  // Generation fence against the replica's stamp: refused entries ack
  // with value = 1 (NACK) and the header stamp teaches the client the
  // configuration that fenced them. This is what guarantees that once a
  // configuration stamp is acked, no write can complete under the old
  // generation purely on fenced replicas — the seal pass of a membership
  // change (DESIGN.md §11) relies on it.
  const bool fenced = m.generation < image_.generation;
  for (const BatchEntry& entry : m.batch) {
    if (!fenced) ApplyToImage(entry.key, entry.version, entry.value);
    reply.batch.push_back(BatchEntry{entry.op, {}, 0, fenced ? 1 : 0});
  }
  reply.generation = image_.generation;
  reply.config_id = image_.config_id;
  MaybeAttachConfig(m, reply);
  // Accepted records reach the backend (one batch append + one
  // group-commit decision) before the single ack below.
  FinishBatch(m.batch.size());
  write_ops_.fetch_add(m.batch.size(), std::memory_order_relaxed);
}

void ReplicaServer::Handle(Envelope& e) {
  const RtMessage& m = e.msg;
  RtMessage reply;
  reply.op = m.op;
  reply.key = m.key;
  switch (m.kind) {
    case RtMessage::Kind::kConfigWriteReq: {
      // The stamp is logged before the single ack; a stamp that does not
      // advance in Image's stamp order (a duplicated install) is not
      // re-logged, mirroring ApplyToImage's idempotence.
      if (image_.ApplyConfig(m.generation, m.config_id)) {
        backend_->ApplyConfig(image_.generation, image_.config_id);
        backend_->MaybeCompact(image_);
      }
      ops_.fetch_add(1, std::memory_order_relaxed);
      NoteConfigPayload(m);
      reply.kind = RtMessage::Kind::kConfigWriteAck;
      // Stamped like every other reply: a replica already past the
      // install teaches its own stamp. The request's payload is echoed
      // only when it describes that stamp.
      reply.generation = image_.generation;
      reply.config_id = image_.config_id;
      if (reply.config_id == m.config_id) reply.config = m.config;
      break;
    }
    case RtMessage::Kind::kBatchReadReq:
      HandleBatchRead(m, reply);
      break;
    case RtMessage::Kind::kBatchWriteReq:
      HandleBatchWrite(m, reply);
      break;
    case RtMessage::Kind::kImagePeek:
      ServePeek(m.generation);
      return;  // side channel: no bus reply
    case RtMessage::Kind::kCatchupReq:
      ServeCatchup(e);
      return;  // replies itself
    case RtMessage::Kind::kJoinReq:
      HandleJoinReq(e);
      return;
    case RtMessage::Kind::kCatchupChunk:
      HandleJoinChunk(e);
      return;
    default:
      return;
  }
  transport_->Send(id_, e.from, std::move(reply));
}

void ReplicaServer::ServeCatchup(const Envelope& e) {
  const RtMessage& m = e.msg;
  RtMessage reply;
  reply.kind = RtMessage::Kind::kCatchupChunk;
  reply.op = m.op;
  if (m.version != 0) {
    // A stripe index from a puller that expects a striped layout: this
    // replica keeps one chain, so the request gets an empty, final chunk
    // rather than a copy of the whole image under the wrong index.
    transport_->Send(id_, e.from, std::move(reply));
    return;
  }
  reply.generation = image_.generation;
  reply.config_id = image_.config_id;
  const std::size_t limit =
      m.value > 0 && static_cast<std::uint64_t>(m.value) <= kCatchupChunkCeiling
          ? static_cast<std::size_t>(m.value)
          : kCatchupChunkEntries;
  // Hot half: the `limit` smallest in-memory keys strictly beyond the
  // cursor (an empty cursor starts the image; the empty key itself, if
  // present, rides in the first chunk — re-sending it on a resume is a
  // harmless idempotent merge). The image is hash-ordered, so this is
  // O(image keys) per chunk; it runs on the loop, between live writes.
  std::vector<const std::pair<const std::string, storage::Versioned>*> cand;
  cand.reserve(image_.data.size());
  for (const auto& kv : image_.data) {
    if (m.key.empty() || kv.first > m.key) cand.push_back(&kv);
  }
  const bool hot_more = cand.size() > limit;
  const auto by_key = [](const auto* a, const auto* b) {
    return a->first < b->first;
  };
  if (hot_more) {
    std::partial_sort(cand.begin(),
                      cand.begin() + static_cast<std::ptrdiff_t>(limit),
                      cand.end(), by_key);
    cand.resize(limit);
  } else {
    std::sort(cand.begin(), cand.end(), by_key);
  }
  // Cold half (spill mode): checkpointed keys beyond the cursor that the
  // image evicted. ScanAbove yields ascending keys, newest version per
  // key; asking for limit+1 detects a deeper cold tail. The chunk's
  // `limit` smallest keys are a subset of hot[0..limit) ∪ cold[0..limit],
  // so the two bounded sorted runs merge without a full scan.
  std::vector<std::pair<std::string, storage::Versioned>> cold;
  backend_->ScanAbove(
      m.key, limit + 1,
      [&cold](const std::string& key, const storage::Versioned& v) {
        cold.emplace_back(key, v);
      });
  reply.batch.reserve(limit < cand.size() + cold.size()
                          ? limit
                          : cand.size() + cold.size());
  std::size_t i = 0;
  std::size_t j = 0;
  while (reply.batch.size() < limit &&
         (i < cand.size() || j < cold.size())) {
    const bool take_hot =
        j >= cold.size() ||
        (i < cand.size() && cand[i]->first <= cold[j].first);
    if (take_hot) {
      const auto& kv = *cand[i++];
      // A key both hot and cold serves its hot copy — the image version
      // is never older than what a past checkpoint flushed.
      if (j < cold.size() && cold[j].first == kv.first) ++j;
      reply.batch.push_back(
          BatchEntry{0, kv.first, kv.second.version, kv.second.value});
    } else {
      const auto& kv = cold[j++];
      reply.batch.push_back(
          BatchEntry{0, kv.first, kv.second.version, kv.second.value});
    }
  }
  const bool more = hot_more || i < cand.size() || j < cold.size();
  if (!reply.batch.empty()) reply.key = reply.batch.back().key;  // cursor
  reply.value = more ? 1 : 0;
  ops_.fetch_add(1, std::memory_order_relaxed);
  transport_->Send(id_, e.from, std::move(reply));
}

void ReplicaServer::SendCatchupReq() {
  RtMessage req;
  req.kind = RtMessage::Kind::kCatchupReq;
  req.op = ++join_.pull_seq;  // invalidates any in-flight stale chunk
  req.key = join_.cursor;
  req.value = static_cast<std::int64_t>(kCatchupChunkEntries);
  transport_->Send(id_, join_.donor, std::move(req));
}

void ReplicaServer::HandleJoinReq(const Envelope& e) {
  const RtMessage& m = e.msg;
  // An active pull *resumes* from its cursor: this is the donor-crash
  // recovery path — the coordinator re-issues the join with the same or a
  // different donor, and the stream continues where it stopped.
  if (!join_.active) {
    // pull_seq survives the reset: it must stay monotone against chunks
    // still in flight from an abandoned stream.
    const std::uint64_t seq = join_.pull_seq;
    join_ = JoinState{};
    join_.pull_seq = seq;
  }
  join_.active = true;
  join_.op = m.op;
  join_.donor = static_cast<NodeId>(m.value);
  join_.coordinator = e.from;
  SendCatchupReq();
}

void ReplicaServer::HandleJoinChunk(Envelope& e) {
  RtMessage& m = e.msg;
  // Accept only the answer to the latest outstanding request: duplicates
  // and stale-stream chunks (older pull_seq) are dropped, so a duplicated
  // final chunk can never end the pull twice.
  if (!join_.active || m.op != join_.pull_seq) return;
  join_.entries += m.batch.size();
  if (!m.batch.empty()) join_.cursor = m.key;
  // Chunk k is merged before chunk k+1 is requested below, so order is
  // preserved and at most one chunk is ever in flight.
  if (!m.batch.empty()) ApplyCatchupEntries(m.batch);
  if (m.value != 0) {
    SendCatchupReq();
    return;
  }
  RtMessage done;
  done.kind = RtMessage::Kind::kCatchupDone;
  done.op = join_.op;
  done.value = kJoinOk;
  done.version = join_.entries;
  transport_->Send(id_, join_.coordinator, std::move(done));
  join_ = JoinState{};
}

void ReplicaServer::ApplyCatchupEntries(
    const std::vector<BatchEntry>& entries) {
  // Same newer-version-wins merge (and write-ahead logging) as a live
  // batch install: a pulled entry can never regress a version a
  // concurrent client write already placed here, which is exactly the
  // per-key monotonicity Lemma 8's envelope needs across the handover.
  for (const BatchEntry& entry : entries) {
    ApplyToImage(entry.key, entry.version, entry.value);
  }
  FinishBatch(entries.size());
}

}  // namespace qcnt::runtime
