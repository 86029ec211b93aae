#include "runtime/replica_handler.hpp"

#include <algorithm>

#include "common/check.hpp"

namespace qcnt::runtime {

namespace {
/// Default (and ceiling-guarded) entries per catchup chunk. Bounded
/// chunks are the point: the donor never materializes more than one
/// chunk, and the puller installs chunk k before it asks for chunk k+1,
/// so live traffic interleaves at chunk granularity.
constexpr std::size_t kCatchupChunkEntries = 128;
constexpr std::size_t kCatchupChunkCeiling = 4096;

void Bump(std::atomic<std::uint64_t>& counter, std::uint64_t n) {
  counter.store(counter.load(std::memory_order_relaxed) + n,
                std::memory_order_relaxed);
}
}  // namespace

ReplicaHandler::ReplicaHandler(std::unique_ptr<storage::Backend> backend,
                               bool record_history)
    : backend_(std::move(backend)), record_history_(record_history) {
  QCNT_CHECK(backend_ != nullptr);
  Recover();
}

void ReplicaHandler::Wipe() {
  image_ = storage::Image{};
  history_.clear();
  config_payload_.reset();
  backend_->OnCrash();
}

storage::Image ReplicaHandler::FullImage() const {
  storage::Image out = image_;
  // Non-spill backends visit nothing here.
  backend_->ScanAll(
      [&out](const std::string& key, const storage::Versioned& v) {
        out.ApplyWrite(key, v.version, v.value);
      });
  return out;
}

ReplicaHandler::Counters ReplicaHandler::Count() const {
  Counters c;
  c.ops = ops_.load(std::memory_order_relaxed);
  c.batches = batches_.load(std::memory_order_relaxed);
  c.batched_ops = batched_ops_.load(std::memory_order_relaxed);
  c.max_batch = max_batch_.load(std::memory_order_relaxed);
  c.read_ops = read_ops_.load(std::memory_order_relaxed);
  c.write_ops = write_ops_.load(std::memory_order_relaxed);
  return c;
}

bool ReplicaHandler::Handle(const RtMessage& m, RtMessage& reply) {
  reply.op = m.op;
  switch (m.kind) {
    case RtMessage::Kind::kBatchReadReq:
      Read(m, reply);
      return true;
    case RtMessage::Kind::kBatchWriteReq:
      Write(m, reply);
      return true;
    case RtMessage::Kind::kConfigWriteReq:
      Stamp(m, reply);
      return true;
    case RtMessage::Kind::kCatchupReq:
      ServeCatchup(m, reply);
      return true;
    default:
      return false;
  }
}

void ReplicaHandler::Apply(const std::string& key, std::uint64_t version,
                           std::int64_t value) {
  const auto [it, fresh] = image_.data.try_emplace(key);
  if (fresh) {
    // Spill mode: a key absent from the in-memory map may still hold a
    // durable version in the checkpoint chain — seed it before the merge,
    // or a retried/stale install could regress an acked version the image
    // evicted. Lookup leaves the slot zeroed on a true miss (memory
    // backends and non-spill durables return false at once).
    backend_->Lookup(key, &it->second);
  }
  // A re-delivered copy of a held pair is acked but not re-logged, which
  // is what lets a lossy, duplicating network retry writes safely.
  if (!storage::Image::Advance(it->second, version, value)) return;
  if (record_history_) history_.push_back({key, version, value});
  storage::WalRecord rec;
  rec.type = storage::WalRecord::Type::kWrite;
  rec.key = key;
  rec.version = version;
  rec.value = value;
  wal_batch_.push_back(std::move(rec));
}

void ReplicaHandler::FinishBatch(std::size_t entries) {
  if (!wal_batch_.empty()) {
    // One write(2) and one group-commit fsync decision per batch, before
    // the single reply that covers it — write-ahead still holds: the
    // reply covers exactly the records the backend accepted.
    backend_->ApplyWriteBatch(wal_batch_);
    backend_->MaybeCompact(image_);
    wal_batch_.clear();
  }
  Bump(ops_, entries);
  Bump(batches_, 1);
  Bump(batched_ops_, entries);
  if (entries > max_batch_.load(std::memory_order_relaxed)) {
    max_batch_.store(entries, std::memory_order_relaxed);
  }
}

void ReplicaHandler::MaybeAttachConfig(const RtMessage& req,
                                       RtMessage& reply) const {
  // Only a reply that teaches a newer stamp than the requester already
  // holds needs the payload; an up-to-date client resolves the id from
  // its own table.
  if (reply.generation < req.generation ||
      (reply.generation == req.generation &&
       reply.config_id <= req.config_id)) {
    return;
  }
  if (config_payload_ != nullptr && config_payload_id_ == reply.config_id) {
    reply.config = *config_payload_;
  }
}

void ReplicaHandler::Read(const RtMessage& m, RtMessage& reply) {
  reply.kind = RtMessage::Kind::kBatchReadResp;
  reply.key = m.key;
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
  Bump(read_ops_, m.batch.size());
}

void ReplicaHandler::Write(const RtMessage& m, RtMessage& reply) {
  reply.kind = RtMessage::Kind::kBatchWriteAck;
  reply.key = m.key;
  reply.batch.reserve(m.batch.size());
  // Generation fence against the replica's stamp: refused entries ack
  // with value = 1 (NACK) and the header stamp teaches the client the
  // configuration that fenced them. This is what guarantees that once a
  // configuration stamp is acked, no write can complete under the old
  // generation purely on fenced replicas — the seal pass of a membership
  // change (DESIGN.md §11) relies on it.
  const bool fenced = m.generation < image_.generation;
  for (const BatchEntry& entry : m.batch) {
    if (!fenced) Apply(entry.key, entry.version, entry.value);
    reply.batch.push_back(BatchEntry{entry.op, {}, 0, fenced ? 1 : 0});
  }
  reply.generation = image_.generation;
  reply.config_id = image_.config_id;
  MaybeAttachConfig(m, reply);
  // Accepted records reach the backend (one batch append + one
  // group-commit decision) before the single ack.
  FinishBatch(m.batch.size());
  Bump(write_ops_, m.batch.size());
}

void ReplicaHandler::Stamp(const RtMessage& m, RtMessage& reply) {
  // The stamp is logged before the single ack; a stamp that does not
  // advance in Image's stamp order (a duplicated install) is not
  // re-logged, as a repeated write is not.
  if (image_.ApplyConfig(m.generation, m.config_id)) {
    backend_->ApplyConfig(image_.generation, image_.config_id);
    backend_->MaybeCompact(image_);
  }
  Bump(ops_, 1);
  // Remember the self-describing payload for fence NACKs when it
  // describes the stamp the replica now holds: a stale or orphaned
  // stamp's payload could never be attached anyway.
  if (m.config && m.generation == image_.generation &&
      m.config_id == image_.config_id) {
    config_payload_id_ = m.config_id;
    config_payload_ = std::make_shared<const ConfigPayload>(*m.config);
  }
  reply.kind = RtMessage::Kind::kConfigWriteAck;
  reply.key = m.key;
  // Stamped like every other reply: a replica already past the install
  // teaches its own stamp. The request's payload is echoed only when it
  // describes that stamp.
  reply.generation = image_.generation;
  reply.config_id = image_.config_id;
  if (reply.config_id == m.config_id) reply.config = m.config;
}

void ReplicaHandler::ServeCatchup(const RtMessage& m, RtMessage& reply) {
  reply.kind = RtMessage::Kind::kCatchupChunk;
  if (m.version != 0) {
    // A stripe index from a puller that expects a striped layout: this
    // replica keeps one chain, so the request gets an empty, final chunk
    // rather than a copy of the whole image under the wrong index.
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
  // O(image keys) per chunk; it runs between live writes.
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
  reply.batch.reserve(std::min(limit, cand.size() + cold.size()));
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
  Bump(ops_, 1);
}

}  // namespace qcnt::runtime
