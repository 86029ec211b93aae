// Wire messages of the threaded runtime.
//
// The runtime is the deployable counterpart of the verified automaton
// layer: real threads, real mailboxes, the same quorum protocol. Messages
// are small value types; the key is carried as a string so the store is
// multi-item (each key is an independent logical data item with its own
// version number, exactly as items are independent in the paper).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "quorum/strategy_descriptor.hpp"

namespace qcnt::runtime {

using NodeId = std::uint32_t;

/// Self-describing configuration: the member node ids plus the strategy
/// descriptor whose system quorums over them (structural position i is
/// played by members[i]). Carried on the wire (codec v3) inside config
/// writes and echoed on fence NACKs, so a client in *another process* —
/// whose ConfigTable never saw the coordinator's Append — can install
/// the configuration a stamp names instead of aborting as unresolvable.
struct ConfigPayload {
  std::vector<NodeId> members;
  quorum::StrategyDescriptor descriptor;

  bool operator==(const ConfigPayload& o) const {
    return members == o.members && descriptor == o.descriptor;
  }
  bool operator!=(const ConfigPayload& o) const { return !(*this == o); }
};

/// One operation inside a multi-op (batched) message. In a batch read
/// request only (op, key) are meaningful; a batch read response carries
/// (op, version, value) and an empty key, since the client matches
/// entries by op; in a batch write request (op, key, version, value)
/// carry the install; in a batch write ack (op, value) do, value being
/// the fence NACK flag.
struct BatchEntry {
  std::uint64_t op = 0;
  std::string key;
  std::uint64_t version = 0;
  std::int64_t value = 0;
};

struct RtMessage {
  enum class Kind : std::uint8_t {
    // Retired single-op kinds (reads and writes travel as batches of one);
    // only the codec still knows them, so the wire numbers stay put.
    kReadReq,
    kReadResp,
    kWriteReq,
    kWriteAck,
    kConfigWriteReq,
    kConfigWriteAck,
    kBatchReadReq,   // batch: one read-phase probe per entry
    kBatchReadResp,  // batch: per-entry (version, value); stamp top-level
    kBatchWriteReq,  // batch: one write install per entry
    kBatchWriteAck,  // batch: acks every entry's op id
    kShutdown,       // internal: stop a server loop
    kImagePeek,      // internal: copy the replica's state for observers
                     // (`generation` carries the peek epoch so a retried
                     // peek is served exactly once)
    // --- Membership change / streaming catchup (DESIGN.md §11). Both
    // kinds reuse the existing fields; no new struct members.
    kCatchupReq,     // coordinator -> donor: `key` = resume cursor
                     // (exclusive; "" = start), `value` = max entries per
                     // chunk, `version` = 0 (a nonzero stripe index is
                     // refused with an empty, final chunk), `op` = pull op
    kCatchupChunk,   // donor -> coordinator: `batch` = (key, version,
                     // value) entries in ascending key order, `key` = next
                     // cursor, `value` = 1 if more remain else 0,
                     // `generation` / `config_id` = donor's current stamp;
                     // `op` echoes the request
    kCrashDrain,     // internal: fail-stop marker. Crash(node) enqueues it
                     // at the tail of the node's mailbox; everything ahead
                     // of it is applied, everything behind it is refused,
                     // so the crash cut is a deterministic FIFO position
                     // instead of a timing race. Never encoded on the wire
                     // (codec kMaxKind = kCatchupChunk rejects it).
  };
  // Every request a replica serves gets at most one reply, to its sender:
  // a kBatch* request exactly one per replica, a kConfigWriteReq one ack
  // after the replica logged the stamp, a kCatchupReq one chunk.
  Kind kind = Kind::kReadReq;
  std::uint64_t op = 0;
  std::string key;
  std::uint64_t version = 0;
  std::int64_t value = 0;
  std::uint64_t generation = 0;
  std::uint32_t config_id = 0;
  /// Entries of a kBatch* message; empty for every other kind. A batch
  /// is applied by the replica with one mailbox wakeup and (for writes)
  /// one group-commit append through the durable backend.
  std::vector<BatchEntry> batch;
  /// The configuration `config_id` names, when the sender can describe
  /// it (see ConfigPayload). Set on kConfigWriteReq by a reconfiguring
  /// client; echoed by replicas on kConfigWriteAck and on fence NACKs
  /// so the fenced client can learn the config it is being fenced to.
  /// Absent on everything else.
  std::optional<ConfigPayload> config;
};

struct Envelope {
  NodeId from = 0;
  RtMessage msg;
};

}  // namespace qcnt::runtime
