// The client side of the quorum protocol, written once.
//
// QuorumOp is the paper's coordinator automaton for one logical operation:
// a read-TM reads a read quorum; a write-TM reads a read quorum for the
// version, then writes a write quorum; a reconfigure-TM (§4) reads a read
// quorum, then writes the data at a write quorum of the target
// configuration and the generation stamp at a write quorum of the old one.
// QuorumCore is the state every op of one client shares: the believed
// (generation, config_id), the configuration table, the believed-up mask,
// the per-key install floors of failed writes, the backoff RNG and the
// counters. A caller runs at most one op per key at a time.
//
// Both are sans-IO: no transport, mailbox, thread or clock. The caller
// feeds them response entries, send refusals (the return value of the send
// callback QuorumCore::Target calls) and the current time, and acts on the
// Step each input returns. AsyncQuorumClient is the one runtime caller
// (QuorumClient is its window-1 facade). DESIGN.md §7 and §9 describe the
// retry, install-floor and fence rules.
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/rng.hpp"
#include "runtime/config_table.hpp"
#include "runtime/message.hpp"

namespace qcnt::runtime {

using TimePoint = std::chrono::steady_clock::time_point;

/// Options of every quorum client (QuorumClient and AsyncQuorumClient).
struct ClientOptions {
  /// Per-attempt deadline, measured from attempt start.
  std::chrono::milliseconds timeout{1000};
  /// Attempts per logical operation; 1 = fail on the first timeout.
  std::size_t max_attempts = 1;
  /// Backoff before attempt k+1: uniform jitter over
  /// [base·2^(k-1)/2, base·2^(k-1)], capped at backoff_max.
  std::chrono::milliseconds backoff_base{2};
  std::chrono::milliseconds backoff_max{64};
  /// Pipeline depth: outstanding (submitted, not yet completed) ops of an
  /// AsyncQuorumClient, including ops queued behind a same-key
  /// predecessor. Submitting past it pumps completions until a slot
  /// frees. QuorumClient always runs at 1.
  std::size_t window = 16;
  /// Staged requests are sent once this many coalesce (pumping sends
  /// partial batches earlier). QuorumClient always runs at 1.
  std::size_t max_batch = 32;
  /// First attempts target a minimal quorum of the believed-up members;
  /// an op whose quorum has not assembled after this long fans out to
  /// every member (0 = a quarter of the timeout).
  std::chrono::milliseconds escalate_after{0};
  /// false = every phase fans out to the full member set, so writes reach
  /// every member — what replication-audit tests want.
  bool target_minimal = true;
  /// After a read quorum completes, write the freshest (version, value)
  /// back to every responder that returned an older version (Gifford-
  /// style read repair, fire-and-forget). Reads with repair on always fan
  /// out: repair exists to find stale replicas outside a minimal quorum.
  bool read_repair = false;
};

/// Why an operation resolved the way it did. `kOk` is the only success.
enum class ClientStatus : std::uint8_t {
  kOk,
  /// The attempt heard from some replicas but no quorum before deadline.
  kTimeout,
  /// The attempt heard from no replica at all — partitioned or every
  /// replica down; no quorum can possibly assemble.
  kNoQuorum,
  /// A retrying client (max_attempts > 1) exhausted every attempt.
  kRetriesExhausted,
  /// The transport shut down underneath the operation.
  kShutdown,
};

const char* ToString(ClientStatus status);

struct ClientResult {
  /// Convenience mirror of `status == ClientStatus::kOk`.
  bool ok = false;
  ClientStatus status = ClientStatus::kTimeout;
  std::int64_t value = 0;
  /// For reads: the freshest version observed by the read quorum. For
  /// writes: the version this operation installed. Lets callers reason
  /// about per-item ordering (an acked write at version v must never be
  /// superseded by anything older than v).
  std::uint64_t version = 0;
  /// Attempts consumed (1 when the first attempt resolved it).
  std::uint32_t attempts = 0;
  std::chrono::microseconds latency{0};
};

/// Per-client protocol state shared by every operation of one client.
class QuorumCore {
 public:
  /// Client-side counters.
  struct Stats {
    std::uint64_t ops_submitted = 0;
    std::uint64_t ops_completed = 0;  // includes failures
    std::uint64_t ops_failed = 0;
    std::uint64_t retries = 0;           // extra attempts beyond the first
    std::uint64_t batches_sent = 0;      // request messages sent
    std::uint64_t batched_requests = 0;  // entries across those messages
    /// Lemma 8 invariant counter: read quorums holding two copies of one
    /// version with different values (zero in a correct run; surfaced here,
    /// not masked by the deterministic larger-value tie-break).
    std::uint64_t divergences_observed = 0;
    /// Targeted ops whose quorum did not assemble within escalate_after.
    std::uint64_t escalations = 0;
    /// Read-repair write-backs the transport accepted for delivery.
    std::uint64_t repairs_issued = 0;
    /// Gauge: keys whose install floor is held now (a write to the key
    /// failed, timed out or was aborted after staging an install, and no
    /// write to it has completed kOk since).
    std::uint64_t install_floors = 0;
    std::chrono::microseconds total_latency{0};
    std::chrono::microseconds max_latency{0};
  };

  /// `table` is the shared registry of installable configurations;
  /// `initial_config` is believed at generation 0. This client is node
  /// `id`, which must not be a member of the initial configuration.
  QuorumCore(NodeId id, std::shared_ptr<ConfigTable> table,
             std::uint32_t initial_config, ClientOptions options);

  const ClientOptions& Options() const { return options_; }
  const std::shared_ptr<ConfigTable>& Table() const { return table_; }
  std::uint64_t Generation() const { return generation_; }
  std::uint32_t ConfigId() const { return config_id_; }
  std::uint64_t BelievedUp() const { return believed_up_; }
  std::uint64_t NextOpId() { return next_op_++; }

  /// Header evidence of one response: the sender is up, its config payload
  /// is installed when the table cannot resolve the id, and its stamp is
  /// learned. False (drop the message) for senders beyond the 64-bit mask.
  bool Hear(NodeId from, const RtMessage& m);

  /// Adopt a (generation, config_id) stamp when it is newer in stamp
  /// order and the table can resolve the id.
  void Learn(std::uint64_t generation, std::uint32_t config_id);

  /// Send to a minimal read (or write) quorum of `config` picked over the
  /// believed-up members — or to every member when `targeted` is false or
  /// no quorum is believed up. `send(node)` returning false (refused:
  /// node down) drops the node from the up-mask and re-picks. Returns the
  /// members reached (all of them after a fan-out: nothing escalates).
  template <class Send>
  std::uint64_t Target(const MemberConfig& config, bool write_quorum,
                       bool targeted, Send&& send) {
    std::uint64_t sent = 0;
    while (targeted) {
      const std::uint64_t up = believed_up_ & config.member_mask;
      const auto q = write_quorum ? config.system.pick_write(up)
                                  : config.system.pick_read(up);
      if (!q) break;
      bool complete = true;
      for (const NodeId r : *q) {
        const std::uint64_t bit = 1ull << r;
        if (sent & bit) continue;
        if (send(r)) {
          sent |= bit;
        } else {
          believed_up_ &= ~bit;  // strictly shrinks: the loop terminates
          complete = false;
        }
      }
      if (complete) return sent;
    }
    for (const NodeId r : config.members) {
      if ((sent & (1ull << r)) == 0) send(r);
    }
    return config.member_mask;
  }

  /// Jittered exponential backoff before attempt `attempt` + 1.
  std::chrono::microseconds BackoffDelay(std::uint32_t attempt);
  /// How long a minimal quorum may take before the op fans out.
  std::chrono::milliseconds EscalateDelay() const;

  Stats stats;

 private:
  friend class QuorumOp;

  /// The version a new install of `key` goes out at: strictly above the
  /// discovered version, the op's own earlier install (`staged`, 0 for
  /// none) and the key's held floor.
  std::uint64_t StageInstall(const std::string& key, std::uint64_t discovered,
                             std::uint64_t staged) const;
  /// A write of `key` that staged `staged` completed with `ok`: a kOk
  /// write releases the key's floor, any other keeps its install as one.
  void SettleInstall(const std::string& key, std::uint64_t staged, bool ok);

  std::shared_ptr<ConfigTable> table_;
  ClientOptions options_;
  std::uint32_t config_id_;
  std::uint64_t generation_ = 0;
  std::uint64_t next_op_ = 1;
  /// Optimistic up-mask driving minimal-quorum targeting: a bit clears
  /// when the transport refuses a send and sets again on any response
  /// from that node. Every retry attempt resets it to all-up — targeting
  /// is a fast path, never a liveness assumption.
  std::uint64_t believed_up_ = ~0ull;
  /// Highest install version of a write that completed without kOk, per
  /// key, until the key's next kOk write: the client-side half of the
  /// Lemma 8 guarantee under retries (an op keeps its own attempts' floor
  /// in QuorumOp::install_); replicas reject the stale stragglers. A kOk
  /// install sits at a write quorum, which every later discovery's read
  /// quorum intersects, so no straggler can reach a later install. Sound
  /// only while at most one op per key runs at a time, as every caller
  /// guarantees (DESIGN.md §9).
  std::unordered_map<std::string, std::uint64_t> install_floor_;
  Rng backoff_rng_;
};

/// One logical operation's coordinator automaton.
class QuorumOp {
 public:
  enum class Kind : std::uint8_t { kRead, kWrite, kReconfigure };
  enum class Phase : std::uint8_t { kRead, kWrite, kBackoff, kDone };
  /// What the caller must do after feeding the op an input.
  enum class Step : std::uint8_t {
    kWait,      // nothing to send
    kSend,      // send Request() for the new phase (then call Sent)
    kEscalate,  // send Request() to the members in Fanout()
    kDone,      // Result() is final; RepairTargets() may name stale nodes
  };

  QuorumOp(Kind kind, std::string key, std::int64_t value,
           std::uint32_t target = 0)
      : kind_(kind), key_(std::move(key)), value_(value), target_id_(target) {}

  /// Launch the first attempt (always kSend).
  Step Start(QuorumCore& core, TimePoint now);
  /// One read-response entry from `from`, with its message's header stamp
  /// (already heard by the core).
  Step OnRead(QuorumCore& core, NodeId from, std::uint64_t generation,
              std::uint32_t config_id, std::uint64_t version,
              std::int64_t value, TimePoint now);
  /// One write-ack entry from `from`; `fenced` = the replica refused the
  /// install under a newer generation.
  Step OnWriteAck(QuorumCore& core, NodeId from, bool fenced, TimePoint now);
  /// A reconfigure stamp ack from `from`.
  Step OnStampAck(QuorumCore& core, NodeId from, TimePoint now);
  /// Fire the op's due timer: deadline (fail the attempt), escalation
  /// (fan out) or backoff expiry (relaunch under a fresh id).
  Step OnTimer(QuorumCore& core, TimePoint now);
  /// The transport closed: complete with kShutdown.
  void Abort(QuorumCore& core, TimePoint now);
  /// The current phase's request reached `sent`; arm the escalation
  /// timer unless it covered every member.
  void Sent(const QuorumCore& core, std::uint64_t sent, TimePoint now);

  /// Earliest time OnTimer has anything to do.
  TimePoint NextTimer() const;
  /// True when this op's current request may go to a minimal quorum.
  bool Targetable(const QuorumCore& core) const;
  /// Where an unbatched request goes: a reconfigure's legs never share a
  /// batch (they carry their own generation); its read leg reaches the
  /// old members, its write legs the old and target members.
  std::uint64_t DirectTargets() const;

  /// The current phase's entry and its whole request message (a batch of
  /// one, header stamped with the generation the phase runs under).
  BatchEntry Entry() const;
  RtMessage Request(const QuorumCore& core) const;
  /// A reconfigure's stamp leg (kConfigWriteReq), self-describing.
  RtMessage StampRequest() const;

  std::uint64_t Id() const { return id_; }
  Kind OpKind() const { return kind_; }
  Phase OpPhase() const { return phase_; }
  const std::string& Key() const { return key_; }
  bool Done() const { return phase_ == Phase::kDone; }
  const ClientResult& Result() const { return result_; }
  /// Members that had not received the request before an escalation.
  std::uint64_t Fanout() const { return fanout_; }
  /// Stale read-quorum responders to repair (read_repair only).
  std::uint64_t RepairTargets() const { return repair_; }
  /// Old-configuration members whose stamp ack a finished reconfigure
  /// saw — the seal set S_acked of DESIGN.md §11.
  std::uint64_t StampAcked() const { return stamp_acked_; }

 private:
  Step StartAttempt(QuorumCore& core, TimePoint now);
  Step ReadQuorum(QuorumCore& core, TimePoint now);
  Step MaybeWriteQuorum(QuorumCore& core, TimePoint now);
  Step FailAttempt(QuorumCore& core, TimePoint now, bool fenced);
  Step Complete(QuorumCore& core, ClientStatus status, TimePoint now);
  /// The configuration the write leg must reach a write quorum of.
  const MemberConfig& WriteConfig() const {
    return kind_ == Kind::kReconfigure ? *target_ : *config_;
  }

  Kind kind_;
  Phase phase_ = Phase::kRead;
  std::string key_;
  std::int64_t value_;
  std::uint32_t target_id_;
  std::uint64_t id_ = 0;  // current attempt's op id
  std::uint32_t attempt_ = 0;
  TimePoint start_{};
  TimePoint deadline_{};
  TimePoint escalate_at_ = TimePoint::max();
  TimePoint retry_at_{};
  bool heard_ = false;           // any member answered this attempt
  std::uint64_t responded_ = 0;  // read-phase responders
  std::uint64_t at_best_ = 0;    // responders holding best_version_
  std::uint64_t acked_ = 0;      // write-leg ackers
  std::uint64_t fenced_ = 0;     // write-leg refusers
  std::uint64_t stamp_acked_ = 0;  // reconfigure: old members' stamp acks
  std::uint64_t sent_ = 0;
  std::uint64_t fanout_ = 0;
  std::uint64_t repair_ = 0;
  std::uint64_t best_version_ = 0;
  std::int64_t best_value_ = 0;
  std::uint64_t best_generation_ = 0;
  std::uint32_t best_config_ = 0;
  /// Generation a reconfigure's legs carry, and the highest any attempt
  /// put on the wire (an orphaned stamp may have landed: believe the max).
  std::uint64_t leg_generation_ = 0;
  std::uint64_t stamped_ = 0;
  /// Write: version the install carries; it survives a failed attempt,
  /// so a retry stages above its own stragglers.
  std::uint64_t install_ = 0;
  /// Resolved best_config_: the read phase and the write leg quorum
  /// against it (for a reconfigure, the old configuration).
  std::shared_ptr<const MemberConfig> config_;
  std::shared_ptr<const MemberConfig> target_;  // reconfigure only
  ClientResult result_;
};

}  // namespace qcnt::runtime
