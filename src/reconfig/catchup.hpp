// Online membership change: the runtime counterpart of RReconfigTm.
//
// The verified automaton layer (tms.hpp) proves the Section-4 claim for a
// *fixed* replica universe: installing (c', g+1) at a write quorum of the
// old configuration is enough for every later TM to find the new
// configuration. The MembershipCoordinator extends that to a universe that
// grows and shrinks at runtime, in three phases (DESIGN.md §11):
//
//   A. Bulk catchup — the joining replica streams the current per-key
//      (version, value) image from a live donor in bounded chunks
//      (kJoinReq -> kCatchupReq/kCatchupChunk -> kCatchupDone), while
//      client traffic keeps flowing. The pull is cursor-driven and
//      stateless on the donor, so a donor crash mid-stream is recovered
//      by re-issuing the join (the joiner resumes from its cursor,
//      against the same donor or a different one).
//   B. Stamp — the embedded QuorumClient runs the paper's Reconfigure:
//      (target, g+1) to a write quorum of the old configuration,
//      capturing the exact old-member set S_acked that acked the stamp.
//   C. Seal — re-stream from every member of S_acked into the joiner
//      under the new generation. Any write acked under the old
//      generation has a write quorum intersecting S_acked (write quorums
//      of one configuration pairwise intersect), and once a replica acks
//      the stamp it fences older-generation installs — so after C the
//      joiner holds every write that will ever be ackable, and new-
//      configuration quorums that count the joiner are safe even for
//      quorum systems where bare majority arithmetic would not be.
//
// Decommission (Leave) is the mirror image: drain the leaver's image into
// a write quorum of the old configuration (so nothing survives only on
// the leaver), then Reconfigure to the configuration without it. A leaver
// that is already down is removed without a drain — its copies are
// unreachable either way, and the stamp alone restores write
// availability, which is the §4 point.
//
// One coordinator instance per store, used from one thread at a time; the
// store serializes membership operations behind a mutex. The coordinator
// owns a dedicated client node id: its raw pull/install traffic uses op
// ids with the top bit set so it can never collide with the embedded
// client's ops on the shared mailbox.
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "runtime/client.hpp"
#include "runtime/config_table.hpp"

namespace qcnt::runtime {
class ReplicatedStore;
}  // namespace qcnt::runtime

namespace qcnt::reconfig {

struct MembershipOptions {
  /// Deadline for one coordinator-visible step: a bulk-catchup progress
  /// window, one pulled chunk, or one install's ack quorum.
  std::chrono::milliseconds step_timeout{1000};
  /// Retries per step (lost messages, donor failover) before giving up.
  std::size_t max_step_attempts = 8;
  /// Entries per seal/drain chunk (bounds both message size and the time
  /// a donor's loop spends serving one chunk).
  std::size_t chunk_entries = 128;
  /// Options for the embedded reconfigure/priming client. Defaults to
  /// retrying (unlike the bare client's single-shot default): a membership
  /// operation under way is exactly when a lost ack should not fail the
  /// whole join/leave.
  runtime::ClientOptions client = DefaultClientOptions();

  static runtime::ClientOptions DefaultClientOptions() {
    runtime::ClientOptions o;
    o.max_attempts = 4;
    return o;
  }
};

struct MembershipReport {
  bool ok = false;
  /// The joined / removed replica's node id (set by AddReplica /
  /// RemoveReplica; a failed join still reports the burned id).
  runtime::NodeId node = 0;
  /// Installed configuration and generation (valid when ok).
  std::uint32_t config_id = 0;
  std::uint64_t generation = 0;
  /// Entries the joiner reported streaming during bulk catchup (phase A).
  std::uint64_t catchup_entries = 0;
  /// Entries re-streamed by the coordinator (join seal / leave drain).
  std::uint64_t seal_entries = 0;
  /// Leave only: false when the leaver was unreachable and its image was
  /// not drained (safe — see file comment — but worth surfacing).
  bool drained = false;
  std::string error;  // empty when ok
};

class MembershipCoordinator {
 public:
  /// `id` must not be a member of any configuration; `believed_config`
  /// is the store's current configuration id (the coordinator primes its
  /// generation from a read quorum before acting on it).
  MembershipCoordinator(runtime::Transport& transport, runtime::NodeId id,
                        std::shared_ptr<runtime::ConfigTable> table,
                        std::uint32_t believed_config,
                        MembershipOptions options);

  MembershipCoordinator(const MembershipCoordinator&) = delete;
  MembershipCoordinator& operator=(const MembershipCoordinator&) = delete;

  /// Grow: stream `joiner` current (phase A, trying `donors` in order
  /// with failover), install `target` (phase B), seal (phase C). The
  /// target configuration must already be appended to the table and its
  /// member set must be exactly the old members plus `joiner`.
  MembershipReport Join(runtime::NodeId joiner,
                        const std::vector<runtime::NodeId>& donors,
                        std::uint32_t target);

  /// Shrink: drain `leaver` into a write quorum of the old configuration,
  /// then install `target` (already appended; old members minus the
  /// leaver). The caller stops the leaver afterwards.
  MembershipReport Leave(runtime::NodeId leaver, std::uint32_t target);

  std::uint32_t BelievedConfig() const { return client_.BelievedConfig(); }
  std::uint64_t BelievedGeneration() const {
    return client_.BelievedGeneration();
  }

 private:
  /// Learn the current (generation, config) from a read quorum, so drain
  /// installs and seal streams are stamped with a generation no live
  /// replica fences.
  bool Prime(MembershipReport& report);
  /// Phase A: drive the joiner's pull to completion, failing over across
  /// `donors`; each retry resumes from the joiner's cursor.
  bool RunBulkCatchup(runtime::NodeId joiner,
                      const std::vector<runtime::NodeId>& donors,
                      MembershipReport& report);
  /// Stream `source`'s image into `targets`, chunk by
  /// chunk, each chunk installed under `generation` and acked by
  /// `quorum_of` before the next is pulled. Adds to report.seal_entries.
  bool StreamImage(runtime::NodeId source,
                   const std::vector<runtime::NodeId>& targets,
                   const runtime::MemberConfig& quorum_of,
                   std::uint64_t generation, MembershipReport& report);
  /// Pull one chunk (with per-step retries). Returns false on timeout;
  /// out params: entries, next cursor, more-remaining.
  bool PullChunk(runtime::NodeId source, std::string& cursor, bool& more,
                 std::vector<runtime::BatchEntry>& entries,
                 std::string& error);
  /// Install `entries` at every target, retrying until `quorum_of`'s
  /// write predicate holds per entry (masked to its members).
  bool InstallEntries(const std::vector<runtime::BatchEntry>& entries,
                      const std::vector<runtime::NodeId>& targets,
                      const runtime::MemberConfig& quorum_of,
                      std::uint64_t generation, std::string& error);
  std::uint64_t NextOp() { return kOpBase | epoch_ | next_op_++; }

  /// Raw coordinator ops live above the top bit so they can never collide
  /// with the embedded client's op ids on the shared mailbox. The per-
  /// instance epoch (bits 40..62) additionally keeps them distinct from
  /// *earlier* coordinators of the same store: the coordinator node id is
  /// reused across membership operations, and a chunk or ack delayed from
  /// a finished operation must never alias a live op id.
  static constexpr std::uint64_t kOpBase = 1ull << 63;

  runtime::Transport* transport_;
  runtime::NodeId id_;
  std::shared_ptr<runtime::ConfigTable> table_;
  MembershipOptions options_;
  runtime::QuorumClient client_;
  std::uint64_t epoch_;
  std::uint64_t next_op_ = 1;
};

/// Grow `store` by one replica, online: spawn it (fresh node id, grown
/// transport, running ReplicaServer), re-derive the serving strategy
/// over members + joiner, and run the three-phase join while client
/// traffic continues. Fails with a typed error (no membership change)
/// when the strategy's parameters pin a universe size the grown set
/// cannot satisfy. On failure the joiner is retired (its id stays
/// burned; the appended-but-never-stamped configuration is harmless).
/// Serialized against other membership operations on the same store.
MembershipReport AddReplica(runtime::ReplicatedStore& store,
                            const MembershipOptions& options = {});

/// Decommission replica `node`, online: re-derive the serving strategy
/// over members − node, drain the leaver, install, then stop the leaver.
/// Refuses (typed error, no change) when the strategy cannot span the
/// shrunk set.
MembershipReport RemoveReplica(runtime::ReplicatedStore& store,
                               runtime::NodeId node,
                               const MembershipOptions& options = {});

}  // namespace qcnt::reconfig
