// Blocking quorum client: a window-1 facade over AsyncQuorumClient.
//
// One client per thread; each call submits one operation and pumps the
// client's own mailbox until it resolves, so the protocol (QuorumOp, see
// quorum_op.hpp) and the retry/backoff/fence rules are exactly the
// pipelined client's. The window and batch size are forced to 1.
#pragma once

#include <memory>
#include <vector>

#include "quorum/strategies.hpp"
#include "runtime/async_client.hpp"

namespace qcnt::runtime {

class QuorumClient {
 public:
  /// The arguments of AsyncQuorumClient's constructors: this client is
  /// node `id` (not a member of `initial_config`), sharing `table`.
  QuorumClient(Transport& transport, NodeId id,
               std::shared_ptr<ConfigTable> table,
               std::uint32_t initial_config, ClientOptions options);
  QuorumClient(Transport& transport, NodeId id,
               std::vector<quorum::QuorumSystem> configs,
               std::uint32_t initial_config, ClientOptions options = {});

  NodeId Id() const { return pipe_.Id(); }
  std::uint32_t BelievedConfig() const { return pipe_.BelievedConfig(); }
  std::uint64_t BelievedGeneration() const {
    return pipe_.BelievedGeneration();
  }

  /// Logical read: read-quorum collection, freshest value wins.
  ClientResult Read(const std::string& key);
  /// Logical write: version discovery then write-quorum installation.
  ClientResult Write(const std::string& key, std::int64_t value);
  /// Gifford reconfiguration to table entry `target`. When
  /// `stamp_acked_out` is non-null it receives the exact set of *old*-
  /// configuration members that acked the generation stamp — the
  /// membership coordinator's seal pass streams deltas from every one of
  /// them, which is what makes a grown configuration safe (any write
  /// acked under the old generation has a write quorum intersecting this
  /// set; see DESIGN.md §11).
  ClientResult Reconfigure(std::uint32_t target,
                           std::uint64_t* stamp_acked_out = nullptr);

  /// Read-repair write-backs the transport accepted for delivery —
  /// repairs dropped on the floor (crashed or partitioned replica) are
  /// not counted.
  std::uint64_t RepairsIssued() const {
    return pipe_.ClientStats().repairs_issued;
  }
  /// Lemma 8 invariant counter (see QuorumCore::Stats).
  std::uint64_t DivergencesObserved() const {
    return pipe_.ClientStats().divergences_observed;
  }
  /// Times a targeted (minimal-quorum) phase had to fan out to the full
  /// member set — the quorum did not assemble within escalate_after.
  std::uint64_t Escalations() const {
    return pipe_.ClientStats().escalations;
  }
  /// Keys whose install floor this client holds now (see
  /// QuorumCore::Stats): zero once every write it made succeeded.
  std::uint64_t InstallFloors() const {
    return pipe_.ClientStats().install_floors;
  }

 private:
  AsyncQuorumClient pipe_;
};

}  // namespace qcnt::runtime
