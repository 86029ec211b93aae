// ReplicatedStore: the library's deployable public API.
//
// A ReplicatedStore owns a bus, n replica server threads, and hands out
// blocking clients. Keys are independent logical data items; every
// operation runs Gifford's quorum protocol under the store's current
// configuration, tolerating replica crashes up to quorum availability and
// supporting online reconfiguration (Section 4) to restore write
// availability after failures.
//
//   qcnt::runtime::ReplicatedStore store(
//       qcnt::runtime::StoreOptions{.replicas = 5});
//   auto client = store.MakeClient();
//   client->Write("balance", 100);
//   auto r = client->Read("balance");   // r.value == 100
//   store.Crash(4);                      // still within quorum
//
// With StoreOptions::durability set, each replica keeps a write-ahead log
// and checkpoints under `durability->directory/replica_<r>`; Crash()
// then wipes the replica's volatile state (true fail-stop) and Recover()
// rebuilds it from disk — so quorum reads after recovery genuinely
// exercise Lemma 8 rather than reading a map that never died.
#pragma once

#include <atomic>
#include <map>
#include <memory>
#include <mutex>
#include <optional>

#include "net/tcp_transport.hpp"
#include "runtime/client.hpp"
#include "runtime/config_table.hpp"
#include "runtime/replica_server.hpp"

namespace qcnt::runtime {

/// TCP-backed deployment of a single-process store: every node (replicas
/// and clients) still lives in this process, but all cross-node traffic
/// rides loopback TCP through one net::TcpTransport — the full codec +
/// socket + event-loop path, measurable against the in-process Bus
/// (bench_transport, E18). Fault injection is incompatible with this mode
/// (see StoreOptions::faults); multi-machine deployments assemble
/// TcpTransport + ReplicaServer directly (examples/multi_process.cpp).
struct TcpStoreOptions {
  std::string host = "127.0.0.1";
  /// First listen port: node i (replicas then clients) listens on
  /// port_base + i. 0 = let the kernel pick ephemeral ports per node
  /// (self-contained; no collisions across concurrent test runs). The
  /// QCNT_TCP_PORT_BASE environment variable, when set and in range,
  /// overrides a zero port_base.
  std::uint16_t port_base = 0;
};

struct StoreOptions {
  std::size_t replicas = 3;
  /// Maximum number of concurrently live clients.
  std::size_t max_clients = 16;
  /// Table of installable configurations. When empty, defaults to
  /// { majority(replicas) } with entry 0 initial.
  std::vector<quorum::QuorumSystem> configs;
  /// Quorum strategy spec for the default configuration, in the
  /// ParseStrategy grammar: "majority", "rowa"/"read-dominant", "rawo",
  /// "primary", "grid:RxC", "tree:B,L", "hier:B,D",
  /// "weighted:v1,...:R:W". Empty = majority. The shape must cover
  /// exactly `replicas` nodes or construction throws
  /// quorum::StrategyConfigError (fail-fast, typed — never a deep
  /// assert). Mutually exclusive with a non-empty `configs`, which
  /// already names its systems. When this field is empty and `configs`
  /// is too, the QCNT_STRATEGY environment variable supplies the spec;
  /// per the env-override contract (common/env.hpp) a spec that does
  /// not parse or fit `replicas` falls back to majority instead of
  /// taking the process down.
  std::string strategy;
  std::uint32_t initial_config = 0;
  /// Options of every client the store hands out (MakeClient runs them
  /// at window 1; MakeAsyncClient() uses them as given).
  ClientOptions client_options;
  /// When set, replicas persist to `directory/replica_<r>` and crashes
  /// lose volatile state; when unset, replicas are purely in-memory and a
  /// crash is only a partition (the original semantics). A directory the
  /// storage engine cannot adopt — including one a replica striped over
  /// several chains — throws storage::LayoutError from the constructor
  /// (or from Recover).
  std::optional<storage::DurabilityOptions> durability;
  /// Test observability: replicas record every version-accepted write in
  /// application order (see AppliedWrite); read back via ReplicaPeek.
  bool record_applied_history = false;
  /// When set, installed as the bus-wide default FaultPlan before any
  /// replica thread starts (see bus.hpp): every link becomes a lossy,
  /// duplicating, delaying, reordering channel, deterministically from
  /// FaultPlan::seed. The QCNT_FAULT_SEED environment variable, when set,
  /// overrides the seed — the hook a CI chaos matrix uses to vary runs
  /// without editing tests. Mutable at runtime via SetFaults below.
  /// Incompatible with `tcp`: fault injection is an in-process-Bus
  /// feature, and combining the two throws net::TransportConfigError at
  /// construction rather than silently ignoring the plan.
  std::optional<FaultPlan> faults;
  /// When set, the store's nodes communicate over loopback TCP instead
  /// of the in-process Bus (see TcpStoreOptions).
  std::optional<TcpStoreOptions> tcp;
};

class ReplicatedStore {
 public:
  explicit ReplicatedStore(StoreOptions options);
  ~ReplicatedStore();

  ReplicatedStore(const ReplicatedStore&) = delete;
  ReplicatedStore& operator=(const ReplicatedStore&) = delete;

  std::size_t ReplicaCount() const { return replicas_.size(); }
  const std::vector<quorum::QuorumSystem>& Configs() const {
    return options_.configs;
  }
  /// The shared runtime-appendable configuration registry (grows on
  /// membership change; every client holds the same table).
  const std::shared_ptr<ConfigTable>& ConfigTableRef() const {
    return table_;
  }
  bool Durable() const { return options_.durability.has_value(); }
  bool OverTcp() const { return tcp_ != nullptr; }
  /// "bus" or "tcp".
  const char* TransportName() const { return transport_->Name(); }
  /// Always 1 (one chain, one loop thread per replica). Kept only for
  /// qbench, which reports both; they go with the next benchmark change.
  std::size_t ShardsPerReplica() const { return 1; }
  std::size_t ReplicaWorkerCount(std::size_t) const { return 1; }

  /// Create a client (each client must be used from one thread at a time).
  std::unique_ptr<QuorumClient> MakeClient();

  /// Create an asynchronous pipelined/batched client (also one thread at a
  /// time; see async_client.hpp for the ordering envelope). Draws from the
  /// same max_clients budget as MakeClient.
  std::unique_ptr<AsyncQuorumClient> MakeAsyncClient();
  std::unique_ptr<AsyncQuorumClient> MakeAsyncClient(ClientOptions options);

  /// Crash / recover a replica (by node id: founding replicas are nodes
  /// [0, replicas); replicas added at runtime keep the id AddReplica
  /// assigned them). Under a durable backend, Crash discards the
  /// replica's in-memory state and Recover replays checkpoints + log
  /// before the replica rejoins quorums; a directory that lost a file its
  /// MANIFEST names makes Recover throw storage::LayoutError, and the
  /// replica stays down.
  void Crash(std::size_t replica);
  void Recover(std::size_t replica);
  bool IsUp(std::size_t replica) const;

  std::uint64_t MessagesSent() const { return transport_->MessagesSent(); }

  /// Socket-level counters; only meaningful on a TCP-backed store (zeros
  /// on the in-process Bus).
  net::TcpStats WireStats() const;

  // --- Fault injection (see bus.hpp) ---------------------------------------
  // Node ids: replicas are [0, replicas); clients are assigned
  // [replicas, replicas + max_clients) in MakeClient order — use these ids
  // to scope partitions and per-link plans.
  //
  // Every method below is an in-process-Bus feature: on a TCP-backed
  // store it throws net::TransportConfigError (the real network is the
  // fault injector there).

  /// Install `plan` as the default for every link (replaces any plan from
  /// StoreOptions::faults).
  void SetFaults(const FaultPlan& plan);
  /// Override the plan for one directed link.
  void SetLinkFaults(NodeId from, NodeId to, const FaultPlan& plan);
  /// Remove the default plan and all per-link overrides.
  void ClearFaults();
  /// Partition node sets `a` and `b` from each other (see Bus::Partition).
  void Partition(const std::vector<NodeId>& a, const std::vector<NodeId>& b,
                 bool symmetric = true);
  /// Heal every installed partition.
  void Heal();
  /// Deliver everything the fault layer still holds (test drains).
  void FlushFaults();
  FaultStats InjectedFaults() const;

  /// Storage counters for one replica / summed over all replicas.
  storage::StorageStats ReplicaStorageStats(std::size_t replica) const;
  storage::StorageStats TotalStorageStats() const;

  /// Fsync passes made by the replica's group-commit coordinator — the
  /// number of fsync *decisions* (each pass syncs every dirty segment
  /// once). 0 when the replica is not group-commit durable.
  std::uint64_t ReplicaCommitPasses(std::size_t replica) const;

  /// Replica-side batching counters, alongside the storage counters.
  BatchStats ReplicaBatchStats(std::size_t replica) const;
  BatchStats TotalBatchStats() const;

  /// Consistent snapshot of a running replica's state (image + applied
  /// history when record_applied_history is set), taken between ops on the
  /// server thread itself.
  ReplicaSnapshot ReplicaPeek(std::size_t replica) const;

  // --- Membership plumbing -------------------------------------------------
  // The three-phase protocol itself (bulk catchup, stamp, seal) lives a
  // layer above, in reconfig/catchup.hpp: call reconfig::AddReplica /
  // reconfig::RemoveReplica with this store. These hooks are what the
  // coordinator drives; they are safe to call concurrently with live
  // client traffic.

  /// Current replica member node ids (founding ids plus joins, minus
  /// removals), and the configuration id currently in force.
  std::vector<NodeId> Members() const;
  std::uint32_t CurrentConfigId() const;
  /// The dedicated coordinator client slot (one id, reused across
  /// membership operations; never counted against max_clients).
  NodeId CoordinatorId() const {
    return static_cast<NodeId>(options_.replicas + options_.max_clients);
  }
  Transport& TransportRef() { return *transport_; }
  /// Serializes membership operations (at most one join/leave at a time).
  std::unique_lock<std::mutex> LockMembership() {
    return std::unique_lock<std::mutex>(membership_mu_);
  }
  /// Allocate the next replica node id, grow the transport by that node,
  /// and start its ReplicaServer (durable stores get a fresh
  /// `replica_<id>` directory). The new replica serves traffic but is in
  /// no configuration until a reconfiguration installs one including it.
  /// Checks that the id budget (the 64-id quorum bitmask domain) is not
  /// exhausted. Caller must hold LockMembership().
  NodeId SpawnReplica();
  /// Install the outcome of a successful membership operation: the member
  /// list and configuration id new clients start from. Caller must hold
  /// LockMembership().
  void CommitMembership(std::vector<NodeId> members, std::uint32_t config_id);
  /// Stop and drop a replica server (a decommissioned leaver, or a joiner
  /// whose join failed). The node id stays burned — ids are never reused.
  /// Caller must hold LockMembership().
  void RetireReplica(NodeId node);

 private:
  /// The Bus when in-process (fault APIs available), else throws.
  Bus& RequireBus(const char* what) const;
  /// Claim the next client slot's node id (checks max_clients).
  NodeId ClaimClientId();

  StoreOptions options_;
  /// The message substrate: a Bus, or a TcpTransport hosting every node
  /// on loopback. bus_/tcp_ are borrowed views of transport_ for the
  /// implementation-specific surfaces (fault injection / wire stats).
  std::unique_ptr<Transport> transport_;
  Bus* bus_ = nullptr;
  net::TcpTransport* tcp_ = nullptr;
  /// Per-replica group-commit coordinators (group-commit durability
  /// only): one committer thread per replica making the fsync decision
  /// for its WAL segments. Declared before replicas_ so it is destroyed
  /// after the backends that reference it (each backend also holds a
  /// shared_ptr, so this is belt and braces).
  std::map<NodeId, std::shared_ptr<storage::GroupCommitCoordinator>>
      commit_coordinators_;
  /// Replica servers keyed by node id: founding replicas occupy [0,
  /// replicas); replicas added at runtime get ids above the coordinator
  /// slot, so the key set goes non-contiguous under churn.
  std::map<NodeId, std::unique_ptr<ReplicaServer>> replicas_;
  /// Client slots handed out so far; clients may be created from any
  /// thread, so each creation claims its slot with one fetch_add.
  std::atomic<std::size_t> next_client_{0};

  std::shared_ptr<ConfigTable> table_;
  /// Serializes whole membership operations (reconfig::AddReplica /
  /// RemoveReplica hold it across all three phases).
  std::mutex membership_mu_;
  /// Guards members_ / current_config_ (read by MakeClient on any thread,
  /// written by CommitMembership under membership_mu_).
  mutable std::mutex state_mu_;
  std::vector<NodeId> members_;
  std::uint32_t current_config_ = 0;
  NodeId next_replica_id_ = 0;
};

}  // namespace qcnt::runtime
