#include "runtime/store.hpp"

#include <cstdlib>
#include <limits>
#include <utility>

#include "common/check.hpp"
#include "common/env.hpp"
#include "net/error.hpp"
#include "storage/recovery.hpp"

namespace qcnt::runtime {

namespace {
std::string ReplicaDir(const StoreOptions& options, std::size_t replica) {
  return options.durability->directory + "/replica_" +
         std::to_string(replica);
}

StoreOptions Normalize(StoreOptions options) {
  QCNT_CHECK(options.replicas >= 1 && options.replicas <= 63);
  QCNT_CHECK(options.max_clients >= 1);
  if (!options.configs.empty() && !options.strategy.empty()) {
    throw quorum::StrategyConfigError(
        "StoreOptions::strategy and StoreOptions::configs are mutually "
        "exclusive — an explicit config table already names its systems");
  }
  if (options.configs.empty()) {
    const auto n = static_cast<ReplicaId>(options.replicas);
    if (!options.strategy.empty()) {
      // Programmatic spec: fail fast and typed on a bad spec or a shape
      // that cannot cover `replicas` (a 2×2 grid over 5 nodes).
      options.configs.push_back(quorum::SystemFromDescriptor(
          quorum::ParseStrategy(options.strategy), n));
    } else if (const char* env = std::getenv("QCNT_STRATEGY");
               env != nullptr && *env != '\0') {
      // Env override of the *default* only. Tolerant like every other
      // QCNT_* knob (common/env.hpp): a suite-wide QCNT_STRATEGY that
      // does not fit this store's replica count must not take the
      // process down, so misfits fall back to majority.
      try {
        options.configs.push_back(quorum::SystemFromDescriptor(
            quorum::ParseStrategy(env), n));
      } catch (const quorum::StrategyConfigError&) {
        options.configs.push_back(quorum::MajoritySystem(n));
      }
    } else {
      options.configs.push_back(quorum::MajoritySystem(n));
    }
    options.initial_config = 0;
  }
  QCNT_CHECK(options.initial_config < options.configs.size());
  QCNT_CHECK_MSG(options.configs.front().n == options.replicas,
                 "the first configuration fixes the replica universe");
  for (const quorum::QuorumSystem& s : options.configs) {
    QCNT_CHECK_MSG(s.n <= options.replicas,
                   "configurations may not mention unknown replicas");
  }
  if (options.durability) {
    QCNT_CHECK_MSG(!options.durability->directory.empty(),
                   "durability requires a directory");
  }
  if (options.faults && options.tcp) {
    // Loud and typed, not a silently ignored plan: the seeded injector
    // lives in the Bus, and a TCP store never routes through it.
    throw net::TransportConfigError(
        "StoreOptions::faults is an in-process-Bus feature and cannot be "
        "combined with StoreOptions::tcp (on TCP the network itself is "
        "the fault injector)");
  }
  if (options.faults) {
    FaultPlan& f = *options.faults;
    QCNT_CHECK_MSG(f.drop >= 0.0 && f.drop <= 1.0, "drop out of [0, 1]");
    QCNT_CHECK_MSG(f.duplicate >= 0.0 && f.duplicate <= 1.0,
                   "duplicate out of [0, 1]");
    QCNT_CHECK_MSG(f.delay_min.count() >= 0 &&
                       f.delay_min <= f.delay_max,
                   "delay_min must be in [0, delay_max]");
    // QCNT_FAULT_SEED lets a CI chaos matrix vary the seed per run
    // without editing tests.
    if (const auto v = common::EnvU64("QCNT_FAULT_SEED", 0,
                                      std::numeric_limits<std::uint64_t>::max())) {
      f.seed = *v;
    }
  }
  if (options.tcp && options.tcp->port_base == 0) {
    // Fixed ports on demand (e.g. to watch loopback traffic in a packet
    // capture); the default ephemeral ports cannot collide across
    // concurrent test runs.
    if (const auto v = common::EnvU64("QCNT_TCP_PORT_BASE", 1024,
                                      65535 - 64 - 16)) {
      options.tcp->port_base = static_cast<std::uint16_t>(*v);
    }
  }
  return options;
}

/// Every node of the universe hosted by this process, talking loopback
/// TCP to itself: the honest single-process deployment of the real wire
/// path (bench_transport's subject, and the TCP e2e tests').
std::unique_ptr<net::TcpTransport> MakeLoopbackTransport(
    const StoreOptions& options) {
  // +1: the membership coordinator's dedicated client slot. Replicas
  // added at runtime claim ids above it (AddLocalNode / Bus::AddNode into
  // the transports' pre-allocated growth headroom).
  const std::size_t n = options.replicas + options.max_clients + 1;
  net::TcpTransportOptions topts;
  topts.universe.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    topts.universe[i].host = options.tcp->host;
    if (options.tcp->port_base != 0) {
      topts.universe[i].port =
          static_cast<std::uint16_t>(options.tcp->port_base + i);
    }
  }
  std::vector<NodeId> local(n);
  for (std::size_t i = 0; i < n; ++i) local[i] = static_cast<NodeId>(i);
  return std::make_unique<net::TcpTransport>(std::move(topts),
                                             std::move(local));
}

/// One coordinator per group-commit-durable replica: a single fsync
/// decision per window, off the replica's loop thread.
std::shared_ptr<storage::GroupCommitCoordinator> MakeCommitCoordinator(
    const StoreOptions& options) {
  if (!options.durability ||
      options.durability->fsync != storage::FsyncPolicy::kGroupCommit) {
    return nullptr;
  }
  storage::GroupCommitCoordinator::Options o;
  o.window = options.durability->group_commit_window;
  o.adaptive = options.durability->adaptive_commit_window;
  o.min_window = options.durability->commit_window_min;
  o.max_window = options.durability->commit_window_max;
  return std::make_shared<storage::GroupCommitCoordinator>(o);
}

/// Refuse to open a durability directory whose layout cannot host this
/// replica: corrupt or unsupported manifest (a striped one included), or
/// a file the manifest names is gone. Recovering a subset silently would
/// drop acked writes — the one thing the WAL exists to prevent.
void ValidateDurableLayout(const StoreOptions& options, std::size_t replica) {
  const auto check =
      storage::RecoveryManager(ReplicaDir(options, replica)).ValidateLayout();
  if (!check.ok) throw storage::LayoutError(check.error);
}

/// The replica's backend: durable under `replica_<id>/` when the store
/// is, else in-memory.
std::unique_ptr<storage::Backend> MakeReplicaBackend(
    const StoreOptions& options, std::size_t replica,
    std::shared_ptr<storage::GroupCommitCoordinator> coordinator) {
  if (!options.durability) return storage::MakeMemoryBackend();
  return storage::MakeDurableBackend(ReplicaDir(options, replica),
                                     *options.durability,
                                     std::move(coordinator));
}
}  // namespace

ReplicatedStore::ReplicatedStore(StoreOptions options)
    : options_(Normalize(std::move(options))) {
  if (options_.tcp) {
    auto tcp = MakeLoopbackTransport(options_);
    tcp_ = tcp.get();
    transport_ = std::move(tcp);
  } else {
    // +1: the membership coordinator's dedicated client slot.
    auto bus = std::make_unique<Bus>(options_.replicas +
                                     options_.max_clients + 1);
    bus_ = bus.get();
    transport_ = std::move(bus);
  }
  table_ = std::make_shared<ConfigTable>(options_.configs);
  current_config_ = options_.initial_config;
  next_replica_id_ =
      static_cast<NodeId>(options_.replicas + options_.max_clients + 1);
  // Install faults before any replica thread starts so the very first
  // message already flows through the injector and per-link RNG streams
  // are reproducible from the seed alone.
  if (options_.faults) bus_->SetFaults(*options_.faults);
  for (std::size_t r = 0; r < options_.replicas; ++r) {
    if (Durable()) ValidateDurableLayout(options_, r);
    auto gc = MakeCommitCoordinator(options_);
    if (gc) commit_coordinators_.emplace(static_cast<NodeId>(r), gc);
    replicas_.emplace(static_cast<NodeId>(r),
                      std::make_unique<ReplicaServer>(
                          *transport_, static_cast<NodeId>(r),
                          MakeReplicaBackend(options_, r, gc),
                          options_.record_applied_history));
    members_.push_back(static_cast<NodeId>(r));
  }
}

ReplicatedStore::~ReplicatedStore() {
  for (auto& r : replicas_) r.second->Shutdown();
  transport_->CloseAll();
}

NodeId ReplicatedStore::ClaimClientId() {
  // One atomic claim per creation: concurrent callers get distinct slots,
  // and a claim past the limit fails without handing out an id.
  const std::size_t slot = next_client_.fetch_add(1);
  QCNT_CHECK_MSG(slot < options_.max_clients,
                 "client limit reached; raise StoreOptions::max_clients");
  return static_cast<NodeId>(options_.replicas + slot);
}

std::unique_ptr<QuorumClient> ReplicatedStore::MakeClient() {
  // Clients share the store's config table and start from the
  // configuration currently in force, so a client created after a
  // membership change targets the grown universe from its first op.
  const NodeId id = ClaimClientId();
  return std::make_unique<QuorumClient>(*transport_, id, table_,
                                        CurrentConfigId(),
                                        options_.client_options);
}

std::unique_ptr<AsyncQuorumClient> ReplicatedStore::MakeAsyncClient() {
  return MakeAsyncClient(options_.client_options);
}

std::unique_ptr<AsyncQuorumClient> ReplicatedStore::MakeAsyncClient(
    ClientOptions options) {
  const NodeId id = ClaimClientId();
  return std::make_unique<AsyncQuorumClient>(*transport_, id, table_,
                                             CurrentConfigId(), options);
}

void ReplicatedStore::Crash(std::size_t replica) {
  const auto it = replicas_.find(static_cast<NodeId>(replica));
  QCNT_CHECK_MSG(it != replicas_.end(), "unknown replica node id");
  // Partition first so an in-flight reply cannot escape, then (durable
  // only) fail-stop the server: stop the loop, discard the image.
  transport_->Crash(static_cast<NodeId>(replica));
  if (Durable()) it->second->CrashAndWipe();
}

void ReplicatedStore::Recover(std::size_t replica) {
  const auto it = replicas_.find(static_cast<NodeId>(replica));
  QCNT_CHECK_MSG(it != replicas_.end(), "unknown replica node id");
  // Rebuild state before reopening the transport, so the replica rejoins
  // quorums only once recovery replay has completed. Re-validate the
  // layout first: a segment that vanished while the replica was down must
  // fail recovery loudly, not resurrect a subset of the acked state.
  if (Durable()) {
    ValidateDurableLayout(options_, replica);
    it->second->Restart();
  }
  transport_->Recover(static_cast<NodeId>(replica));
}

bool ReplicatedStore::IsUp(std::size_t replica) const {
  return transport_->IsUp(static_cast<NodeId>(replica));
}

net::TcpStats ReplicatedStore::WireStats() const {
  if (tcp_ == nullptr) return net::TcpStats{};
  return tcp_->WireStats();
}

Bus& ReplicatedStore::RequireBus(const char* what) const {
  if (bus_ == nullptr) {
    throw net::TransportConfigError(
        std::string(what) +
        " is an in-process-Bus feature; this store runs over TCP, where "
        "the network itself is the fault injector");
  }
  return *bus_;
}

void ReplicatedStore::SetFaults(const FaultPlan& plan) {
  RequireBus("SetFaults").SetFaults(plan);
}

void ReplicatedStore::SetLinkFaults(NodeId from, NodeId to,
                                    const FaultPlan& plan) {
  RequireBus("SetLinkFaults").SetLinkFaults(from, to, plan);
}

void ReplicatedStore::ClearFaults() { RequireBus("ClearFaults").ClearFaults(); }

void ReplicatedStore::Partition(const std::vector<NodeId>& a,
                                const std::vector<NodeId>& b,
                                bool symmetric) {
  RequireBus("Partition").Partition(a, b, symmetric);
}

void ReplicatedStore::Heal() { RequireBus("Heal").Heal(); }

void ReplicatedStore::FlushFaults() { RequireBus("FlushFaults").FlushFaults(); }

FaultStats ReplicatedStore::InjectedFaults() const {
  return RequireBus("InjectedFaults").InjectedFaults();
}

storage::StorageStats ReplicatedStore::ReplicaStorageStats(
    std::size_t replica) const {
  const auto it = replicas_.find(static_cast<NodeId>(replica));
  QCNT_CHECK_MSG(it != replicas_.end(), "unknown replica node id");
  return it->second->StorageStats();
}

storage::StorageStats ReplicatedStore::TotalStorageStats() const {
  storage::StorageStats total;
  for (const auto& r : replicas_) total += r.second->StorageStats();
  return total;
}

BatchStats ReplicatedStore::ReplicaBatchStats(std::size_t replica) const {
  const auto it = replicas_.find(static_cast<NodeId>(replica));
  QCNT_CHECK_MSG(it != replicas_.end(), "unknown replica node id");
  return it->second->BatchStats();
}

BatchStats ReplicatedStore::TotalBatchStats() const {
  BatchStats total;
  for (const auto& r : replicas_) total += r.second->BatchStats();
  return total;
}

ReplicaSnapshot ReplicatedStore::ReplicaPeek(std::size_t replica) const {
  const auto it = replicas_.find(static_cast<NodeId>(replica));
  QCNT_CHECK_MSG(it != replicas_.end(), "unknown replica node id");
  return it->second->Peek();
}

std::vector<NodeId> ReplicatedStore::Members() const {
  std::lock_guard<std::mutex> lock(state_mu_);
  return members_;
}

std::uint32_t ReplicatedStore::CurrentConfigId() const {
  std::lock_guard<std::mutex> lock(state_mu_);
  return current_config_;
}

NodeId ReplicatedStore::SpawnReplica() {
  const NodeId id = next_replica_id_++;
  QCNT_CHECK_MSG(id < 64,
                 "replica id budget exhausted (ids are never reused and "
                 "must fit the 64-id quorum bitmask domain)");
  if (bus_ != nullptr) {
    const NodeId got = bus_->AddNode();
    QCNT_CHECK_MSG(got == id, "bus universe grew out from under the store");
  } else {
    net::Endpoint ep;
    ep.host = options_.tcp->host;
    if (options_.tcp->port_base != 0) {
      ep.port = static_cast<std::uint16_t>(options_.tcp->port_base + id);
    }
    tcp_->AddLocalNode(id, ep);
  }
  if (Durable()) ValidateDurableLayout(options_, id);
  auto gc = MakeCommitCoordinator(options_);
  if (gc) commit_coordinators_.emplace(id, gc);
  auto server = std::make_unique<ReplicaServer>(
      *transport_, id, MakeReplicaBackend(options_, id, gc),
      options_.record_applied_history);
  replicas_.emplace(id, std::move(server));
  return id;
}

void ReplicatedStore::CommitMembership(std::vector<NodeId> members,
                                       std::uint32_t config_id) {
  std::lock_guard<std::mutex> lock(state_mu_);
  members_ = std::move(members);
  current_config_ = config_id;
}

void ReplicatedStore::RetireReplica(NodeId node) {
  const auto it = replicas_.find(node);
  QCNT_CHECK_MSG(it != replicas_.end(), "unknown replica node id");
  // Partition first so nothing it acks mid-shutdown escapes, then stop
  // the threads. The entry is dropped; the node id stays burned.
  transport_->Crash(node);
  it->second->Shutdown();
  replicas_.erase(it);
  commit_coordinators_.erase(node);
}

std::uint64_t ReplicatedStore::ReplicaCommitPasses(std::size_t replica) const {
  const auto it = commit_coordinators_.find(static_cast<NodeId>(replica));
  return it == commit_coordinators_.end() ? 0 : it->second->Passes();
}

}  // namespace qcnt::runtime
