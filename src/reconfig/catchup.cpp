#include "reconfig/catchup.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <utility>

#include "common/check.hpp"
#include "runtime/store.hpp"

namespace qcnt::reconfig {

using runtime::BatchEntry;
using runtime::Envelope;
using runtime::MemberConfig;
using runtime::NodeId;
using runtime::RtMessage;

namespace {
std::chrono::steady_clock::time_point Deadline(
    std::chrono::milliseconds timeout) {
  return std::chrono::steady_clock::now() + timeout;
}

/// Monotone across every coordinator in the process — see the epoch_
/// comment in the header.
std::atomic<std::uint64_t> g_coordinator_epoch{0};

/// Re-derive the serving quorum strategy over a changed member set.
/// Historically membership change installed ConfigTable::Majority(...)
/// unconditionally, silently discarding whatever grid/tree/weighted/ROWA
/// strategy the store was serving under — a 3→5→3 cycle came back
/// majority. Descriptors make the strategy explicit: size-free kinds
/// (majority, ROWA, RAWO, primary) re-derive over the new member count,
/// and a kind whose parameters pin the universe size (grid, tree,
/// hierarchical, weighted votes) throws StrategyConfigError so the
/// caller refuses the change instead of quietly swapping quorum systems.
MemberConfig DeriveTargetConfig(const MemberConfig& current,
                                std::vector<NodeId> members) {
  const quorum::StrategyDescriptor& d = current.system.descriptor;
  if (d.kind == quorum::StrategyKind::kOpaque) {
    // Hand-built system with no serializable recipe: majority over the
    // new members is the only honest derivation (the pre-descriptor
    // behavior, kept for opaque configs only).
    return runtime::ConfigTable::Majority(std::move(members));
  }
  return runtime::ConfigTable::FromDescriptor(d, std::move(members));
}
}  // namespace

MembershipCoordinator::MembershipCoordinator(
    runtime::Transport& transport, NodeId id,
    std::shared_ptr<runtime::ConfigTable> table,
    std::uint32_t believed_config, MembershipOptions options)
    : transport_(&transport),
      id_(id),
      table_(table),
      options_(std::move(options)),
      client_(transport, id, std::move(table), believed_config,
              options_.client),
      epoch_((g_coordinator_epoch.fetch_add(1, std::memory_order_relaxed) &
              ((1ull << 23) - 1))
             << 40) {}

bool MembershipCoordinator::Prime(MembershipReport& report) {
  // A read quorum of the distinguished config key reveals the newest
  // installed (generation, config): the coordinator must stamp its drain
  // installs and seal streams with a generation no live replica fences.
  const runtime::ClientResult r = client_.Read("");
  if (!r.ok) {
    report.error = std::string("priming read found no quorum (") +
                   runtime::ToString(r.status) + ")";
    return false;
  }
  return true;
}

bool MembershipCoordinator::RunBulkCatchup(
    NodeId joiner, const std::vector<NodeId>& donors,
    MembershipReport& report) {
  QCNT_CHECK_MSG(!donors.empty(), "bulk catchup needs at least one donor");
  // Each attempt (re-)issues the join against the next donor and waits
  // one progress window for the joiner's done report. A re-issued join
  // *resumes* from the joiner's cursor, so a
  // timeout mid-transfer (slow or crashed donor) costs only the chunk in
  // flight, never the stream so far.
  std::vector<std::uint64_t> issued;
  for (std::size_t attempt = 0; attempt < options_.max_step_attempts;
       ++attempt) {
    const NodeId donor = donors[attempt % donors.size()];
    const std::uint64_t op = NextOp();
    issued.push_back(op);
    RtMessage join;
    join.kind = RtMessage::Kind::kJoinReq;
    join.op = op;
    join.value = static_cast<std::int64_t>(donor);
    transport_->Send(id_, joiner, std::move(join));

    const auto deadline = Deadline(options_.step_timeout);
    while (std::chrono::steady_clock::now() < deadline) {
      std::optional<Envelope> e = transport_->MailboxOf(id_).Pop(deadline);
      if (!e) {
        if (std::chrono::steady_clock::now() < deadline) {
          report.error = "transport closed during bulk catchup";
          return false;
        }
        break;  // progress window elapsed: re-issue (resumes)
      }
      if (e->from != joiner) continue;
      if (e->msg.kind != RtMessage::Kind::kCatchupDone) continue;
      bool ours = false;
      for (std::uint64_t o : issued) ours |= o == e->msg.op;
      if (!ours) continue;
      if (e->msg.value != runtime::kJoinOk) {
        report.error = "joiner refused the catchup stream";
        return false;
      }
      report.catchup_entries = e->msg.version;
      return true;
    }
  }
  report.error = "bulk catchup made no progress (no reachable donor)";
  return false;
}

bool MembershipCoordinator::PullChunk(NodeId source, std::string& cursor,
                                      bool& more,
                                      std::vector<BatchEntry>& entries,
                                      std::string& error) {
  for (std::size_t attempt = 0; attempt < options_.max_step_attempts;
       ++attempt) {
    const std::uint64_t op = NextOp();
    RtMessage req;
    req.kind = RtMessage::Kind::kCatchupReq;
    req.op = op;
    req.key = cursor;
    req.value = static_cast<std::int64_t>(options_.chunk_entries);
    transport_->Send(id_, source, std::move(req));

    const auto deadline = Deadline(options_.step_timeout);
    for (;;) {
      std::optional<Envelope> e = transport_->MailboxOf(id_).Pop(deadline);
      if (!e) {
        if (std::chrono::steady_clock::now() < deadline) {
          error = "transport closed during pull";
          return false;
        }
        break;  // timed out: fresh op, same cursor (idempotent)
      }
      if (e->from != source) continue;
      if (e->msg.kind != RtMessage::Kind::kCatchupChunk) continue;
      if (e->msg.op != op) continue;  // stale earlier attempt
      entries = std::move(e->msg.batch);
      if (!entries.empty()) cursor = e->msg.key;
      more = e->msg.value != 0;
      return true;
    }
  }
  error = "pull timed out (source unreachable)";
  return false;
}

bool MembershipCoordinator::InstallEntries(
    const std::vector<BatchEntry>& entries,
    const std::vector<NodeId>& targets, const MemberConfig& quorum_of,
    std::uint64_t generation, std::string& error) {
  if (entries.empty()) return true;
  RtMessage m;
  m.kind = RtMessage::Kind::kBatchWriteReq;
  // Installs carry the raw pulled versions (never read-modify-write: a
  // re-streamed entry must land exactly where the original write did,
  // and the replica's newer-version-wins merge makes re-sends no-ops).
  m.generation = generation;
  m.config_id = client_.BelievedConfig();
  m.batch = entries;
  // Op ids are stable across resends, so a straggling ack from an
  // earlier attempt still counts toward the same entry.
  std::vector<std::uint64_t> acked(entries.size(), 0);
  for (BatchEntry& entry : m.batch) entry.op = NextOp();

  const auto satisfied = [&]() {
    for (const std::uint64_t mask : acked) {
      if (!quorum_of.system.has_write(mask & quorum_of.member_mask)) {
        return false;
      }
    }
    return true;
  };
  for (std::size_t attempt = 0; attempt < options_.max_step_attempts;
       ++attempt) {
    for (const NodeId t : targets) transport_->Send(id_, t, m);
    const auto deadline = Deadline(options_.step_timeout);
    for (;;) {
      std::optional<Envelope> e = transport_->MailboxOf(id_).Pop(deadline);
      if (!e) {
        if (std::chrono::steady_clock::now() < deadline) {
          error = "transport closed during install";
          return false;
        }
        break;  // timed out: resend the batch (idempotent)
      }
      if (e->from >= 64) continue;
      if (e->msg.kind != RtMessage::Kind::kBatchWriteAck) continue;
      const std::uint64_t bit = 1ull << e->from;
      for (const BatchEntry& ack : e->msg.batch) {
        if (ack.value != 0) {
          // Fenced: a strictly newer generation exists. Membership
          // operations are serialized per store, so this means the
          // coordinator's view is stale beyond repair for this pass.
          error = "install fenced by a newer generation";
          return false;
        }
        for (std::size_t i = 0; i < m.batch.size(); ++i) {
          if (m.batch[i].op == ack.op) acked[i] |= bit;
        }
      }
      if (satisfied()) return true;
    }
  }
  error = "install found no ack quorum";
  return false;
}

bool MembershipCoordinator::StreamImage(NodeId source,
                                        const std::vector<NodeId>& targets,
                                        const MemberConfig& quorum_of,
                                        std::uint64_t generation,
                                        MembershipReport& report) {
  std::string cursor;
  bool more = true;
  while (more) {
    std::vector<BatchEntry> entries;
    if (!PullChunk(source, cursor, more, entries, report.error)) {
      return false;
    }
    if (!InstallEntries(entries, targets, quorum_of, generation,
                        report.error)) {
      return false;
    }
    report.seal_entries += entries.size();
  }
  return true;
}

MembershipReport MembershipCoordinator::Join(
    NodeId joiner, const std::vector<NodeId>& donors, std::uint32_t target) {
  MembershipReport report;
  const auto target_cfg = table_->TryAt(target);
  if (target_cfg == nullptr) {
    report.error = "unknown target configuration";
    return report;
  }
  if (!Prime(report)) return report;
  if (!RunBulkCatchup(joiner, donors, report)) return report;

  std::uint64_t s_acked = 0;
  const runtime::ClientResult r = client_.Reconfigure(target, &s_acked);
  if (!r.ok) {
    report.error = std::string("reconfigure found no quorum (") +
                   runtime::ToString(r.status) + ")";
    return report;
  }

  // Phase C: seal from every old member that acked the stamp. Their
  // images jointly contain every write acked under the old generation,
  // and every one of them now fences older installs — so after this loop
  // no write the joiner is missing can ever be acked. The seal targets
  // exactly one node, so its "quorum" is the joiner itself — this is a
  // delivery requirement, not a serving strategy, and must not inherit
  // the store's (possibly non-majority) descriptor.
  const MemberConfig joiner_only = runtime::ConfigTable::Singleton(joiner);
  for (NodeId member = 0; member < 64; ++member) {
    if ((s_acked & (1ull << member)) == 0) continue;
    if (!StreamImage(member, {joiner}, joiner_only,
                     client_.BelievedGeneration(), report)) {
      report.error = "seal from member " + std::to_string(member) +
                     " failed: " + report.error;
      return report;
    }
  }
  report.ok = true;
  report.drained = true;
  report.config_id = target;
  report.generation = client_.BelievedGeneration();
  return report;
}

MembershipReport MembershipCoordinator::Leave(NodeId leaver,
                                              std::uint32_t target) {
  MembershipReport report;
  if (table_->TryAt(target) == nullptr) {
    report.error = "unknown target configuration";
    return report;
  }
  if (!Prime(report)) return report;
  const auto old_cfg = table_->At(client_.BelievedConfig());

  // Drain: re-stream the leaver's image into a write quorum of the old
  // configuration, so no write survives only on the departing replica.
  // An unreachable leaver (decommissioning a dead node) skips the drain:
  // its copies are unreachable either way, and the stamp alone restores
  // write availability — the §4 point. A drain that fails midway leaves
  // only idempotent re-installs behind, so it degrades to the same case.
  MembershipReport drain;
  if (StreamImage(leaver, old_cfg->members, *old_cfg,
                  client_.BelievedGeneration(), drain)) {
    report.drained = true;
    report.seal_entries = drain.seal_entries;
  } else {
    report.drained = false;
    report.seal_entries = drain.seal_entries;
  }

  const runtime::ClientResult r = client_.Reconfigure(target);
  if (!r.ok) {
    report.error = std::string("reconfigure found no quorum (") +
                   runtime::ToString(r.status) + ")";
    return report;
  }
  report.ok = true;
  report.config_id = target;
  report.generation = client_.BelievedGeneration();
  return report;
}

MembershipReport AddReplica(runtime::ReplicatedStore& store,
                            const MembershipOptions& options) {
  const auto membership = store.LockMembership();
  MembershipReport report;
  const std::vector<NodeId> donors = store.Members();
  const NodeId joiner = store.SpawnReplica();
  report.node = joiner;

  std::vector<NodeId> grown = donors;
  grown.push_back(joiner);
  MemberConfig target_cfg;
  try {
    target_cfg = DeriveTargetConfig(
        *store.ConfigTableRef()->At(store.CurrentConfigId()), grown);
  } catch (const quorum::StrategyConfigError& err) {
    report.error =
        std::string("strategy cannot span the grown membership: ") +
        err.what();
    store.RetireReplica(joiner);
    return report;
  }
  const std::uint32_t target =
      store.ConfigTableRef()->Append(std::move(target_cfg));

  MembershipCoordinator coordinator(store.TransportRef(),
                                    store.CoordinatorId(),
                                    store.ConfigTableRef(),
                                    store.CurrentConfigId(), options);
  const MembershipReport join = coordinator.Join(
      joiner, donors, target);
  report.ok = join.ok;
  report.config_id = join.config_id;
  report.generation = join.generation;
  report.catchup_entries = join.catchup_entries;
  report.seal_entries = join.seal_entries;
  report.drained = join.drained;
  report.error = join.error;
  if (report.ok) {
    store.CommitMembership(std::move(grown), target);
  } else {
    // The id stays burned and the appended configuration was never
    // stamped, so no replica will ever name it — both are harmless.
    store.RetireReplica(joiner);
  }
  return report;
}

MembershipReport RemoveReplica(runtime::ReplicatedStore& store, NodeId node,
                               const MembershipOptions& options) {
  const auto membership = store.LockMembership();
  MembershipReport report;
  report.node = node;
  std::vector<NodeId> remaining = store.Members();
  const auto it = std::find(remaining.begin(), remaining.end(), node);
  if (it == remaining.end()) {
    report.error = "node is not a member of the current configuration";
    return report;
  }
  if (remaining.size() < 2) {
    report.error = "refusing to remove the last replica";
    return report;
  }
  remaining.erase(it);
  MemberConfig target_cfg;
  try {
    target_cfg = DeriveTargetConfig(
        *store.ConfigTableRef()->At(store.CurrentConfigId()), remaining);
  } catch (const quorum::StrategyConfigError& err) {
    report.error =
        std::string("strategy cannot span the shrunk membership: ") +
        err.what();
    return report;
  }
  const std::uint32_t target =
      store.ConfigTableRef()->Append(std::move(target_cfg));

  MembershipCoordinator coordinator(store.TransportRef(),
                                    store.CoordinatorId(),
                                    store.ConfigTableRef(),
                                    store.CurrentConfigId(), options);
  const MembershipReport leave =
      coordinator.Leave(node, target);
  report.ok = leave.ok;
  report.config_id = leave.config_id;
  report.generation = leave.generation;
  report.seal_entries = leave.seal_entries;
  report.drained = leave.drained;
  report.error = leave.error;
  if (report.ok) {
    store.CommitMembership(std::move(remaining), target);
    store.RetireReplica(node);
  }
  return report;
}

}  // namespace qcnt::reconfig

