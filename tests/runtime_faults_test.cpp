// Tests for the seeded fault-injection layer (bus-level determinism,
// partitions, delay), client retry/backoff and the status taxonomy, and
// the hardened quorum-client edge cases: out-of-universe senders, the
// Lemma 8 divergence counter, delivered-only repair accounting, and
// idempotent replica application of duplicated writes.
#include <gtest/gtest.h>

#include <filesystem>
#include <set>
#include <thread>

#include "quorum/strategies.hpp"
#include "runtime/store.hpp"

namespace qcnt::runtime {
namespace {

namespace fs = std::filesystem;
using namespace std::chrono_literals;

/// A replica's read response to op `op`: a batch of one, as replicas
/// answer every client request.
RtMessage ReadResp(std::uint64_t op, const std::string& key,
                   std::uint64_t version, std::int64_t value) {
  RtMessage m;
  m.kind = RtMessage::Kind::kBatchReadResp;
  m.op = op;
  m.batch = {BatchEntry{op, key, version, value}};
  return m;
}

/// A raw install of (version, value) at `key`: a batch-of-one write.
RtMessage WriteReq(std::uint64_t op, const std::string& key,
                   std::uint64_t version, std::int64_t value) {
  RtMessage m;
  m.kind = RtMessage::Kind::kBatchWriteReq;
  m.op = op;
  m.batch = {BatchEntry{op, key, version, value}};
  return m;
}

// ---------------------------------------------------------------------------
// Bus-level fault injection.

/// Same seed ⇒ identical delivery schedule (drops, duplicates, and reorder
/// ranks all replay); a different seed diverges.
TEST(FaultInjection, SeededDeterminism) {
  const auto run = [](std::uint64_t seed) {
    Bus bus(2);
    FaultPlan plan;
    plan.drop = 0.2;
    plan.duplicate = 0.2;
    plan.reorder_window = 4;
    plan.reorder_hold = 10s;  // the flush below drains, not the net thread
    plan.seed = seed;
    bus.SetFaults(plan);
    for (std::uint64_t op = 1; op <= 200; ++op) {
      bus.Send(0, 1, RtMessage{RtMessage::Kind::kReadReq, op, "k",
                               0, 0, 0, 0});
    }
    bus.FlushFaults();
    std::vector<std::uint64_t> ops;
    for (Envelope& e : bus.MailboxOf(1).TryPopAll()) ops.push_back(e.msg.op);
    return ops;
  };
  const std::vector<std::uint64_t> a = run(1), b = run(1), c = run(2);
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  // The schedule is genuinely faulty: not all 200 arrive in order.
  std::vector<std::uint64_t> fifo(200);
  for (std::uint64_t op = 1; op <= 200; ++op) fifo[op - 1] = op;
  EXPECT_NE(a, fifo);
}

TEST(FaultInjection, StatsCountInjectedFaults) {
  Bus bus(2);
  FaultPlan plan;
  plan.drop = 0.3;
  plan.duplicate = 0.3;
  plan.reorder_window = 4;
  plan.reorder_hold = 10s;
  bus.SetFaults(plan);
  for (std::uint64_t op = 1; op <= 200; ++op) {
    bus.Send(0, 1, RtMessage{RtMessage::Kind::kReadReq, op, "k", 0, 0, 0, 0});
  }
  bus.FlushFaults();
  const FaultStats stats = bus.InjectedFaults();
  EXPECT_GT(stats.dropped, 0u);
  EXPECT_GT(stats.duplicated, 0u);
  EXPECT_GT(stats.reordered, 0u);
  EXPECT_EQ(bus.MessagesDropped(), stats.dropped);
  // Everything not dropped arrived, including the duplicates.
  EXPECT_EQ(bus.MailboxOf(1).Size(),
            200 - stats.dropped + stats.duplicated);
}

/// Regression: the default plan must cover links whose node was added
/// *after* the plan was installed (membership change). Per-link SplitMix
/// streams used to be derivable only for nodes present at construction;
/// they are now derived lazily from the (from, to) pair key, so a link
/// born later is faulty, and deterministically so from the seed alone.
TEST(FaultInjection, PlansCoverDynamicallyAddedLinks) {
  const auto run = [](std::uint64_t seed) {
    Bus bus(2);
    FaultPlan plan;
    plan.drop = 0.3;
    plan.duplicate = 0.2;
    plan.reorder_window = 4;
    plan.reorder_hold = 10s;
    plan.seed = seed;
    bus.SetFaults(plan);
    const NodeId added = bus.AddNode();  // joins after the plan existed
    for (std::uint64_t op = 1; op <= 200; ++op) {
      bus.Send(0, added,
               RtMessage{RtMessage::Kind::kReadReq, op, "k", 0, 0, 0, 0});
      bus.Send(added, 1,
               RtMessage{RtMessage::Kind::kReadReq, op, "k", 0, 0, 0, 0});
    }
    bus.FlushFaults();
    std::vector<std::uint64_t> ops;
    for (Envelope& e : bus.MailboxOf(added).TryPopAll()) {
      ops.push_back(e.msg.op);
    }
    for (Envelope& e : bus.MailboxOf(1).TryPopAll()) ops.push_back(e.msg.op);
    EXPECT_GT(bus.InjectedFaults().dropped, 0u)
        << "links of an added node must flow through the injector";
    return ops;
  };
  const std::vector<std::uint64_t> a = run(7), b = run(7), c = run(8);
  EXPECT_EQ(a, b) << "added-link streams must replay from the seed";
  EXPECT_NE(a, c);
  EXPECT_LT(a.size(), 400u);  // drops really happened on both directions
}

/// Delayed messages are released by the net thread without any explicit
/// flush, and every one of them arrives.
TEST(FaultInjection, DelayedMessagesAllArrive) {
  Bus bus(2);
  FaultPlan plan;
  plan.delay_min = 200us;
  plan.delay_max = 2ms;
  bus.SetFaults(plan);
  for (std::uint64_t op = 1; op <= 50; ++op) {
    bus.Send(0, 1, RtMessage{RtMessage::Kind::kReadReq, op, "k", 0, 0, 0, 0});
  }
  std::set<std::uint64_t> got;
  const auto deadline = std::chrono::steady_clock::now() + 5s;
  while (got.size() < 50) {
    auto e = bus.MailboxOf(1).Pop(deadline);
    ASSERT_TRUE(e.has_value()) << "only " << got.size() << " arrived";
    got.insert(e->msg.op);
  }
  EXPECT_EQ(bus.InjectedFaults().delayed, 50u);
}

TEST(FaultInjection, PartitionBlocksSendAndHealRestores) {
  Bus bus(3);
  bus.Partition({0}, {1});
  EXPECT_FALSE(bus.Send(0, 1, {}));
  EXPECT_FALSE(bus.Send(1, 0, {}));  // symmetric by default
  EXPECT_TRUE(bus.Send(0, 2, {}));   // unrelated link unaffected
  EXPECT_EQ(bus.InjectedFaults().partition_drops, 2u);
  bus.Heal();
  EXPECT_TRUE(bus.Send(0, 1, {}));
  EXPECT_EQ(bus.MailboxOf(1).Size(), 1u);
}

TEST(FaultInjection, AsymmetricPartitionBlocksOneDirection) {
  Bus bus(2);
  bus.Partition({0}, {1}, /*symmetric=*/false);
  EXPECT_FALSE(bus.Send(0, 1, {}));
  EXPECT_TRUE(bus.Send(1, 0, {}));
}

// ---------------------------------------------------------------------------
// Store-level: partitions vs. quorum availability, seeded chaos + retry.

TEST(FaultInjection, PartitionHealRestoresQuorumAvailability) {
  StoreOptions options;
  options.replicas = 3;
  options.client_options.timeout = 100ms;
  ReplicatedStore store(std::move(options));
  auto client = store.MakeClient();  // node id 3 (first client)
  ASSERT_TRUE(client->Write("k", 7).ok);

  // Cut the client off from replicas 0 and 1: only replica 2 can answer,
  // no read quorum of majority(3) can assemble.
  store.Partition({3}, {0, 1});
  ClientResult r = client->Read("k");
  EXPECT_FALSE(r.ok);
  EXPECT_EQ(r.status, ClientStatus::kTimeout);  // heard 2, not a quorum

  // Cut it off from everyone: no replica can even respond.
  store.Partition({3}, {2});
  r = client->Read("k");
  EXPECT_FALSE(r.ok);
  EXPECT_EQ(r.status, ClientStatus::kNoQuorum);

  store.Heal();
  r = client->Read("k");
  ASSERT_TRUE(r.ok);
  EXPECT_EQ(r.value, 7);
}

/// Under a lossy network a single-shot client fails sporadically; retries
/// with backoff mask the loss. Seeded, so the schedule is reproducible.
TEST(FaultInjection, RetriesMaskMessageLoss) {
  StoreOptions options;
  options.replicas = 3;
  FaultPlan plan;
  plan.drop = 0.15;
  plan.seed = 20260806;
  options.faults = plan;
  options.client_options.timeout = 80ms;
  options.client_options.max_attempts = 10;
  ReplicatedStore store(std::move(options));
  auto client = store.MakeClient();

  std::uint64_t attempts = 0;
  for (int i = 0; i < 10; ++i) {
    const ClientResult w = client->Write("key" + std::to_string(i), i);
    ASSERT_TRUE(w.ok) << "write " << i << ": " << ToString(w.status);
    attempts += w.attempts;
    const ClientResult r = client->Read("key" + std::to_string(i));
    ASSERT_TRUE(r.ok) << "read " << i << ": " << ToString(r.status);
    EXPECT_EQ(r.value, i);
    attempts += r.attempts;
  }
  EXPECT_GE(attempts, 20u);  // one per op, plus whatever loss forced
  EXPECT_GT(store.InjectedFaults().dropped, 0u);
  EXPECT_EQ(client->DivergencesObserved(), 0u);
}

/// The pipelined client under the same loss: every future resolves ok.
TEST(FaultInjection, AsyncRetriesMaskMessageLoss) {
  StoreOptions options;
  options.replicas = 3;
  FaultPlan plan;
  plan.drop = 0.15;
  plan.duplicate = 0.1;
  plan.seed = 42;
  options.faults = plan;
  ReplicatedStore store(std::move(options));
  ClientOptions copts;
  copts.timeout = 100ms;
  copts.max_attempts = 8;
  copts.window = 8;
  copts.max_batch = 4;
  auto client = store.MakeAsyncClient(copts);

  for (int i = 0; i < 30; ++i) {
    client->SubmitWrite("key" + std::to_string(i % 5), i);
  }
  ASSERT_TRUE(client->Drain());
  for (int i = 0; i < 5; ++i) {
    const ClientResult r = client->SubmitRead("key" + std::to_string(i)).Get();
    ASSERT_TRUE(r.ok) << ToString(r.status);
    // Per-key FIFO: the last write to key i%5==i is 25+i.
    EXPECT_EQ(r.value, 25 + i);
  }
  EXPECT_EQ(client->ClientStats().divergences_observed, 0u);
  EXPECT_EQ(client->ClientStats().ops_failed, 0u);
}

TEST(ClientStatus, ShutdownReportedWhenBusCloses) {
  Bus bus(2);
  ClientOptions copts;
  copts.timeout = 10s;
  QuorumClient client(bus, 1, {quorum::MajoritySystem(1)}, 0, copts);
  ClientResult r;
  std::thread reader([&] { r = client.Read("k"); });
  std::this_thread::sleep_for(20ms);
  bus.CloseAll();
  reader.join();
  EXPECT_FALSE(r.ok);
  EXPECT_EQ(r.status, ClientStatus::kShutdown);
}

// ---------------------------------------------------------------------------
// Hardened edge cases (foregrounded bugfixes).

/// Responses from sender ids outside the replica universe must be ignored
/// — before the fix they flowed into the bitmask/array bookkeeping and a
/// forged version could win version discovery.
TEST(ClientHardening, IgnoresResponsesFromOutOfUniverseSenders) {
  Bus bus(4);
  ClientOptions copts;
  copts.timeout = 200ms;
  QuorumClient client(bus, 3, {quorum::MajoritySystem(3)}, 0, copts);
  // Poisoned envelope from "node 7" (no such replica), plus a legitimate
  // read quorum at version 1. Pushed directly: the bus would never route
  // a from id it did not assign, but a buggy replica might.
  bus.MailboxOf(3).Push(Envelope{7, ReadResp(1, "k", 999, 777)});
  bus.MailboxOf(3).Push(Envelope{0, ReadResp(1, "k", 1, 7)});
  bus.MailboxOf(3).Push(Envelope{1, ReadResp(1, "k", 1, 7)});
  const ClientResult r = client.Read("k");
  ASSERT_TRUE(r.ok);
  EXPECT_EQ(r.version, 1u);
  EXPECT_EQ(r.value, 7);
}

/// The 64-replica ceiling is now an explicit construction-time invariant
/// in both clients, not silent shift UB at the first response.
TEST(ClientHardening, RejectsUniversesBeyondBitmaskWidth) {
  quorum::QuorumSystem big;
  big.name = "too-big";
  big.n = 65;
  big.has_read = [](std::uint64_t) { return true; };
  big.has_write = [](std::uint64_t) { return true; };
  Bus bus(66);
  EXPECT_THROW(QuorumClient(bus, 65, {big}, 0), InvariantViolation);
  EXPECT_THROW(
      AsyncQuorumClient(bus, 65, {big}, 0, ClientOptions{}),
      InvariantViolation);
}

/// Two copies of one version with different values is a Lemma 8 violation;
/// it must be surfaced via the divergence counter, not silently masked by
/// the tie-break (which stays deterministic: larger value wins, matching
/// the replica-side total order).
TEST(ClientHardening, DivergenceIsCountedNotMasked) {
  Bus bus(4);
  ReplicaServer r0(bus, 0), r1(bus, 1), r2(bus, 2);
  // Forge the divergence: version 1 holds value 10 at replica 0 but value
  // 20 at replicas 1 and 2 (a correct run can never produce this).
  bus.Send(3, 0, WriteReq(900, "k", 1, 10));
  bus.Send(3, 1, WriteReq(901, "k", 1, 20));
  bus.Send(3, 2, WriteReq(901, "k", 1, 20));
  for (int acks = 0; acks < 3; ++acks) {
    ASSERT_TRUE(bus.MailboxOf(3)
                    .Pop(std::chrono::steady_clock::now() + 1s)
                    .has_value());
  }
  // Crash replica 2 so the read quorum must be {0, 1} and the divergence
  // is guaranteed to be observed.
  bus.Crash(2);
  QuorumClient client(bus, 3, {quorum::MajoritySystem(3)}, 0);
  const ClientResult r = client.Read("k");
  ASSERT_TRUE(r.ok);
  EXPECT_EQ(client.DivergencesObserved(), 1u);
  EXPECT_EQ(r.value, 20);  // deterministic tie-break
  r0.Shutdown();
  r1.Shutdown();
  r2.Shutdown();
  bus.CloseAll();
}

/// Same forged divergence through the batched read path: the async client
/// counts it in its stats.
TEST(ClientHardening, AsyncDivergenceIsCounted) {
  Bus bus(4);
  ReplicaServer r0(bus, 0), r1(bus, 1), r2(bus, 2);
  bus.Send(3, 0, WriteReq(900, "k", 1, 10));
  bus.Send(3, 1, WriteReq(901, "k", 1, 20));
  bus.Send(3, 2, WriteReq(901, "k", 1, 20));
  for (int acks = 0; acks < 3; ++acks) {
    ASSERT_TRUE(bus.MailboxOf(3)
                    .Pop(std::chrono::steady_clock::now() + 1s)
                    .has_value());
  }
  bus.Crash(2);
  AsyncQuorumClient client(bus, 3, {quorum::MajoritySystem(3)}, 0,
                           ClientOptions{});
  const ClientResult r = client.SubmitRead("k").Get();
  ASSERT_TRUE(r.ok);
  EXPECT_EQ(client.ClientStats().divergences_observed, 1u);
  EXPECT_EQ(r.value, 20);
  r0.Shutdown();
  r1.Shutdown();
  r2.Shutdown();
  bus.CloseAll();
}

/// Read repair counts only write-backs the bus actually delivered; a
/// repair aimed at a crashed replica repaired nothing.
TEST(ClientHardening, RepairsToCrashedReplicasAreNotCounted) {
  Bus bus(4);
  ClientOptions copts;
  copts.timeout = 200ms;
  copts.read_repair = true;
  QuorumClient client(bus, 3, {quorum::MajoritySystem(3)}, 0, copts);
  bus.Crash(0);
  // Forged read quorum {0, 1}: replica 0 is stale (version 0) — but also
  // down, so its repair is dropped by the bus and must not count.
  bus.MailboxOf(3).Push(Envelope{0, ReadResp(1, "k", 0, 0)});
  bus.MailboxOf(3).Push(Envelope{1, ReadResp(1, "k", 1, 7)});
  ClientResult r = client.Read("k");
  ASSERT_TRUE(r.ok);
  EXPECT_EQ(r.value, 7);
  EXPECT_EQ(client.RepairsIssued(), 0u);

  // Same stale quorum with replica 0 back up: the repair is delivered and
  // counted.
  bus.Recover(0);
  bus.MailboxOf(3).Push(Envelope{0, ReadResp(2, "k", 0, 0)});
  bus.MailboxOf(3).Push(Envelope{1, ReadResp(2, "k", 1, 7)});
  r = client.Read("k");
  ASSERT_TRUE(r.ok);
  EXPECT_EQ(client.RepairsIssued(), 1u);
}

// ---------------------------------------------------------------------------
// Replica-side idempotence of duplicated / re-delivered writes.

/// A duplicated kBatchWriteReq is acked twice but applied once: no second
/// history entry (and, via the same accepted-set, no second WAL record).
TEST(ReplicaIdempotence, DuplicatedBatchWriteDoesNotDoubleApply) {
  Bus bus(2);
  ReplicaServer replica(bus, 0, storage::MakeMemoryBackend(),
                        /*record_history=*/true);
  RtMessage m;
  m.kind = RtMessage::Kind::kBatchWriteReq;
  m.op = 1;
  m.batch = {BatchEntry{1, "a", 1, 5}, BatchEntry{2, "b", 1, 6}};
  bus.Send(1, 0, m);
  bus.Send(1, 0, m);  // exact re-delivery
  for (int acks = 0; acks < 2; ++acks) {
    auto e = bus.MailboxOf(1).Pop(std::chrono::steady_clock::now() + 1s);
    ASSERT_TRUE(e.has_value());
    EXPECT_EQ(e->msg.kind, RtMessage::Kind::kBatchWriteAck);
  }
  const ReplicaSnapshot snap = replica.Peek();
  EXPECT_EQ(snap.history.size(), 2u);  // one accepted apply per key
  EXPECT_EQ(snap.image.data.at("a").version, 1u);
  EXPECT_EQ(snap.image.data.at("a").value, 5);
  EXPECT_EQ(snap.image.data.at("b").value, 6);
  replica.Shutdown();
  bus.CloseAll();
}

struct ScratchDir {
  explicit ScratchDir(const std::string& tag)
      : path((fs::path("runtime_faults_scratch") / tag).string()) {
    fs::remove_all(path);
    fs::create_directories(path);
  }
  ~ScratchDir() { fs::remove_all(path); }
  std::string path;
};

/// With every message duplicated, each replica receives every install
/// twice — and must log it exactly once (no WAL double-log).
TEST(ReplicaIdempotence, DuplicatedWritesDoNotDoubleLog) {
  ScratchDir dir("dup_no_double_log");
  StoreOptions options;
  options.replicas = 3;
  storage::DurabilityOptions durability;
  durability.directory = dir.path;
  options.durability = durability;
  FaultPlan plan;
  plan.duplicate = 1.0;
  options.faults = plan;
  // The 15-record count below assumes every install reaches all 3
  // replicas — full fan-out, not a minimal write quorum.
  options.client_options.target_minimal = false;
  ReplicatedStore store(std::move(options));
  auto client = store.MakeClient();
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(client->Write("key" + std::to_string(i), i).ok);
  }
  // Every broadcast reaches all 3 replicas (twice); 5 unique installs per
  // replica = 15 records total, eventually — and never more.
  const auto deadline = std::chrono::steady_clock::now() + 5s;
  while (store.TotalStorageStats().records_appended < 15) {
    ASSERT_LT(std::chrono::steady_clock::now(), deadline)
        << "replicas never logged 15 records";
    std::this_thread::sleep_for(1ms);
  }
  std::this_thread::sleep_for(20ms);  // let any (wrong) extra log land
  EXPECT_EQ(store.TotalStorageStats().records_appended, 15u);
  EXPECT_GT(store.InjectedFaults().duplicated, 0u);
}

}  // namespace
}  // namespace qcnt::runtime
