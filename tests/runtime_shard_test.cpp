// Tests for the replica's one loop over one chain (the suite names date
// from when a replica could stripe its keys over several shards): the
// batched-vs-sequential equivalence property (identical per-operation
// results, final images, and per-item version sequences), fail-stop under
// Crash hammered mid-batch, one reply and one commit pass per batch,
// config writes fencing older batches before the ack, the refusal chunk
// for a stripe index a one-chain donor does not have, and the counters
// surfaced through Peek().
#include <gtest/gtest.h>

#include <filesystem>
#include <map>
#include <thread>

#include "common/rng.hpp"
#include "runtime/store.hpp"

namespace qcnt::runtime {
namespace {

namespace fs = std::filesystem;
using namespace std::chrono_literals;

/// Project a replica's applied-write history onto one key.
std::vector<std::pair<std::uint64_t, std::int64_t>> KeyHistory(
    const ReplicaSnapshot& snap, const std::string& key) {
  std::vector<std::pair<std::uint64_t, std::int64_t>> out;
  for (const AppliedWrite& w : snap.history) {
    if (w.key == key) out.emplace_back(w.version, w.value);
  }
  return out;
}

/// The central equivalence property: a random workload against a
/// pipelined, batched store must produce the same per-operation results,
/// final replica images, and per-item version sequences as a sequential
/// store — batching may change interleavings but never anything Lemma 7/8
/// constrain.
void RunBatchedEquivalence(std::size_t iterations) {
  constexpr std::size_t kReplicas = 3;
  const std::vector<std::string> keys = {"a", "b", "c", "d",
                                         "e", "f", "g", "h"};

  StoreOptions seq_options;
  seq_options.replicas = kReplicas;
  seq_options.record_applied_history = true;
  ReplicatedStore seq_store(std::move(seq_options));
  auto seq_client = seq_store.MakeClient();

  StoreOptions batched_options;
  batched_options.replicas = kReplicas;
  batched_options.record_applied_history = true;
  ReplicatedStore batched_store(std::move(batched_options));
  auto batched_client = batched_store.MakeAsyncClient(
      ClientOptions{.window = 16, .max_batch = 8});

  std::vector<std::pair<OpFuture, ClientResult>> pending;
  auto drain_and_compare = [&] {
    ASSERT_TRUE(batched_client->Drain());
    for (auto& [future, want] : pending) {
      ASSERT_TRUE(future.Ready());
      const ClientResult got = future.Get();
      ASSERT_EQ(got.ok, want.ok);
      ASSERT_EQ(got.value, want.value);
      ASSERT_EQ(got.version, want.version);
    }
    pending.clear();
  };

  auto compare_replica_states = [&] {
    for (std::size_t r = 0; r < kReplicas; ++r) {
      const ReplicaSnapshot seq_snap = seq_store.ReplicaPeek(r);
      const ReplicaSnapshot batched_snap = batched_store.ReplicaPeek(r);
      for (const std::string& key : keys) {
        const auto si = seq_snap.image.data.find(key);
        const auto bi = batched_snap.image.data.find(key);
        const storage::Versioned sv =
            si == seq_snap.image.data.end() ? storage::Versioned{}
                                            : si->second;
        const storage::Versioned bv =
            bi == batched_snap.image.data.end() ? storage::Versioned{}
                                              : bi->second;
        ASSERT_EQ(sv.version, bv.version)
            << "replica " << r << " key " << key;
        ASSERT_EQ(sv.value, bv.value) << "replica " << r << " key " << key;
        ASSERT_EQ(KeyHistory(seq_snap, key), KeyHistory(batched_snap, key))
            << "replica " << r << " key " << key;
      }
    }
  };

  qcnt::Rng rng(20260807);
  bool crashed = false;
  for (std::size_t i = 0; i < iterations; ++i) {
    // Crash/recover a replica at drain boundaries, identically in both
    // stores, so the missed-message sets match exactly and the images
    // stay comparable while being non-trivial.
    if (i == iterations / 3 || i == (2 * iterations) / 3) {
      drain_and_compare();
      if (!crashed) {
        seq_store.Crash(2);
        batched_store.Crash(2);
      } else {
        seq_store.Recover(2);
        batched_store.Recover(2);
      }
      crashed = !crashed;
    }

    const std::string& key = keys[rng.Index(keys.size())];
    if (rng.Chance(0.3)) {
      const ClientResult want = seq_client->Read(key);
      pending.emplace_back(batched_client->SubmitRead(key), want);
    } else {
      const auto value = static_cast<std::int64_t>(i + 1);
      const ClientResult want = seq_client->Write(key, value);
      pending.emplace_back(batched_client->SubmitWrite(key, value), want);
    }

    if (pending.size() >= 16) drain_and_compare();
    if ((i + 1) % 200 == 0) {
      drain_and_compare();
      compare_replica_states();
    }
  }
  drain_and_compare();
  compare_replica_states();
}

TEST(ShardedEquivalence, OneShardMatchesSequential) {
  RunBatchedEquivalence(600);
}

// Regression (atomic Crash): hammer Crash while batches are streaming at
// a replica. The crash must cut the stream atomically — no hung crash
// drain, no lost acked writes, and a clean rejoin on Recover.
TEST(ShardedCrash, CrashHammeredDuringBatchesOneShard) {
  constexpr std::size_t kRounds = 12;
  constexpr std::size_t kWritesPerRound = 48;
  std::vector<std::string> keys;
  for (int i = 0; i < 12; ++i) keys.push_back("key" + std::to_string(i));

  StoreOptions options;
  options.replicas = 3;
  ReplicatedStore store(std::move(options));
  auto client = store.MakeAsyncClient(
      ClientOptions{.window = 64, .max_batch = 16});

  std::map<std::string, std::int64_t> expected;
  std::vector<OpFuture> futures;
  std::int64_t next_value = 0;
  for (std::size_t round = 0; round < kRounds; ++round) {
    // First half of the round's writes, then Crash lands mid-pipeline:
    // batches are sitting in the replica's mailbox right now.
    for (std::size_t i = 0; i < kWritesPerRound; ++i) {
      if (i == kWritesPerRound / 2) store.Crash(2);
      const std::string& key = keys[(next_value + i) % keys.size()];
      futures.push_back(client->SubmitWrite(key, ++next_value));
      expected[key] = next_value;
    }
    // Majority {0, 1} must keep acking everything with 2 dead.
    ASSERT_TRUE(client->Drain()) << "round " << round;
    store.Recover(2);
  }
  ASSERT_TRUE(client->Drain());
  for (auto& f : futures) ASSERT_TRUE(f.Get().ok);

  // Every acked value survives the whole crash storm.
  auto reader = store.MakeClient();
  for (const auto& [key, value] : expected) {
    const ClientResult r = reader->Read(key);
    ASSERT_TRUE(r.ok) << key;
    EXPECT_EQ(r.value, value) << key;
  }
}

struct ScratchDir {
  explicit ScratchDir(const std::string& name)
      : path("runtime_shard_scratch/" + name) {
    fs::remove_all(path);
    fs::create_directories(path);
  }
  ~ScratchDir() { fs::remove_all(path); }
  std::string path;
};

/// `n` keys of the form "key<i>".
std::vector<std::string> Keys(std::size_t n) {
  std::vector<std::string> out;
  for (std::size_t i = 0; i < n; ++i) out.push_back("key" + std::to_string(i));
  return out;
}

/// Send one raw message from the store's coordinator slot straight to a
/// replica (bypassing the client layer) and return the first reply.
RtMessage RoundTrip(ReplicatedStore& store, NodeId replica, RtMessage req) {
  const NodeId me = store.CoordinatorId();
  EXPECT_TRUE(store.TransportRef().Send(me, replica, std::move(req)));
  auto reply = store.TransportRef().MailboxOf(me).Pop(
      std::chrono::steady_clock::now() + 5s);
  EXPECT_TRUE(reply.has_value());
  return reply ? reply->msg : RtMessage{};
}

RtMessage BatchWrite(const std::vector<std::string>& keys,
                     std::uint64_t version, std::uint64_t generation) {
  RtMessage req;
  req.kind = RtMessage::Kind::kBatchWriteReq;
  req.op = 1;
  req.generation = generation;
  for (std::size_t i = 0; i < keys.size(); ++i) {
    req.batch.push_back(BatchEntry{i + 1, keys[i], version,
                                   static_cast<std::int64_t>(i + 10)});
  }
  return req;
}

/// A one-replica store under group commit.
StoreOptions DurableOptions(const std::string& directory) {
  StoreOptions options;
  options.replicas = 1;
  options.durability = storage::DurabilityOptions{
      .directory = directory,
      .fsync = storage::FsyncPolicy::kGroupCommit,
      .group_commit_window = std::chrono::microseconds(2000),
  };
  return options;
}

/// Wait for replica 0's group-commit pass after `passes_before`, then
/// confirm no further pass fires once the dirt is gone.
void ExpectOneCommitPass(ReplicatedStore& store, std::uint64_t passes_before) {
  const auto deadline = std::chrono::steady_clock::now() + 5s;
  while (store.ReplicaCommitPasses(0) < passes_before + 1 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(1ms);
  }
  ASSERT_EQ(store.ReplicaCommitPasses(0), passes_before + 1);
  std::this_thread::sleep_for(20ms);  // ≫ the 2 ms window
  EXPECT_EQ(store.ReplicaCommitPasses(0), passes_before + 1)
      << "a second fsync decision fired with nothing dirty";
}

// A batch is one mailbox handoff in, counted once in the replica's one
// counter slot, and under group commit costs one fsync decision that
// syncs the single dirty segment once.
TEST(ShardedStore, SingleShardBatchIsOneHandoffAndOneFsyncDecision) {
  ScratchDir scratch("single");
  ReplicatedStore store(DurableOptions(scratch.path));
  const std::vector<std::string> keys = Keys(4);

  const BatchStats before = store.ReplicaBatchStats(0);
  ASSERT_EQ(before.per_shard.size(), 1u);
  const std::uint64_t passes_before = store.ReplicaCommitPasses(0);

  const RtMessage ack = RoundTrip(store, 0, BatchWrite(keys, 1, 0));
  ASSERT_EQ(ack.kind, RtMessage::Kind::kBatchWriteAck);
  ASSERT_EQ(ack.batch.size(), keys.size());

  const BatchStats after = store.ReplicaBatchStats(0);
  EXPECT_EQ(after.mailbox_handoffs - before.mailbox_handoffs, 1u)
      << "whole batch must be one mailbox handoff";
  EXPECT_EQ(after.per_shard[0].batches - before.per_shard[0].batches, 1u);

  ExpectOneCommitPass(store, passes_before);
  EXPECT_EQ(store.ReplicaStorageStats(0).fsyncs, 1u)
      << "one dirty segment, one fsync";
}

// One batch of many keys to a durable replica is one message all the way
// through: one mailbox handoff in, one kBatchWriteAck out (at most one
// reply per replica per batch), one WAL append, and under group commit
// one fsync decision. Counter-based via ReplicaBatchStats (direct atomic
// reads — no peek traffic perturbing the handoff counts).
TEST(ShardedStore, CrossShardBatchIsOneAckOneHandoffOneCommitPass) {
  ScratchDir scratch("fastpath");
  ReplicatedStore store(DurableOptions(scratch.path));
  const std::vector<std::string> keys = Keys(8);

  const BatchStats before = store.ReplicaBatchStats(0);
  const std::uint64_t appends_before =
      store.ReplicaStorageStats(0).batch_appends;
  const std::uint64_t passes_before = store.ReplicaCommitPasses(0);

  const RtMessage ack = RoundTrip(store, 0, BatchWrite(keys, 1, 0));
  ASSERT_EQ(ack.kind, RtMessage::Kind::kBatchWriteAck);
  ASSERT_EQ(ack.batch.size(), keys.size()) << "one ack covers every entry";
  for (const BatchEntry& e : ack.batch) EXPECT_EQ(e.value, 0) << e.op;
  EXPECT_FALSE(store.TransportRef()
                   .MailboxOf(store.CoordinatorId())
                   .Pop(std::chrono::steady_clock::now() + 50ms)
                   .has_value())
      << "a second reply arrived for one batch";

  const BatchStats after = store.ReplicaBatchStats(0);
  EXPECT_EQ(after.mailbox_handoffs - before.mailbox_handoffs, 1u);
  EXPECT_EQ(after.per_shard[0].batches - before.per_shard[0].batches, 1u);
  EXPECT_EQ(after.per_shard[0].ops - before.per_shard[0].ops, keys.size());
  EXPECT_EQ(store.ReplicaStorageStats(0).batch_appends - appends_before, 1u)
      << "one WAL append per batch";

  // Exactly one group-commit pass serves the whole batch.
  ExpectOneCommitPass(store, passes_before);
  EXPECT_EQ(store.ReplicaStorageStats(0).fsyncs, 1u);
}

// A config write acked by a replica implies it applied the stamp: writes
// under the new config proceed, the peek carries the new generation, and
// every entry of a batch staged under the old generation is fenced.
TEST(ShardedStore, ReconfigureBarriersAcrossAllShards) {
  StoreOptions options;
  options.replicas = 3;
  options.configs = {quorum::MajoritySystem(3), quorum::MajoritySystem(3)};
  ReplicatedStore store(std::move(options));
  auto client = store.MakeClient();
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(client->Write("key" + std::to_string(i), i).ok);
  }
  ASSERT_TRUE(client->Reconfigure(1).ok);
  EXPECT_EQ(client->BelievedConfig(), 1u);
  for (std::size_t r = 0; r < store.ReplicaCount(); ++r) {
    const ReplicaSnapshot snap = store.ReplicaPeek(r);
    EXPECT_EQ(snap.image.generation, 1u) << "replica " << r;
    EXPECT_EQ(snap.image.config_id, 1u) << "replica " << r;
  }
  // Re-send the same stamp raw (a no-op where the client's copy already
  // landed, but acked either way), then, once it is acked, a
  // generation-0 batch must be fenced entry by entry.
  const std::vector<std::string> keys = Keys(4);
  for (NodeId r = 0; r < store.ReplicaCount(); ++r) {
    RtMessage stamp;
    stamp.kind = RtMessage::Kind::kConfigWriteReq;
    stamp.op = 7;
    stamp.generation = 1;
    stamp.config_id = 1;
    ASSERT_EQ(RoundTrip(store, r, std::move(stamp)).kind,
              RtMessage::Kind::kConfigWriteAck);
    const RtMessage ack = RoundTrip(store, r, BatchWrite(keys, 100, 0));
    ASSERT_EQ(ack.kind, RtMessage::Kind::kBatchWriteAck);
    EXPECT_EQ(ack.generation, 1u);
    ASSERT_EQ(ack.batch.size(), keys.size());
    for (std::size_t i = 0; i < keys.size(); ++i) {
      EXPECT_EQ(ack.batch[i].value, 1)
          << "replica " << r << " entry " << i << " kept the old stamp";
    }
  }
  // The store keeps working under the new configuration.
  ASSERT_TRUE(client->Write("after", 99).ok);
  EXPECT_EQ(client->Read("after").value, 99);
}

// A catchup request naming a nonzero stripe index (a puller that expects
// a striped layout) is answered with an empty, final chunk: the donor
// keeps one chain and never serves its image under another index.
TEST(ShardedStore, CatchupBeyondLayoutGetsRefusalChunk) {
  StoreOptions options;
  options.replicas = 1;
  ReplicatedStore store(std::move(options));
  auto client = store.MakeClient();
  ASSERT_TRUE(client->Write("x", 1).ok);
  RtMessage req;
  req.kind = RtMessage::Kind::kCatchupReq;
  req.op = 3;
  req.version = 1;  // the only chain is index 0
  req.value = 16;
  const RtMessage chunk = RoundTrip(store, 0, req);
  ASSERT_EQ(chunk.kind, RtMessage::Kind::kCatchupChunk);
  EXPECT_EQ(chunk.op, 3u);
  EXPECT_TRUE(chunk.batch.empty());
  EXPECT_EQ(chunk.value, 0);

  // Index 0 is the chain itself: the same request serves the key.
  req.op = 4;
  req.version = 0;
  const RtMessage served = RoundTrip(store, 0, std::move(req));
  ASSERT_EQ(served.kind, RtMessage::Kind::kCatchupChunk);
  EXPECT_EQ(served.op, 4u);
  ASSERT_EQ(served.batch.size(), 1u);
  EXPECT_EQ(served.batch[0].key, "x");
}

// The replica's counters (ops, batches, fsyncs, queue peak) surface
// through Peek() in the one `per_shard` slot benches still read.
TEST(ShardedStore, PerShardCountersSurfaceThroughPeek) {
  StoreOptions options;
  options.replicas = 1;
  ReplicatedStore store(std::move(options));
  auto client = store.MakeAsyncClient(
      ClientOptions{.window = 32, .max_batch = 8});
  constexpr int kKeys = 64;
  for (int i = 0; i < kKeys; ++i) {
    client->SubmitWrite("key" + std::to_string(i), i);
  }
  ASSERT_TRUE(client->Drain());

  const ReplicaSnapshot snap = store.ReplicaPeek(0);
  ASSERT_EQ(snap.stats.per_shard.size(), 1u);
  const ShardCounters& c = snap.stats.per_shard[0];
  // Each op runs a read probe and a write install: ≥ 2 applied ops each.
  EXPECT_GE(c.ops, static_cast<std::uint64_t>(2 * kKeys));
  EXPECT_GT(c.queue_peak, 0u);
  EXPECT_EQ(c.fsyncs, 0u);  // memory backend
  EXPECT_GT(snap.stats.batches_applied, 0u);
  EXPECT_EQ(c.batches, snap.stats.batches_applied);

  // The aggregate surface carries the same slot.
  const BatchStats total = store.TotalBatchStats();
  ASSERT_EQ(total.per_shard.size(), 1u);
  EXPECT_EQ(total.batches_applied, snap.stats.batches_applied);
}

TEST(ShardedStore, PerShardFsyncCountersUnderDurability) {
  ScratchDir scratch("fsync");
  const std::string key_a = "key_a";
  const std::string key_b = "key_b";

  StoreOptions options;
  options.replicas = 1;
  options.durability = storage::DurabilityOptions{
      .directory = scratch.path,
      .fsync = storage::FsyncPolicy::kAlways,
  };
  ReplicatedStore store(std::move(options));
  auto client = store.MakeClient();
  ASSERT_TRUE(client->Write(key_a, 1).ok);
  ASSERT_TRUE(client->Write(key_a, 2).ok);
  ASSERT_TRUE(client->Write(key_b, 3).ok);

  const BatchStats stats = store.ReplicaBatchStats(0);
  ASSERT_EQ(stats.per_shard.size(), 1u);
  // kAlways: one fsync per appended record.
  EXPECT_EQ(stats.per_shard[0].fsyncs, 3u);
}

// Peeking a replica keeps working while the node is bus-crashed (memory
// mode: the loop stays up) and crashes race the peek requests.
TEST(ShardedStore, PeekSurvivesConcurrentCrashes) {
  StoreOptions options;
  options.replicas = 3;
  ReplicatedStore store(std::move(options));
  auto client = store.MakeClient();
  for (int i = 0; i < 16; ++i) {
    ASSERT_TRUE(client->Write("key" + std::to_string(i), i).ok);
  }
  std::atomic<bool> stop{false};
  std::thread chaos([&] {
    while (!stop.load()) {
      store.Crash(2);
      std::this_thread::sleep_for(1ms);
      store.Recover(2);
      std::this_thread::sleep_for(1ms);
    }
  });
  for (int i = 0; i < 50; ++i) {
    const ReplicaSnapshot snap = store.ReplicaPeek(2);
    EXPECT_LE(snap.image.data.size(), 17u);
  }
  stop.store(true);
  chaos.join();
}

}  // namespace
}  // namespace qcnt::runtime
