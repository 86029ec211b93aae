// Tests for sharded replicas (shards are the durable layout; one loop
// thread per replica serves them all): key→shard routing stability, the
// sequential-vs-sharded equivalence property (identical per-operation
// results, final images, and per-item version sequences with shards ∈
// {1, 2, 4, 8}), atomic fail-stop of all shards under Crash hammered
// mid-batch, one reply and one commit pass per cross-shard batch, config
// writes stamping every shard before the ack, and the per-shard counters
// surfaced through Peek().
#include <gtest/gtest.h>

#include <filesystem>
#include <map>
#include <thread>

#include "common/rng.hpp"
#include "runtime/sharding.hpp"
#include "runtime/store.hpp"

namespace qcnt::runtime {
namespace {

namespace fs = std::filesystem;
using namespace std::chrono_literals;

TEST(Sharding, HashIsPinnedAcrossProcesses) {
  // Durable shard segments are only self-consistent if key→shard never
  // changes between runs, so the hash is pinned to FNV-1a 64 — these are
  // its published constants, not values we measured once and froze.
  EXPECT_EQ(ShardHash(""), 14695981039346656037ull);
  EXPECT_EQ(ShardHash("a"), 0xaf63dc4c8601ec8cull);
  EXPECT_EQ(ShardForKey("anything", 1), 0u);
}

TEST(Sharding, SpreadsKeysOverAllShards) {
  constexpr std::size_t kShards = 4;
  std::vector<std::size_t> hits(kShards, 0);
  for (int i = 0; i < 256; ++i) {
    ++hits[ShardForKey("key" + std::to_string(i), kShards)];
  }
  for (std::size_t s = 0; s < kShards; ++s) {
    EXPECT_GT(hits[s], 0u) << "shard " << s << " owns no keys";
  }
}

/// Project a replica's applied-write history onto one key.
std::vector<std::pair<std::uint64_t, std::int64_t>> KeyHistory(
    const ReplicaSnapshot& snap, const std::string& key) {
  std::vector<std::pair<std::uint64_t, std::int64_t>> out;
  for (const AppliedWrite& w : snap.history) {
    if (w.key == key) out.emplace_back(w.version, w.value);
  }
  return out;
}

/// The central equivalence property, parameterized by shard count: a
/// random workload against a sharded, batched store must produce the same
/// per-operation results, final replica images, and per-item version
/// sequences as an unsharded sequential store — sharding may change
/// thread interleavings but never anything Lemma 7/8 constrain.
void RunShardEquivalence(std::size_t shards, std::size_t iterations) {
  constexpr std::size_t kReplicas = 3;
  const std::vector<std::string> keys = {"a", "b", "c", "d",
                                         "e", "f", "g", "h"};

  StoreOptions seq_options;
  seq_options.replicas = kReplicas;
  seq_options.shards_per_replica = 1;
  seq_options.record_applied_history = true;
  ReplicatedStore seq_store(std::move(seq_options));
  auto seq_client = seq_store.MakeClient();

  StoreOptions shard_options;
  shard_options.replicas = kReplicas;
  shard_options.shards_per_replica = shards;
  shard_options.record_applied_history = true;
  ReplicatedStore shard_store(std::move(shard_options));
  ASSERT_EQ(shard_store.ShardsPerReplica(), shards);
  auto shard_client = shard_store.MakeAsyncClient(
      ClientOptions{.window = 16, .max_batch = 8});

  std::vector<std::pair<OpFuture, ClientResult>> pending;
  auto drain_and_compare = [&] {
    ASSERT_TRUE(shard_client->Drain());
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
      const ReplicaSnapshot shard_snap = shard_store.ReplicaPeek(r);
      for (const std::string& key : keys) {
        const auto si = seq_snap.image.data.find(key);
        const auto bi = shard_snap.image.data.find(key);
        const storage::Versioned sv =
            si == seq_snap.image.data.end() ? storage::Versioned{}
                                            : si->second;
        const storage::Versioned bv =
            bi == shard_snap.image.data.end() ? storage::Versioned{}
                                              : bi->second;
        ASSERT_EQ(sv.version, bv.version)
            << "replica " << r << " key " << key;
        ASSERT_EQ(sv.value, bv.value) << "replica " << r << " key " << key;
        ASSERT_EQ(KeyHistory(seq_snap, key), KeyHistory(shard_snap, key))
            << "replica " << r << " key " << key;
      }
    }
  };

  qcnt::Rng rng(20260806 + shards);
  bool crashed = false;
  for (std::size_t i = 0; i < iterations; ++i) {
    // Crash/recover a replica at drain boundaries, identically in both
    // stores, so the missed-message sets match exactly and the images
    // stay comparable while being non-trivial.
    if (i == iterations / 3 || i == (2 * iterations) / 3) {
      drain_and_compare();
      if (!crashed) {
        seq_store.Crash(2);
        shard_store.Crash(2);
      } else {
        seq_store.Recover(2);
        shard_store.Recover(2);
      }
      crashed = !crashed;
    }

    const std::string& key = keys[rng.Index(keys.size())];
    if (rng.Chance(0.3)) {
      const ClientResult want = seq_client->Read(key);
      pending.emplace_back(shard_client->SubmitRead(key), want);
    } else {
      const auto value = static_cast<std::int64_t>(i + 1);
      const ClientResult want = seq_client->Write(key, value);
      pending.emplace_back(shard_client->SubmitWrite(key, value), want);
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
  RunShardEquivalence(1, 600);
}

// Multi-shard replicas multiplex every shard on the one loop, which
// re-resolves each entry's shard itself: per-key results, images, and
// version sequences must still match the sequential store.
TEST(ShardedEquivalence, TwoShardsMatchSequential) {
  RunShardEquivalence(2, 600);
}

TEST(ShardedEquivalence, FourShardsMatchSequential) {
  RunShardEquivalence(4, 600);
}

// All eight shards on the replica's one loop thread.
TEST(ShardedEquivalence, EightShardsOneWorkerMatchesSequential) {
  RunShardEquivalence(8, 400);
}

// Regression (shard-aware atomic Crash): hammer Crash while batches
// spanning several shards are streaming at a replica. The crash must kill
// all shards atomically — no hung crash drain, no lost acked writes, and
// a clean rejoin on Recover. Swept over the shard layouts {1, 2, 4, 8}.
void RunCrashHammer(std::size_t shards) {
  constexpr std::size_t kRounds = 12;
  constexpr std::size_t kWritesPerRound = 48;
  std::vector<std::string> keys;
  for (int i = 0; i < 12; ++i) keys.push_back("key" + std::to_string(i));

  StoreOptions options;
  options.replicas = 3;
  options.shards_per_replica = shards;
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

TEST(ShardedCrash, CrashHammeredDuringBatchesOneShard) { RunCrashHammer(1); }

TEST(ShardedCrash, CrashHammeredDuringSplitBatchesTwoShards) {
  RunCrashHammer(2);
}

TEST(ShardedCrash, CrashHammeredDuringSplitBatches) { RunCrashHammer(4); }

TEST(ShardedCrash, CrashHammeredDuringSplitBatchesEightShards) {
  RunCrashHammer(8);
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

/// The first `per_shard` keys of the form "key<i>" on each of `shards`
/// shards, grouped by shard.
std::vector<std::string> KeysOnEveryShard(std::size_t shards,
                                          std::size_t per_shard) {
  std::vector<std::vector<std::string>> by_shard(shards);
  std::size_t filled = 0;
  for (int i = 0; filled < shards; ++i) {
    const std::string k = "key" + std::to_string(i);
    auto& bucket = by_shard[ShardForKey(k, shards)];
    if (bucket.size() == per_shard) continue;
    bucket.push_back(k);
    if (bucket.size() == per_shard) ++filled;
  }
  std::vector<std::string> out;
  for (const auto& bucket : by_shard) {
    out.insert(out.end(), bucket.begin(), bucket.end());
  }
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

/// A one-replica store under group commit with `shards` shards.
StoreOptions DurableShardedOptions(const std::string& directory,
                                   std::size_t shards) {
  StoreOptions options;
  options.replicas = 1;
  options.shards_per_replica = shards;
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

// A batch whose keys all hash to one shard is one mailbox handoff, touches
// only that shard's counters, and under group commit costs one cross-shard
// fsync decision that syncs the single dirty segment once.
TEST(ShardedStore, SingleShardBatchIsOneHandoffAndOneFsyncDecision) {
  ScratchDir scratch("single");
  constexpr std::size_t kShards = 4;
  ReplicatedStore store(DurableShardedOptions(scratch.path, kShards));

  const std::size_t target = ShardForKey("key0", kShards);
  std::vector<std::string> keys;
  for (int i = 0; keys.size() < 4; ++i) {
    const std::string k = "key" + std::to_string(i);
    if (ShardForKey(k, kShards) == target) keys.push_back(k);
  }

  const BatchStats before = store.ReplicaBatchStats(0);
  ASSERT_EQ(before.per_shard.size(), kShards);
  const std::uint64_t passes_before = store.ReplicaCommitPasses(0);

  const RtMessage ack = RoundTrip(store, 0, BatchWrite(keys, 1, 0));
  ASSERT_EQ(ack.kind, RtMessage::Kind::kBatchWriteAck);
  ASSERT_EQ(ack.batch.size(), keys.size());

  const BatchStats after = store.ReplicaBatchStats(0);
  EXPECT_EQ(after.mailbox_handoffs - before.mailbox_handoffs, 1u)
      << "whole batch must be one mailbox handoff";
  for (std::size_t s = 0; s < kShards; ++s) {
    const std::uint64_t want = s == target ? 1u : 0u;
    EXPECT_EQ(after.per_shard[s].batches - before.per_shard[s].batches, want)
        << "shard " << s;
  }

  ExpectOneCommitPass(store, passes_before);
  EXPECT_EQ(store.ReplicaStorageStats(0).fsyncs, 1u)
      << "one dirty segment, one fsync";
}

// One batch spanning every shard of a durable replica is one message all
// the way through: one mailbox handoff in, one kBatchWriteAck out (at
// most one reply per replica per batch), and under group commit one
// cross-shard fsync decision that syncs each dirty shard segment once.
// Counter-based via ReplicaBatchStats (direct atomic reads — no peek
// traffic perturbing the handoff counts).
TEST(ShardedStore, CrossShardBatchIsOneAckOneHandoffOneCommitPass) {
  ScratchDir scratch("fastpath");
  constexpr std::size_t kShards = 4;
  ReplicatedStore store(DurableShardedOptions(scratch.path, kShards));
  const std::vector<std::string> keys = KeysOnEveryShard(kShards, 2);

  const BatchStats before = store.ReplicaBatchStats(0);
  ASSERT_EQ(before.per_shard.size(), kShards);
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
  for (std::size_t s = 0; s < kShards; ++s) {
    EXPECT_EQ(after.per_shard[s].batches - before.per_shard[s].batches, 1u)
        << "shard " << s;
    EXPECT_EQ(after.per_shard[s].ops - before.per_shard[s].ops, 2u)
        << "shard " << s;
  }

  // Exactly one group-commit pass serves the whole batch.
  ExpectOneCommitPass(store, passes_before);
  EXPECT_EQ(store.ReplicaStorageStats(0).fsyncs, kShards)
      << "one fsync per dirty shard segment";
}

// A config write acked by a sharded replica implies *every* shard applied
// the stamp: writes under the new config proceed, the merged peek carries
// the new generation, and a batch staged under the old generation is
// fenced on every shard.
TEST(ShardedStore, ReconfigureBarriersAcrossAllShards) {
  constexpr std::size_t kShards = 4;
  StoreOptions options;
  options.replicas = 3;
  options.shards_per_replica = kShards;
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
  // Per shard: re-send the same stamp raw (a no-op where the client's copy
  // already landed, but acked either way), then, once it is acked, a
  // generation-0 batch with keys on every shard must be fenced entry by
  // entry — each entry is checked against its own shard's stamp.
  const std::vector<std::string> keys = KeysOnEveryShard(kShards, 1);
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
    ASSERT_EQ(ack.batch.size(), kShards);
    for (std::size_t s = 0; s < kShards; ++s) {
      EXPECT_EQ(ack.batch[s].value, 1)
          << "replica " << r << " shard " << s << " kept the old stamp";
    }
  }
  // The store keeps working under the new configuration.
  ASSERT_TRUE(client->Write("after", 99).ok);
  EXPECT_EQ(client->Read("after").value, 99);
}

// Streaming catchup names a shard per request; one beyond the donor's
// layout is answered with an empty chunk carrying the donor's shard count,
// which the puller turns into a typed join refusal.
TEST(ShardedStore, CatchupBeyondLayoutGetsRefusalChunk) {
  StoreOptions options;
  options.replicas = 1;
  options.shards_per_replica = 4;
  ReplicatedStore store(std::move(options));
  auto client = store.MakeClient();
  ASSERT_TRUE(client->Write("x", 1).ok);
  RtMessage req;
  req.kind = RtMessage::Kind::kCatchupReq;
  req.op = 3;
  req.version = 4;  // shards are 0..3
  req.value = 16;
  const RtMessage chunk = RoundTrip(store, 0, std::move(req));
  ASSERT_EQ(chunk.kind, RtMessage::Kind::kCatchupChunk);
  EXPECT_EQ(chunk.op, 3u);
  EXPECT_EQ(chunk.version, 4u);
  EXPECT_TRUE(chunk.batch.empty());
  EXPECT_EQ(chunk.value, 0);
}

// Satellite: per-shard counters (ops, batches, fsyncs, queue peak) are
// surfaced through Peek() so benches can report shard balance.
TEST(ShardedStore, PerShardCountersSurfaceThroughPeek) {
  constexpr std::size_t kShards = 4;
  StoreOptions options;
  options.replicas = 1;
  options.shards_per_replica = kShards;
  ReplicatedStore store(std::move(options));
  auto client = store.MakeAsyncClient(
      ClientOptions{.window = 32, .max_batch = 8});
  constexpr int kKeys = 64;
  for (int i = 0; i < kKeys; ++i) {
    client->SubmitWrite("key" + std::to_string(i), i);
  }
  ASSERT_TRUE(client->Drain());

  const ReplicaSnapshot snap = store.ReplicaPeek(0);
  ASSERT_EQ(snap.stats.per_shard.size(), kShards);
  std::uint64_t total_ops = 0, shards_hit = 0;
  for (const ShardCounters& c : snap.stats.per_shard) {
    total_ops += c.ops;
    if (c.ops > 0) {
      ++shards_hit;
      EXPECT_GT(c.queue_peak, 0u);
    }
    EXPECT_EQ(c.fsyncs, 0u);  // memory backend
  }
  // Each op runs a read probe and a write install: ≥ 2 applied ops each.
  EXPECT_GE(total_ops, static_cast<std::uint64_t>(2 * kKeys));
  EXPECT_EQ(shards_hit, kShards) << "64 keys left a shard idle";
  EXPECT_GT(snap.stats.batches_applied, 0u);

  // The aggregate surface carries the same slots.
  const BatchStats total = store.TotalBatchStats();
  ASSERT_EQ(total.per_shard.size(), kShards);
  EXPECT_EQ(total.batches_applied, snap.stats.batches_applied);
}

TEST(ShardedStore, PerShardFsyncCountersUnderDurability) {
  ScratchDir scratch("fsync");

  constexpr std::size_t kShards = 2;
  std::string key_a, key_b;  // one key per shard
  for (int i = 0; key_a.empty() || key_b.empty(); ++i) {
    const std::string k = "key" + std::to_string(i);
    if (ShardForKey(k, kShards) == 0) {
      if (key_a.empty()) key_a = k;
    } else if (key_b.empty()) {
      key_b = k;
    }
  }

  StoreOptions options;
  options.replicas = 1;
  options.shards_per_replica = kShards;
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
  ASSERT_EQ(stats.per_shard.size(), kShards);
  // kAlways: one fsync per appended record, attributed to the owning shard.
  EXPECT_EQ(stats.per_shard[0].fsyncs, 2u);
  EXPECT_EQ(stats.per_shard[1].fsyncs, 1u);
}

// Peeking a sharded replica keeps working while the node is bus-crashed
// (memory mode: the loop stays up) and crashes race the peek requests.
TEST(ShardedStore, PeekSurvivesConcurrentCrashes) {
  StoreOptions options;
  options.replicas = 3;
  options.shards_per_replica = 4;
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
