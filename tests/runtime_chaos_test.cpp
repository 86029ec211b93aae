// Chaos soak: multi-client pipelined load against a store whose bus
// drops, duplicates, delays, and reorders every message — plus a mid-run
// partition and a crash/recover cycle — asserting the sequential-
// equivalence invariants of runtime_shard_test under genuinely hostile
// delivery:
//
//   * acked write versions are strictly increasing per key;
//   * an acked read returns a version ≥ the last acked write and a value
//     this writer actually wrote, and every observation of a version
//     binds it to one value (Lemma 8, client side);
//   * replica applied histories are strictly increasing per key and agree
//     on the value of every version across replicas (Lemma 8, replica
//     side);
//   * both clients' divergence counters stay zero.
//
// Per-client key namespaces make the single-writer reference model exact.
// The schedule is seeded (QCNT_FAULT_SEED overrides, for the CI chaos
// matrix); timing still varies run to run, which is the point of a soak —
// the invariants must hold on every interleaving.
#include <gtest/gtest.h>

#include <map>
#include <set>
#include <string>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include "reconfig/catchup.hpp"
#include "runtime/store.hpp"

namespace qcnt::runtime {
namespace {

using namespace std::chrono_literals;

constexpr int kClients = 3;
constexpr int kKeysPerClient = 5;
constexpr int kIterations = 220;

std::string Key(int client, int k) {
  return "c" + std::to_string(client) + "k" + std::to_string(k);
}

struct Observation {
  bool is_write = false;
  int key = 0;
  std::int64_t value = 0;  // written value; meaningless for reads
  ClientResult result;
};

/// One client's workload: round-robin writes over its keys with periodic
/// reads, fully pipelined; returns the completed observations in
/// submission order (per-key FIFO makes that the per-key serial order).
std::vector<Observation> RunClient(ReplicatedStore& store, int index) {
  ClientOptions copts;
  copts.timeout = 150ms;
  copts.max_attempts = 8;
  copts.window = 8;
  copts.max_batch = 4;
  auto client = store.MakeAsyncClient(copts);

  std::vector<Observation> obs;
  std::vector<OpFuture> futures;
  for (int i = 0; i < kIterations; ++i) {
    const int k = i % kKeysPerClient;
    const std::int64_t value = 1000 * index + i;
    futures.push_back(client->SubmitWrite(Key(index, k), value));
    obs.push_back(Observation{true, k, value, {}});
    if (i % 4 == 3) {
      const int rk = (i / 4) % kKeysPerClient;
      futures.push_back(client->SubmitRead(Key(index, rk)));
      obs.push_back(Observation{false, rk, 0, {}});
    }
  }
  client->Drain();
  for (std::size_t i = 0; i < obs.size(); ++i) obs[i].result = futures[i].Get();
  EXPECT_EQ(client->ClientStats().divergences_observed, 0u)
      << "client " << index << " observed Lemma 8 divergence";
  return obs;
}

TEST(ChaosSoak, InvariantsHoldUnderDropDupDelayReorderPartitionAndCrash) {
  StoreOptions options;
  options.replicas = 5;
  options.max_clients = kClients;
  options.record_applied_history = true;
  FaultPlan plan;
  plan.drop = 0.12;
  plan.duplicate = 0.08;
  plan.delay_min = 0us;
  plan.delay_max = 300us;
  plan.reorder_window = 8;
  plan.seed = 20260806;  // QCNT_FAULT_SEED overrides (CI chaos matrix)
  options.faults = plan;
  ReplicatedStore store(std::move(options));

  // Chaos script on the side: isolate replica 0 entirely (replicas and
  // clients — node ids 5..7 are the clients), heal, then one crash/
  // recover cycle on replica 1. Majority quorums of 5 stay available
  // throughout (at most one replica unreachable at a time).
  std::thread chaos([&store] {
    std::this_thread::sleep_for(150ms);
    store.Partition({0}, {1, 2, 3, 4, 5, 6, 7});
    std::this_thread::sleep_for(300ms);
    store.Heal();
    std::this_thread::sleep_for(150ms);
    store.Crash(1);
    std::this_thread::sleep_for(300ms);
    store.Recover(1);
  });

  std::vector<std::vector<Observation>> all(kClients);
  std::vector<std::thread> workers;
  for (int c = 0; c < kClients; ++c) {
    workers.emplace_back([&store, &all, c] { all[c] = RunClient(store, c); });
  }
  for (auto& w : workers) w.join();
  chaos.join();

  // Client-side invariants, per (client, key): single writer, so the
  // acked history is the reference model.
  std::uint64_t completed = 0, failed = 0;
  // (client, key, version) -> value: every observation of a version must
  // agree with every other (the client-side Lemma 8 check).
  std::map<std::tuple<int, int, std::uint64_t>, std::int64_t> binding;
  for (int c = 0; c < kClients; ++c) {
    std::uint64_t last_acked_version[kKeysPerClient] = {};
    std::int64_t last_acked_value[kKeysPerClient] = {};
    // Every value this writer ever attempted for the key: a straggler
    // from a retries-exhausted write may legitimately be read later, but
    // a value never put on the wire must not be.
    std::set<std::int64_t> attempted[kKeysPerClient];
    for (const Observation& o : all[c]) {
      const ClientResult& r = o.result;
      ++completed;
      if (o.is_write) attempted[o.key].insert(o.value);
      if (!r.ok) {
        ++failed;
        continue;
      }
      if (o.is_write) {
        EXPECT_GT(r.version, last_acked_version[o.key])
            << "acked write version regressed on " << Key(c, o.key);
        last_acked_version[o.key] = r.version;
        last_acked_value[o.key] = o.value;
        const auto id = std::make_tuple(c, o.key, r.version);
        auto [it, inserted] = binding.emplace(id, o.value);
        EXPECT_EQ(it->second, o.value)
            << "version bound to two values on " << Key(c, o.key);
      } else {
        // An acked read reflects at least the last acked write (its
        // write quorum intersects every read quorum), and never a value
        // this writer did not produce.
        EXPECT_GE(r.version, last_acked_version[o.key])
            << "read missed an acked write on " << Key(c, o.key);
        if (r.version == last_acked_version[o.key] &&
            last_acked_version[o.key] != 0) {
          EXPECT_EQ(r.value, last_acked_value[o.key]);
        }
        if (r.version == 0) {
          EXPECT_EQ(r.value, 0);
        } else {
          EXPECT_EQ(attempted[o.key].count(r.value), 1u)
              << "read returned a never-written value " << r.value
              << " on " << Key(c, o.key);
          const auto id = std::make_tuple(c, o.key, r.version);
          auto [it, inserted] = binding.emplace(id, r.value);
          EXPECT_EQ(it->second, r.value)
              << "version bound to two values on " << Key(c, o.key);
        }
      }
    }
  }
  // Retries must mask nearly all of the injected loss.
  EXPECT_LE(failed * 50, completed)  // ≤ 2%
      << failed << " of " << completed << " ops failed";

  // Replica-side invariants: drain the fault layer, then audit every
  // replica's applied history — per-key versions strictly increasing, and
  // every (key, version) agreeing on its value across all replicas.
  store.FlushFaults();
  std::this_thread::sleep_for(50ms);  // let flushed stragglers apply
  std::map<std::pair<std::string, std::uint64_t>, std::int64_t> replica_bind;
  for (std::size_t r = 0; r < store.ReplicaCount(); ++r) {
    const ReplicaSnapshot snap = store.ReplicaPeek(r);
    EXPECT_FALSE(snap.history.empty());
    std::map<std::string, std::uint64_t> last;
    for (const AppliedWrite& w : snap.history) {
      auto [it, first] = last.emplace(w.key, w.version);
      if (!first) {
        EXPECT_GT(w.version, it->second)
            << "replica " << r << " applied a stale version of " << w.key;
        it->second = w.version;
      }
      auto [bit, inserted] =
          replica_bind.emplace(std::make_pair(w.key, w.version), w.value);
      EXPECT_EQ(bit->second, w.value)
          << "replicas diverge on " << w.key << " v" << w.version;
    }
  }

  const FaultStats stats = store.InjectedFaults();
  EXPECT_GT(stats.dropped, 0u);
  EXPECT_GT(stats.duplicated, 0u);
  EXPECT_GT(stats.reordered, 0u);
}

/// Membership churn under the full fault plan: while the same pipelined
/// multi-client load runs over a lossy, duplicating, delaying, reordering
/// bus — with a partition pulse and a crash/recover cycle on the side —
/// the replica set grows and shrinks repeatedly (every add streams a
/// fresh joiner current via bulk catchup + seal; every remove drains the
/// leaver). The sequential-equivalence envelope, the zero-divergence
/// audits, and replica agreement must survive every configuration in the
/// sequence.
TEST(ChaosSoak, MembershipChurnUnderDropDupDelayReorderPartitionAndCrash) {
  StoreOptions options;
  options.replicas = 3;
  options.max_clients = kClients;
  options.record_applied_history = true;
  FaultPlan plan;
  // Gentler than the static soak: the coordinator's bulk-catchup window
  // retries whole-join steps, so heavy loss mostly costs wall clock.
  plan.drop = 0.05;
  plan.duplicate = 0.05;
  plan.delay_min = 0us;
  plan.delay_max = 200us;
  plan.reorder_window = 6;
  plan.seed = 20260808;  // QCNT_FAULT_SEED overrides (CI chaos matrix)
  options.faults = plan;
  ReplicatedStore store(std::move(options));

  std::vector<std::vector<Observation>> all(kClients);
  std::vector<std::thread> workers;
  for (int c = 0; c < kClients; ++c) {
    workers.emplace_back([&store, &all, c] { all[c] = RunClient(store, c); });
  }

  // Churn script, serialized with the other chaos: three add/remove
  // cycles interleaved with a partition pulse and a crash/recover cycle.
  // Every membership operation must succeed — the fault plan is within
  // what the per-step retries are designed to mask.
  reconfig::MembershipOptions mopts;
  mopts.step_timeout = std::chrono::milliseconds(500);
  mopts.client.timeout = std::chrono::milliseconds(400);
  mopts.client.max_attempts = 8;
  std::thread churn([&store, &mopts] {
    std::this_thread::sleep_for(50ms);
    for (int cycle = 0; cycle < 3; ++cycle) {
      const reconfig::MembershipReport grow = reconfig::AddReplica(store, mopts);
      EXPECT_TRUE(grow.ok) << "cycle " << cycle << ": " << grow.error;
      if (!grow.ok) return;
      EXPECT_EQ(store.Members().size(), 4u);
      if (cycle == 0) {
        // Partition pulse: isolate a founding replica (quorums of 4 stay
        // available) while the new member carries its share of the load.
        store.Partition({1}, {0, 2, 3, 4, 5, grow.node});
        std::this_thread::sleep_for(100ms);
        store.Heal();
      }
      if (cycle == 1) {
        store.Crash(2);
        std::this_thread::sleep_for(100ms);
        store.Recover(2);
        std::this_thread::sleep_for(50ms);
      }
      const reconfig::MembershipReport shrink =
          reconfig::RemoveReplica(store, grow.node, mopts);
      EXPECT_TRUE(shrink.ok) << "cycle " << cycle << ": " << shrink.error;
      if (!shrink.ok) return;
      EXPECT_TRUE(shrink.drained);
      EXPECT_EQ(store.Members().size(), 3u);
      std::this_thread::sleep_for(50ms);
    }
  });

  for (auto& w : workers) w.join();
  churn.join();
  EXPECT_EQ(store.Members(), (std::vector<NodeId>{0, 1, 2}))
      << "every churn cycle must have grown and shrunk back";

  // Same client-side audit as the static soak, across all six
  // configuration changes.
  std::uint64_t completed = 0, failed = 0;
  for (int c = 0; c < kClients; ++c) {
    std::uint64_t last_acked_version[kKeysPerClient] = {};
    std::int64_t last_acked_value[kKeysPerClient] = {};
    std::set<std::int64_t> attempted[kKeysPerClient];
    for (const Observation& o : all[c]) {
      const ClientResult& r = o.result;
      ++completed;
      if (o.is_write) attempted[o.key].insert(o.value);
      if (!r.ok) {
        ++failed;
        continue;
      }
      if (o.is_write) {
        EXPECT_GT(r.version, last_acked_version[o.key])
            << "acked write version regressed on " << Key(c, o.key);
        last_acked_version[o.key] = r.version;
        last_acked_value[o.key] = o.value;
      } else {
        EXPECT_GE(r.version, last_acked_version[o.key])
            << "read missed an acked write on " << Key(c, o.key);
        if (r.version == last_acked_version[o.key] &&
            last_acked_version[o.key] != 0) {
          EXPECT_EQ(r.value, last_acked_value[o.key]);
        }
        if (r.version != 0) {
          EXPECT_EQ(attempted[o.key].count(r.value), 1u)
              << "read returned a never-written value " << r.value << " on "
              << Key(c, o.key);
        }
      }
    }
  }
  // Churn windows plus injected loss must still be mostly masked.
  EXPECT_LE(failed * 20, completed)  // <= 5%
      << failed << " of " << completed << " ops failed";

  // Replica-side audit over the *surviving* members (removed joiners are
  // gone; the founding trio must agree with itself).
  store.FlushFaults();
  std::this_thread::sleep_for(50ms);
  std::map<std::pair<std::string, std::uint64_t>, std::int64_t> replica_bind;
  for (const NodeId r : store.Members()) {
    const ReplicaSnapshot snap = store.ReplicaPeek(r);
    EXPECT_FALSE(snap.history.empty());
    std::map<std::string, std::uint64_t> last;
    for (const AppliedWrite& w : snap.history) {
      auto [it, first] = last.emplace(w.key, w.version);
      if (!first) {
        EXPECT_GT(w.version, it->second)
            << "replica " << r << " applied a stale version of " << w.key;
        it->second = w.version;
      }
      auto [bit, inserted] =
          replica_bind.emplace(std::make_pair(w.key, w.version), w.value);
      EXPECT_EQ(bit->second, w.value)
          << "replicas diverge on " << w.key << " v" << w.version;
    }
  }

  const FaultStats stats = store.InjectedFaults();
  EXPECT_GT(stats.dropped, 0u);
  EXPECT_GT(stats.duplicated, 0u);
}

}  // namespace
}  // namespace qcnt::runtime
