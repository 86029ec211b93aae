// Online membership change, end to end (DESIGN.md §11).
//
// Four layers of scrutiny, bottom up:
//
//   * CatchupProtocol — the raw joiner state machine on a bare Bus, with
//     the test playing coordinator and donors: a donor crash mid-stream
//     resumes from the exact cursor against a different donor (no entry
//     re-pulled, no entry skipped), a stale in-flight chunk from the
//     abandoned stream is dropped by the pull_seq guard.
//   * CatchupProperty — store-level random interleavings of live client
//     writes with a concurrent AddReplica: the joined replica's applied
//     versions never regress, its image never holds a (key, version,
//     value) no founding replica can witness, and after crashing a
//     founding replica the joiner serves inside read quorums with zero
//     data loss.
//   * MembershipE2E — the ISSUE acceptance scenario: grow 3 -> 5 and
//     shrink back to 3 (removing two *founding* members, so every final
//     quorum leans on replicas that did not exist at construction) under
//     sustained pipelined traffic, on both the in-process Bus and the
//     loopback-TCP substrate; sequential-equivalence envelope and
//     zero-divergence audits hold throughout, and every acked write is
//     still readable afterwards.
//
// Membership reports are asserted with their error strings attached, so
// a failure names the phase that broke.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "reconfig/catchup.hpp"
#include "runtime/store.hpp"
#include "storage/backend.hpp"

namespace qcnt::reconfig {
namespace {

using namespace std::chrono_literals;
using runtime::Bus;
using runtime::Envelope;
using runtime::NodeId;
using runtime::ReplicatedStore;
using runtime::RtMessage;
using runtime::StoreOptions;

/// Pop node `at`'s mailbox until a message of `kind` arrives (strays from
/// earlier protocol steps are skipped); nullopt on timeout.
std::optional<Envelope> Await(Bus& bus, NodeId at, RtMessage::Kind kind) {
  const auto deadline = std::chrono::steady_clock::now() + 5s;
  while (std::chrono::steady_clock::now() < deadline) {
    std::optional<Envelope> e = bus.MailboxOf(at).Pop(deadline);
    if (e && e->msg.kind == kind) return e;
  }
  return std::nullopt;
}

std::string Pk(int i) {
  return "k" + std::string(i < 10 ? "0" : "") + std::to_string(i);
}

// ---------------------------------------------------------------------------
// Raw protocol: donor crash mid-stream, cursor resume, stale-chunk guard.
// ---------------------------------------------------------------------------

TEST(CatchupProtocol, DonorCrashMidStreamResumesFromExactCursor) {
  // Node 1 is a real joiner; the test plays donor 0, donor 2,
  // and the coordinator 3, so the crash point is fully deterministic.
  Bus bus(4);
  runtime::ReplicaServer joiner(bus, 1);

  const auto serve = [&bus](NodeId donor, const Envelope& req, int first,
                            int last, bool more) {
    RtMessage chunk;
    chunk.kind = RtMessage::Kind::kCatchupChunk;
    chunk.op = req.msg.op;  // echo: answers the latest outstanding request
    for (int i = first; i <= last; ++i) {
      chunk.batch.push_back(runtime::BatchEntry{0, Pk(i), 1, 100 + i});
    }
    chunk.key = Pk(last);
    chunk.value = more ? 1 : 0;
    bus.Send(donor, 1, std::move(chunk));
  };

  RtMessage join;
  join.kind = RtMessage::Kind::kJoinReq;
  join.op = 77;
  join.value = 0;  // donor 0
  bus.Send(3, 1, join);

  // Two chunks flow from donor 0.
  std::optional<Envelope> req = Await(bus, 0, RtMessage::Kind::kCatchupReq);
  ASSERT_TRUE(req);
  EXPECT_EQ(req->msg.key, "");  // image start
  EXPECT_EQ(req->msg.version, 0u);
  serve(0, *req, 0, 3, true);
  req = Await(bus, 0, RtMessage::Kind::kCatchupReq);
  ASSERT_TRUE(req);
  EXPECT_EQ(req->msg.key, Pk(3));  // cursor advanced
  serve(0, *req, 4, 7, true);
  req = Await(bus, 0, RtMessage::Kind::kCatchupReq);
  ASSERT_TRUE(req);
  EXPECT_EQ(req->msg.key, Pk(7));
  const std::uint64_t orphaned_op = req->msg.op;
  // Donor 0 "crashes": its outstanding request is never answered. The
  // coordinator times out and re-issues the join against donor 2 …
  RtMessage retry = join;
  retry.op = 78;
  retry.value = 2;
  bus.Send(3, 1, retry);
  // … while a bogus answer to the abandoned request limps in afterwards.
  // The pull_seq guard must drop it: its payload would otherwise plant a
  // key nobody wrote and terminate the stream early (more = 0).
  RtMessage stale;
  stale.kind = RtMessage::Kind::kCatchupChunk;
  stale.op = orphaned_op;
  stale.batch.push_back(runtime::BatchEntry{0, "k99", 1, 999});
  stale.key = "k99";
  stale.value = 0;
  bus.Send(0, 1, std::move(stale));

  // The resumed pull goes to donor 2 from the exact cursor — nothing
  // already streamed is pulled again, nothing is skipped.
  req = Await(bus, 2, RtMessage::Kind::kCatchupReq);
  ASSERT_TRUE(req);
  EXPECT_EQ(req->msg.key, Pk(7)) << "resume must continue from the cursor";
  EXPECT_EQ(req->msg.version, 0u);
  serve(2, *req, 8, 9, false);

  std::optional<Envelope> done = Await(bus, 3, RtMessage::Kind::kCatchupDone);
  ASSERT_TRUE(done);
  EXPECT_EQ(done->msg.op, 78u);
  EXPECT_EQ(done->msg.value, runtime::kJoinOk);
  EXPECT_EQ(done->msg.version, 10u) << "every entry streamed exactly once";

  const runtime::ReplicaSnapshot snap = joiner.Peek();
  EXPECT_EQ(snap.image.data.size(), 10u);
  EXPECT_EQ(snap.image.data.count("k99"), 0u)
      << "stale chunk from the abandoned stream was merged";
  for (int i = 0; i < 10; ++i) {
    const auto it = snap.image.data.find(Pk(i));
    ASSERT_NE(it, snap.image.data.end()) << Pk(i);
    EXPECT_EQ(it->second.version, 1u);
    EXPECT_EQ(it->second.value, 100 + i);
  }
  joiner.Shutdown();
}

// ---------------------------------------------------------------------------
// Property: live writes racing a join, varied interleavings.
// ---------------------------------------------------------------------------

constexpr int kPropKeys = 30;

TEST(CatchupProperty, LiveWritesDuringJoinNeverRegressAndLeaveNoGaps) {
  // Three rounds with different preload sizes and join start offsets vary
  // which writes land via bulk catchup, via the S_acked seal, and via
  // live installs under the new configuration. The invariants must hold
  // on every interleaving.
  const struct {
    int preload;
    std::chrono::milliseconds join_after;
  } rounds[] = {{kPropKeys, 0ms}, {kPropKeys, 15ms}, {5, 40ms}};
  for (const auto& round : rounds) {
    StoreOptions options;
    options.replicas = 3;
    options.max_clients = 4;
    options.record_applied_history = true;
    ReplicatedStore store(options);

    {
      auto preload = store.MakeClient();
      for (int k = 0; k < round.preload; ++k) {
        ASSERT_TRUE(preload->Write(Pk(k), k).ok);
      }
    }

    // Single writer over all keys, pipelined, racing the join.
    std::atomic<bool> stop{false};
    std::uint64_t last_version[kPropKeys] = {};
    std::int64_t last_value[kPropKeys] = {};
    std::set<std::int64_t> attempted[kPropKeys];
    std::thread writer([&] {
      runtime::ClientOptions copts;
      copts.timeout = 250ms;
      copts.max_attempts = 8;
      copts.window = 8;
      copts.max_batch = 4;
      auto client = store.MakeAsyncClient(copts);
      std::vector<runtime::OpFuture> futures;
      std::vector<int> keys;
      for (int i = 0; !stop.load() && i < 4000; ++i) {
        const int k = i % kPropKeys;
        futures.push_back(client->SubmitWrite(Pk(k), 1000 + i));
        keys.push_back(k);
        attempted[k].insert(1000 + i);
      }
      client->Drain();
      for (std::size_t i = 0; i < futures.size(); ++i) {
        const runtime::ClientResult r = futures[i].Get();
        if (!r.ok) continue;
        const int k = keys[i];
        EXPECT_GT(r.version, last_version[k]) << "acked version regressed";
        last_version[k] = r.version;
        last_value[k] = static_cast<std::int64_t>(1000 + i);
      }
      EXPECT_EQ(client->ClientStats().divergences_observed, 0u);
    });

    std::this_thread::sleep_for(round.join_after);
    const MembershipReport join = AddReplica(store);
    EXPECT_TRUE(join.ok) << join.error;
    stop.store(true);
    writer.join();
    ASSERT_TRUE(join.ok) << "round with preload " << round.preload;
    EXPECT_EQ(store.Members().size(), 4u);
    EXPECT_GT(join.catchup_entries + join.seal_entries, 0u);

    // The joiner never regressed a version (its applied history is the
    // interleaving of catchup chunks, seal installs, and live writes) and
    // never holds state no founding replica can witness.
    std::set<std::tuple<std::string, std::uint64_t, std::int64_t>> witness;
    for (NodeId r = 0; r < 3; ++r) {
      const runtime::ReplicaSnapshot snap = store.ReplicaPeek(r);
      for (const runtime::AppliedWrite& w : snap.history) {
        witness.emplace(w.key, w.version, w.value);
      }
      for (const auto& kv : snap.image.data) {
        witness.emplace(kv.first, kv.second.version, kv.second.value);
      }
    }
    const runtime::ReplicaSnapshot js = store.ReplicaPeek(join.node);
    std::map<std::string, std::uint64_t> last_applied;
    for (const runtime::AppliedWrite& w : js.history) {
      auto [it, first] = last_applied.emplace(w.key, w.version);
      if (!first) {
        EXPECT_GT(w.version, it->second)
            << "joiner applied a stale version of " << w.key;
        it->second = w.version;
      }
    }
    for (const auto& kv : js.image.data) {
      EXPECT_EQ(witness.count({kv.first, kv.second.version, kv.second.value}),
                1u)
          << "joiner holds unwitnessed state " << kv.first << " v"
          << kv.second.version << " = " << kv.second.value;
    }

    // Force the joiner into every read quorum (majority-of-4 minus one
    // founding member needs it): every acked write must still be served.
    store.Crash(0);
    auto audit = store.MakeClient();
    for (int k = 0; k < kPropKeys; ++k) {
      if (last_version[k] == 0) continue;
      const runtime::ClientResult r = audit->Read(Pk(k));
      ASSERT_TRUE(r.ok) << Pk(k);
      EXPECT_GE(r.version, last_version[k]) << "acked write lost on " << Pk(k);
      if (r.version == last_version[k]) {
        EXPECT_EQ(r.value, last_value[k]);
      } else {
        EXPECT_EQ(attempted[k].count(r.value), 1u)
            << "never-written value " << r.value << " on " << Pk(k);
      }
    }
    EXPECT_EQ(audit->DivergencesObserved(), 0u);
    store.Recover(0);
  }
}

// ---------------------------------------------------------------------------
// Acceptance: 3 -> 5 -> 3 under sustained pipelined traffic, Bus and TCP.
// ---------------------------------------------------------------------------

struct Observation {
  bool is_write = false;
  int key = 0;
  std::int64_t value = 0;
  runtime::ClientResult result;
};

constexpr int kE2eKeys = 6;

std::string CKey(int client, int k) {
  return "c" + std::to_string(client) + "k" + std::to_string(k);
}

/// Pipelined single-writer workload that runs until `stop`: round-robin
/// writes with periodic reads, per-client key namespace.
std::vector<Observation> PumpTraffic(ReplicatedStore& store, int index,
                                     std::atomic<bool>& stop) {
  runtime::ClientOptions copts;
  copts.timeout = 250ms;
  copts.max_attempts = 10;
  copts.window = 8;
  copts.max_batch = 4;
  auto client = store.MakeAsyncClient(copts);
  std::vector<Observation> obs;
  std::vector<runtime::OpFuture> futures;
  for (int i = 0; !stop.load() && i < 30000; ++i) {
    const int k = i % kE2eKeys;
    const std::int64_t value = 1000 * index + i;
    futures.push_back(client->SubmitWrite(CKey(index, k), value));
    obs.push_back(Observation{true, k, value, {}});
    if (i % 4 == 3) {
      const int rk = (i / 4) % kE2eKeys;
      futures.push_back(client->SubmitRead(CKey(index, rk)));
      obs.push_back(Observation{false, rk, 0, {}});
    }
    if (i % 64 == 63) std::this_thread::sleep_for(1ms);
  }
  client->Drain();
  for (std::size_t i = 0; i < obs.size(); ++i) obs[i].result = futures[i].Get();
  EXPECT_EQ(client->ClientStats().divergences_observed, 0u)
      << "client " << index << " observed Lemma 8 divergence";
  return obs;
}

class MembershipE2E : public ::testing::TestWithParam<const char*> {};

TEST_P(MembershipE2E, GrowToFiveShrinkToThreeUnderPipelinedTraffic) {
  StoreOptions options;
  options.replicas = 3;
  options.max_clients = 4;
  // Pinned above one so the dispatch/split/config-barrier paths run even
  // on single-core machines where the auto default resolves to 1.
  if (std::string(GetParam()) == "tcp") {
    options.tcp = runtime::TcpStoreOptions{};
  }
  ReplicatedStore store(std::move(options));

  constexpr int kClients = 2;
  std::atomic<bool> stop{false};
  std::vector<std::vector<Observation>> all(kClients);
  std::vector<std::thread> workers;
  for (int c = 0; c < kClients; ++c) {
    workers.emplace_back(
        [&store, &all, &stop, c] { all[c] = PumpTraffic(store, c, stop); });
  }

  // Membership script, against live traffic: grow 3 -> 5, then remove two
  // *founding* members — the final configuration {2, j1, j2} cannot form
  // any quorum without the replicas that joined at runtime, so the final
  // audit proves the streamed handover lost nothing.
  std::this_thread::sleep_for(50ms);
  const MembershipReport g1 = AddReplica(store);
  ASSERT_TRUE(g1.ok) << g1.error;
  EXPECT_EQ(store.Members().size(), 4u);
  EXPECT_TRUE(g1.drained);
  const MembershipReport g2 = AddReplica(store);
  ASSERT_TRUE(g2.ok) << g2.error;
  EXPECT_EQ(store.Members().size(), 5u);
  EXPECT_NE(g1.node, g2.node);
  EXPECT_GT(g2.generation, g1.generation);
  std::this_thread::sleep_for(50ms);
  const MembershipReport s1 = RemoveReplica(store, 0);
  ASSERT_TRUE(s1.ok) << s1.error;
  EXPECT_TRUE(s1.drained) << "a live leaver must be drained";
  EXPECT_EQ(store.Members().size(), 4u);
  const MembershipReport s2 = RemoveReplica(store, 1);
  ASSERT_TRUE(s2.ok) << s2.error;
  EXPECT_EQ(store.Members().size(), 3u);
  const std::vector<NodeId> members = store.Members();
  EXPECT_EQ(members, (std::vector<NodeId>{2, g1.node, g2.node}));

  std::this_thread::sleep_for(50ms);
  stop.store(true);
  for (auto& w : workers) w.join();

  // Client-side sequential-equivalence envelope across all four
  // configuration changes: acked writes strictly increase per key, acked
  // reads never miss an acked write nor return a never-written value.
  std::uint64_t completed = 0, failed = 0;
  std::uint64_t last_version[kClients][kE2eKeys] = {};
  std::int64_t last_value[kClients][kE2eKeys] = {};
  std::set<std::int64_t> attempted[kClients][kE2eKeys];
  for (int c = 0; c < kClients; ++c) {
    for (const Observation& o : all[c]) {
      const runtime::ClientResult& r = o.result;
      ++completed;
      if (o.is_write) attempted[c][o.key].insert(o.value);
      if (!r.ok) {
        ++failed;
        continue;
      }
      if (o.is_write) {
        EXPECT_GT(r.version, last_version[c][o.key])
            << "acked write version regressed on " << CKey(c, o.key);
        last_version[c][o.key] = r.version;
        last_value[c][o.key] = o.value;
      } else {
        EXPECT_GE(r.version, last_version[c][o.key])
            << "read missed an acked write on " << CKey(c, o.key);
        if (r.version == last_version[c][o.key] && r.version != 0) {
          EXPECT_EQ(r.value, last_value[c][o.key]);
        }
        if (r.version != 0) {
          EXPECT_EQ(attempted[c][o.key].count(r.value), 1u)
              << "read returned never-written value " << r.value << " on "
              << CKey(c, o.key);
        }
      }
    }
  }
  // Retries must mask the reconfiguration windows almost entirely.
  EXPECT_LE(failed * 20, completed)  // <= 5%
      << failed << " of " << completed << " ops failed";

  // Zero data loss: a fresh client (which starts from the final
  // configuration) re-reads every key; majority-of-3 over {2, j1, j2}
  // always counts at least one runtime-joined replica.
  auto audit = store.MakeClient();
  for (int c = 0; c < kClients; ++c) {
    for (int k = 0; k < kE2eKeys; ++k) {
      if (last_version[c][k] == 0) continue;
      const runtime::ClientResult r = audit->Read(CKey(c, k));
      ASSERT_TRUE(r.ok) << CKey(c, k);
      EXPECT_GE(r.version, last_version[c][k])
          << "acked write lost across membership changes on " << CKey(c, k);
      if (r.version == last_version[c][k]) {
        EXPECT_EQ(r.value, last_value[c][k]);
      } else {
        EXPECT_EQ(attempted[c][k].count(r.value), 1u);
      }
    }
  }
  EXPECT_EQ(audit->DivergencesObserved(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Transports, MembershipE2E,
                         ::testing::Values("bus", "tcp"),
                         [](const auto& info) {
                           return std::string(info.param);
                         });

// ---------------------------------------------------------------------------
// Spill-mode donors: catchup streamed from the checkpoint chain.
// ---------------------------------------------------------------------------

// With spill_cold_reads the donors' in-memory maps hold only the
// un-checkpointed tail, so the bulk of the joiner's pull must come out
// of ServeCatchup's cold half (Backend::ScanAbove over the checkpoint
// chain, merged with the hot tail). The joiner must still end up with
// every acked key at the acked value.
TEST(CatchupSpill, JoinerPullsColdCheckpointStateFromDonors) {
  namespace fs = std::filesystem;
  const std::string dir = "reconfig_catchup_spill_scratch";
  fs::remove_all(dir);

  constexpr int kColdKeys = 150;
  const auto key = [](int i) {
    char buf[16];
    std::snprintf(buf, sizeof buf, "cold_%04d", i);
    return std::string(buf);
  };
  {
    StoreOptions options;
    options.replicas = 3;
    storage::DurabilityOptions durability;
    durability.directory = dir;
    durability.fsync = storage::FsyncPolicy::kAlways;
    durability.checkpoint_tail_bytes = 1024;  // evict early and often
    durability.segment_bytes = 512;
    durability.spill_cold_reads = true;
    options.durability = durability;
    ReplicatedStore store(options);

    {
      auto preload = store.MakeClient();
      for (int i = 0; i < kColdKeys; ++i) {
        ASSERT_TRUE(preload->Write(key(i), 1000 + i).ok) << key(i);
      }
    }
    ASSERT_GE(store.TotalStorageStats().checkpoints_written, 3u)
        << "preload never spilled — the test would only cover the hot path";

    const MembershipReport join = AddReplica(store);
    ASSERT_TRUE(join.ok) << join.error;
    EXPECT_EQ(store.Members().size(), 4u);
    EXPECT_GE(join.catchup_entries + join.seal_entries,
              static_cast<std::uint64_t>(kColdKeys));

    // The joiner's logical image (Peek overlays its own cold chain)
    // holds every preloaded key at the acked value.
    const runtime::ReplicaSnapshot snap = store.ReplicaPeek(join.node);
    for (int i = 0; i < kColdKeys; ++i) {
      const auto it = snap.image.data.find(key(i));
      ASSERT_TRUE(it != snap.image.data.end())
          << key(i) << " never reached the joiner";
      EXPECT_EQ(it->second.value, 1000 + i) << key(i);
    }

    // And the joiner carries real read quorums: with a founder down,
    // majority-of-4 needs it.
    store.Crash(0);
    auto audit = store.MakeClient();
    for (int i = 0; i < kColdKeys; i += 13) {
      const runtime::ClientResult r = audit->Read(key(i));
      ASSERT_TRUE(r.ok) << key(i);
      EXPECT_EQ(r.value, 1000 + i);
    }
  }
  fs::remove_all(dir);
}

}  // namespace
}  // namespace qcnt::reconfig
