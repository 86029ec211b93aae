// Tests for simulator fault handling: the protocol core's retries under
// heavy drops, replica idempotence under duplicated requests, and quorum
// behavior across network partitions.
#include <gtest/gtest.h>

#include "quorum/strategies.hpp"
#include "sim/store.hpp"

namespace qcnt::sim {
namespace {

using namespace std::chrono_literals;

Deployment MakeLossy(double drop, std::uint64_t seed,
                     std::size_t max_attempts) {
  std::vector<quorum::QuorumSystem> configs{quorum::MajoritySystem(5)};
  return Deployment(5, 1, configs, 0, LatencyModel::Uniform(1.0, 3.0), drop,
                    seed,
                    {.timeout = 20ms,
                     .max_attempts = max_attempts,
                     .target_minimal = false});
}

TEST(Retransmit, SurvivesHeavyDrops) {
  // At 40% drop probability (requests and replies alike) one attempt —
  // a broadcast read phase, then a broadcast write phase — assembles both
  // 3-of-5 quorums only ~6% of the time. A failed attempt is retried
  // under a fresh op id after a jittered backoff: with a 20 ms attempt
  // timeout (a round trip takes at most 6 ms) and up to 200 attempts,
  // every seed gets through; a single attempt does not.
  std::size_t ok_single = 0, ok_retrying = 0;
  const std::size_t trials = 40;
  for (std::uint64_t seed = 0; seed < trials; ++seed) {
    for (const std::size_t attempts : {1, 200}) {
      Deployment d = MakeLossy(0.4, seed, attempts);
      OpResult w;
      d.clients[0]->Write(1, [&](const OpResult& r) { w = r; });
      d.sim.Run();
      if (w.ok) ++(attempts == 1 ? ok_single : ok_retrying);
    }
  }
  EXPECT_EQ(ok_retrying, trials);  // retries always get through
  EXPECT_LT(ok_single, trials);    // a single attempt sometimes fails
}

TEST(Retransmit, IdempotentUnderDuplicates) {
  // The same install delivered twice, then an older one: the replica
  // acks all three and ends with one version (the Image merge rule).
  Simulator sim;
  Network net(sim, 2, LatencyModel::Fixed(1.0), 0.0, 1);
  Replica replica(net, 0);
  std::size_t acks = 0;
  net.SetHandler(1, [&](NodeId, const runtime::RtMessage& m) {
    ASSERT_EQ(m.kind, runtime::RtMessage::Kind::kBatchWriteAck);
    ASSERT_EQ(m.batch.size(), 1u);
    EXPECT_EQ(m.batch[0].value, 0);  // accepted, not fenced
    ++acks;
  });
  const auto install = [](std::uint64_t version, std::int64_t value) {
    runtime::RtMessage m;
    m.kind = runtime::RtMessage::Kind::kBatchWriteReq;
    m.op = 7;
    m.batch.push_back(runtime::BatchEntry{7, "", version, value});
    return m;
  };
  net.Send(1, 0, install(3, 30));
  net.Send(1, 0, install(3, 30));
  sim.Run();
  net.Send(1, 0, install(2, 20));
  sim.Run();
  EXPECT_EQ(acks, 3u);
  ASSERT_EQ(replica.State().data.size(), 1u);
  EXPECT_EQ(replica.State().data.at("").version, 3u);
  EXPECT_EQ(replica.State().data.at("").value, 30);
}

TEST(Partition, MajoritySideStaysLive) {
  std::vector<quorum::QuorumSystem> configs{quorum::MajoritySystem(5)};
  const runtime::ClientOptions opts{.timeout = 200ms,
                                    .target_minimal = false};
  // Client is node 5; put it with replicas {0,1,2}.
  Deployment d(5, 1, configs, 0, LatencyModel::Fixed(1.0), 0.0, 3, opts);
  d.net.Partition(0b100111 /* replicas 0,1,2 + client(5) */);

  OpResult w;
  d.clients[0]->Write(7, [&](const OpResult& r) { w = r; });
  d.sim.Run();
  EXPECT_TRUE(w.ok);  // 3 of 5 reachable: still a majority
}

TEST(Partition, MinoritySideBlocksThenHeals) {
  std::vector<quorum::QuorumSystem> configs{quorum::MajoritySystem(5)};
  const runtime::ClientOptions opts{.timeout = 200ms,
                                    .target_minimal = false};
  Deployment d(5, 1, configs, 0, LatencyModel::Fixed(1.0), 0.0, 3, opts);
  // Client with only replicas {0,1}: a minority island.
  d.net.Partition(0b100011);

  OpResult w1;
  d.clients[0]->Write(7, [&](const OpResult& r) { w1 = r; });
  d.sim.Run();
  EXPECT_FALSE(w1.ok);

  d.net.Heal();
  OpResult w2;
  d.clients[0]->Write(8, [&](const OpResult& r) { w2 = r; });
  d.sim.Run();
  EXPECT_TRUE(w2.ok);

  OpResult r;
  d.clients[0]->Read([&](const OpResult& res) { r = res; });
  d.sim.Run();
  ASSERT_TRUE(r.ok);
  EXPECT_EQ(r.value, 8);
}

TEST(Partition, NoSplitBrainWithMajorityQuorums) {
  // Clients on both sides of a partition: at most one side can write.
  std::vector<quorum::QuorumSystem> configs{quorum::MajoritySystem(5)};
  const runtime::ClientOptions opts{.timeout = 200ms,
                                    .target_minimal = false};
  Deployment d(5, 2, configs, 0, LatencyModel::Fixed(1.0), 0.0, 9, opts);
  // Side A: replicas {0,1,2} + client 5. Side B: replicas {3,4} + client 6.
  d.net.Partition(0b0100111);

  OpResult wa, wb;
  d.clients[0]->Write(1, [&](const OpResult& r) { wa = r; });
  d.clients[1]->Write(2, [&](const OpResult& r) { wb = r; });
  d.sim.Run();
  EXPECT_TRUE(wa.ok);
  EXPECT_FALSE(wb.ok);  // the minority side cannot commit a write
}

}  // namespace
}  // namespace qcnt::sim
