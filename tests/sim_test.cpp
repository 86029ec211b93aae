// Tests for the discrete-event simulator, the network fault model, and the
// simulated quorum store (the runtime's protocol core on the simulator's
// clock, including Gifford reconfiguration and the generation fence).
#include <gtest/gtest.h>

#include "quorum/strategies.hpp"
#include "sim/store.hpp"

namespace qcnt::sim {
namespace {

TEST(Simulator, EventsFireInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.At(5.0, [&] { order.push_back(2); });
  sim.At(1.0, [&] { order.push_back(1); });
  sim.At(9.0, [&] { order.push_back(3); });
  sim.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.Now(), 9.0);
}

TEST(Simulator, SimultaneousEventsAreFifo) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    sim.At(1.0, [&order, i] { order.push_back(i); });
  }
  sim.Run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(Simulator, AfterIsRelative) {
  Simulator sim;
  double fired_at = -1.0;
  sim.At(10.0, [&] {
    sim.After(5.0, [&] { fired_at = sim.Now(); });
  });
  sim.Run();
  EXPECT_EQ(fired_at, 15.0);
}

TEST(Simulator, RunUntilStopsEarly) {
  Simulator sim;
  int fired = 0;
  sim.At(1.0, [&] { ++fired; });
  sim.At(100.0, [&] { ++fired; });
  sim.Run(50.0);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.PendingEvents(), 1u);
}

TEST(Simulator, SchedulingInPastRejected) {
  Simulator sim;
  sim.At(10.0, [] {});
  sim.Run();
  EXPECT_ANY_THROW(sim.At(5.0, [] {}));
}

TEST(LatencyModel, SamplesWithinBounds) {
  Rng rng(1);
  const LatencyModel fixed = LatencyModel::Fixed(3.0);
  EXPECT_EQ(fixed.Sample(rng), 3.0);
  const LatencyModel uni = LatencyModel::Uniform(2.0, 4.0);
  for (int i = 0; i < 100; ++i) {
    const Time t = uni.Sample(rng);
    EXPECT_GE(t, 2.0);
    EXPECT_LE(t, 4.0);
  }
  const LatencyModel exp = LatencyModel::Exponential(5.0, 1.0);
  for (int i = 0; i < 100; ++i) EXPECT_GE(exp.Sample(rng), 1.0);
}

TEST(Network, DeliversWithLatency) {
  Simulator sim;
  Network net(sim, 2, LatencyModel::Fixed(7.0), 0.0, 42);
  double arrival = -1.0;
  net.SetHandler(1, [&](NodeId from, const runtime::RtMessage& m) {
    EXPECT_EQ(from, 0u);
    EXPECT_EQ(m.value, 99);
    arrival = sim.Now();
  });
  runtime::RtMessage m;
  m.value = 99;
  net.Send(0, 1, m);
  sim.Run();
  EXPECT_EQ(arrival, 7.0);
  EXPECT_EQ(net.MessagesDelivered(), 1u);
}

TEST(Network, CrashedNodesNeitherSendNorReceive) {
  Simulator sim;
  Network net(sim, 2, LatencyModel::Fixed(1.0), 0.0, 1);
  int received = 0;
  net.SetHandler(1, [&](NodeId, const runtime::RtMessage&) { ++received; });
  net.Crash(1);
  net.Send(0, 1, runtime::RtMessage{});
  sim.Run();
  EXPECT_EQ(received, 0);
  net.Recover(1);
  net.Crash(0);
  net.Send(0, 1, runtime::RtMessage{});
  sim.Run();
  EXPECT_EQ(received, 0);
  EXPECT_EQ(net.MessagesDropped(), 2u);
}

TEST(Network, CrashAtDeliveryTimeDrops) {
  Simulator sim;
  Network net(sim, 2, LatencyModel::Fixed(10.0), 0.0, 1);
  int received = 0;
  net.SetHandler(1, [&](NodeId, const runtime::RtMessage&) { ++received; });
  net.Send(0, 1, runtime::RtMessage{});
  sim.At(5.0, [&] { net.Crash(1); });  // crashes while in flight
  sim.Run();
  EXPECT_EQ(received, 0);
}

TEST(Network, PartitionBlocksAcrossCut) {
  Simulator sim;
  Network net(sim, 4, LatencyModel::Fixed(1.0), 0.0, 1);
  int received = 0;
  for (NodeId i = 0; i < 4; ++i) {
    net.SetHandler(i, [&](NodeId, const runtime::RtMessage&) { ++received; });
  }
  net.Partition(0b0011);  // {0,1} | {2,3}
  net.Send(0, 1, runtime::RtMessage{});  // same side: delivered
  net.Send(0, 2, runtime::RtMessage{});  // across: dropped
  sim.Run();
  EXPECT_EQ(received, 1);
  net.Heal();
  net.Send(0, 2, runtime::RtMessage{});
  sim.Run();
  EXPECT_EQ(received, 2);
}

TEST(Network, UpMaskReflectsCrashes) {
  Simulator sim;
  Network net(sim, 3, LatencyModel::Fixed(1.0), 0.0, 1);
  EXPECT_EQ(net.UpMask(), 0b111ull);
  net.Crash(1);
  EXPECT_EQ(net.UpMask(), 0b101ull);
}

// --- simulated quorum store -------------------------------------------------

Deployment MakeDeployment(std::size_t replicas, std::size_t clients,
                          std::uint64_t seed = 7,
                          double drop = 0.0) {
  std::vector<quorum::QuorumSystem> configs{
      quorum::MajoritySystem(static_cast<ReplicaId>(replicas))};
  return Deployment(replicas, clients, configs, 0,
                    LatencyModel::Uniform(1.0, 3.0), drop, seed);
}

TEST(QuorumStore, WriteThenRead) {
  Deployment d = MakeDeployment(3, 1);
  OpResult write_result, read_result;
  d.clients[0]->Write(42, [&](const OpResult& r) { write_result = r; });
  d.sim.Run();
  ASSERT_TRUE(write_result.ok);
  EXPECT_GT(write_result.latency, 0.0);
  d.clients[0]->Read([&](const OpResult& r) { read_result = r; });
  d.sim.Run();
  ASSERT_TRUE(read_result.ok);
  EXPECT_EQ(read_result.value, 42);
}

TEST(QuorumStore, SequentialWritesMonotoneVersions) {
  Deployment d = MakeDeployment(5, 1);
  for (std::int64_t v = 1; v <= 5; ++v) {
    OpResult r;
    d.clients[0]->Write(v * 10, [&](const OpResult& res) { r = res; });
    d.sim.Run();
    ASSERT_TRUE(r.ok) << "write " << v;
  }
  OpResult read;
  d.clients[0]->Read([&](const OpResult& r) { read = r; });
  d.sim.Run();
  ASSERT_TRUE(read.ok);
  EXPECT_EQ(read.value, 50);
}

TEST(QuorumStore, ToleratesMinorityCrash) {
  Deployment d = MakeDeployment(5, 1);
  d.net.Crash(3);
  d.net.Crash(4);
  OpResult w, r;
  d.clients[0]->Write(7, [&](const OpResult& res) { w = res; });
  d.sim.Run();
  EXPECT_TRUE(w.ok);
  d.clients[0]->Read([&](const OpResult& res) { r = res; });
  d.sim.Run();
  EXPECT_TRUE(r.ok);
  EXPECT_EQ(r.value, 7);
}

TEST(QuorumStore, FailsWithoutQuorumThenTimesOut) {
  Deployment d = MakeDeployment(5, 1);
  d.net.Crash(2);
  d.net.Crash(3);
  d.net.Crash(4);
  OpResult w;
  d.clients[0]->Write(9, [&](const OpResult& res) { w = res; });
  d.sim.Run();
  EXPECT_FALSE(w.ok);
  EXPECT_GE(w.latency, 1000.0);  // default timeout
}

TEST(QuorumStore, SurvivesMessageDrops) {
  // With one attempt and a full broadcast, each phase needs only some
  // quorum of responses, so mild drop rates rarely matter for n=5 majority.
  std::size_t ok = 0;
  for (std::uint64_t seed = 0; seed < 20; ++seed) {
    Deployment d = MakeDeployment(5, 1, seed, 0.05);
    OpResult w;
    d.clients[0]->Write(1, [&](const OpResult& res) { w = res; });
    d.sim.Run();
    if (w.ok) ++ok;
  }
  EXPECT_GE(ok, 18u);
}

TEST(QuorumStore, TwoClientsSeeEachOthersWrites) {
  Deployment d = MakeDeployment(3, 2);
  OpResult w, r;
  d.clients[0]->Write(123, [&](const OpResult& res) { w = res; });
  d.sim.Run();
  ASSERT_TRUE(w.ok);
  d.clients[1]->Read([&](const OpResult& res) { r = res; });
  d.sim.Run();
  ASSERT_TRUE(r.ok);
  EXPECT_EQ(r.value, 123);
}

TEST(QuorumStore, WritesSubmittedTogetherInstallRisingVersions) {
  // One client's ops run one at a time, so the second write's version
  // discovery follows the first write's install. Run together, a replica
  // could answer the second's discovery before the first's install lands
  // and another after the first completed: both would then stage the
  // same version with different values. Exponential delays reorder
  // replies enough to reach that in several of these seeds.
  const std::vector<quorum::QuorumSystem> configs{quorum::MajoritySystem(3)};
  for (std::uint64_t seed = 0; seed < 200; ++seed) {
    Deployment d(3, 1, configs, 0, LatencyModel::Exponential(4.0, 1.0), 0.0,
                 seed);
    OpResult w1, w2, r;
    d.clients[0]->Write(1, [&](const OpResult& res) { w1 = res; });
    d.clients[0]->Write(2, [&](const OpResult& res) { w2 = res; });
    d.sim.Run();
    ASSERT_TRUE(w1.ok && w2.ok) << "seed " << seed;
    ASSERT_GT(w2.version, w1.version) << "seed " << seed;
    d.clients[0]->Read([&](const OpResult& res) { r = res; });
    d.sim.Run();
    ASSERT_TRUE(r.ok) << "seed " << seed;
    EXPECT_EQ(r.version, w2.version) << "seed " << seed;
    EXPECT_EQ(r.value, 2) << "seed " << seed;
  }
}

TEST(QuorumStore, TargetedModeUsesFewerMessages) {
  std::vector<quorum::QuorumSystem> configs{quorum::MajoritySystem(7)};
  Deployment broadcast(7, 1, configs, 0, LatencyModel::Fixed(1.0), 0.0, 3);
  Deployment narrow(7, 1, configs, 0, LatencyModel::Fixed(1.0), 0.0, 3,
                    {.target_minimal = true});
  OpResult rb, rt;
  broadcast.clients[0]->Read([&](const OpResult& r) { rb = r; });
  broadcast.sim.Run();
  narrow.clients[0]->Read([&](const OpResult& r) { rt = r; });
  narrow.sim.Run();
  ASSERT_TRUE(rb.ok && rt.ok);
  EXPECT_LT(rt.messages, rb.messages);
}

TEST(QuorumStore, ReconfigurationRestoresWriteAvailability) {
  // E9 scenario: majority(5); crash 2; reconfigure to majority over
  // {0,1,2}; crash another; writes still succeed — without the
  // reconfiguration they could not.
  std::vector<quorum::QuorumSystem> configs{
      quorum::MajoritySystem(5),
      quorum::FromConfiguration(
          "majority-of-012",
          quorum::Configuration({{0, 1}, {0, 2}, {1, 2}},
                                {{0, 1}, {0, 2}, {1, 2}}))};
  Deployment d(5, 1, configs, 0, LatencyModel::Fixed(1.0), 0.0, 9);
  d.net.Crash(3);
  d.net.Crash(4);

  OpResult rc;
  d.clients[0]->Reconfigure(1, [&](const OpResult& r) { rc = r; });
  d.sim.Run();
  ASSERT_TRUE(rc.ok);
  EXPECT_EQ(d.clients[0]->BelievedConfig(), 1u);
  EXPECT_EQ(d.clients[0]->BelievedGeneration(), 1u);

  d.net.Crash(2);
  OpResult w;
  d.clients[0]->Write(55, [&](const OpResult& r) { w = r; });
  d.sim.Run();
  EXPECT_TRUE(w.ok);

  OpResult r;
  d.clients[0]->Read([&](const OpResult& res) { r = res; });
  d.sim.Run();
  ASSERT_TRUE(r.ok);
  EXPECT_EQ(r.value, 55);
}

TEST(QuorumStore, WithoutReconfigurationTheSameCrashesBlockWrites) {
  Deployment d = MakeDeployment(5, 1);
  d.net.Crash(3);
  d.net.Crash(4);
  d.net.Crash(2);
  OpResult w;
  d.clients[0]->Write(55, [&](const OpResult& r) { w = r; });
  d.sim.Run();
  EXPECT_FALSE(w.ok);
}

TEST(QuorumStore, SecondClientAdoptsNewConfiguration) {
  std::vector<quorum::QuorumSystem> configs{
      quorum::MajoritySystem(3),
      quorum::FromConfiguration(
          "primary-0", quorum::Configuration({{0}}, {{0}}))};
  Deployment d(3, 2, configs, 0, LatencyModel::Fixed(1.0), 0.0, 5);
  OpResult rc;
  d.clients[0]->Reconfigure(1, [&](const OpResult& r) { rc = r; });
  d.sim.Run();
  ASSERT_TRUE(rc.ok);
  // Client 1 learns the new configuration from read responses.
  OpResult r;
  d.clients[1]->Read([&](const OpResult& res) { r = res; });
  d.sim.Run();
  ASSERT_TRUE(r.ok);
  EXPECT_EQ(d.clients[1]->BelievedConfig(), 1u);
}

TEST(QuorumStore, StaleGenerationWriteIsFencedAndTeachesTheStamp) {
  // Client 0's stamp lands at t = 3, between client 1's read phase
  // (replies at t = 2.5, all at generation 0) and its write phase
  // (requests arrive at t = 3.5): every replica refuses the stale install.
  std::vector<quorum::QuorumSystem> configs{quorum::MajoritySystem(3),
                                            quorum::MajoritySystem(3)};
  Deployment d(3, 2, configs, 0, LatencyModel::Fixed(1.0), 0.0, 5);
  OpResult rc, w;
  d.clients[0]->Reconfigure(1, [&](const OpResult& r) { rc = r; });
  d.sim.At(0.5, [&] {
    d.clients[1]->Write(77, [&](const OpResult& r) { w = r; });
  });
  d.sim.Run();
  ASSERT_TRUE(rc.ok);
  EXPECT_FALSE(w.ok);  // never completes under the old generation
  EXPECT_LT(w.latency, 10.0);  // refused at t = 4.5, not timed out
  EXPECT_EQ(d.clients[1]->BelievedGeneration(), 1u);  // learned from NACKs
  EXPECT_EQ(d.clients[1]->BelievedConfig(), 1u);
  for (const auto& replica : d.replicas) {
    EXPECT_EQ(replica->State().generation, 1u);
    EXPECT_EQ(replica->State().data.at("").version, 0u);  // nothing installed
  }

  // Under the learned stamp the same client's next write goes through.
  OpResult w2, r;
  d.clients[1]->Write(78, [&](const OpResult& res) { w2 = res; });
  d.sim.Run();
  EXPECT_TRUE(w2.ok);
  d.clients[0]->Read([&](const OpResult& res) { r = res; });
  d.sim.Run();
  ASSERT_TRUE(r.ok);
  EXPECT_EQ(r.value, 78);
}

}  // namespace
}  // namespace qcnt::sim
