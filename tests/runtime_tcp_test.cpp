// End-to-end quorum workloads over a TCP-backed ReplicatedStore: the
// same store API the rest of the suite exercises on the in-process Bus,
// but with every cross-node message riding loopback TCP through the real
// codec + socket + event-loop path.
#include <set>
#include <string>

#include <gtest/gtest.h>

#include "net/error.hpp"
#include "runtime/store.hpp"

namespace qcnt::runtime {
namespace {

StoreOptions TcpOptions(std::size_t replicas) {
  StoreOptions o;
  o.replicas = replicas;
  o.tcp = TcpStoreOptions{};  // ephemeral loopback ports
  // Real sockets mean real (if tiny) latency; allow a retry so a slow CI
  // machine cannot fail a correctness test on timing.
  o.client_options.max_attempts = 3;
  return o;
}

TEST(RuntimeTcp, StoreReportsTcpTransport) {
  ReplicatedStore store(TcpOptions(3));
  EXPECT_TRUE(store.OverTcp());
  EXPECT_STREQ(store.TransportName(), "tcp");
  ReplicatedStore bus_store(StoreOptions{.replicas = 3});
  EXPECT_FALSE(bus_store.OverTcp());
  EXPECT_STREQ(bus_store.TransportName(), "bus");
}

TEST(RuntimeTcp, QuorumReadWriteOverLoopback) {
  ReplicatedStore store(TcpOptions(3));
  auto client = store.MakeClient();
  for (int i = 0; i < 50; ++i) {
    const std::string key = "k" + std::to_string(i % 7);
    auto w = client->Write(key, i);
    ASSERT_TRUE(w.ok) << ToString(w.status);
    auto r = client->Read(key);
    ASSERT_TRUE(r.ok) << ToString(r.status);
    EXPECT_EQ(r.value, i);
  }
  // Real frames crossed real sockets.
  const auto wire = store.WireStats();
  EXPECT_GT(wire.frames_sent, 0u);
  EXPECT_GT(wire.frames_received, 0u);
  EXPECT_GT(wire.bytes_sent, 0u);
  EXPECT_EQ(wire.decode_errors, 0u);
}

TEST(RuntimeTcp, SurvivesCrashAndRecoverWithinQuorum) {
  ReplicatedStore store(TcpOptions(5));
  auto client = store.MakeClient();
  ASSERT_TRUE(client->Write("durable", 1).ok);

  store.Crash(0);
  store.Crash(1);
  ASSERT_TRUE(client->Write("durable", 2).ok);  // 3-of-5 still a majority
  auto r = client->Read("durable");
  ASSERT_TRUE(r.ok);
  EXPECT_EQ(r.value, 2);

  store.Recover(0);
  store.Recover(1);
  r = client->Read("durable");
  ASSERT_TRUE(r.ok);
  EXPECT_EQ(r.value, 2);
}

TEST(RuntimeTcp, AsyncPipelinedClientOverLoopback) {
  ReplicatedStore store(TcpOptions(3));
  auto client = store.MakeAsyncClient();
  std::vector<OpFuture> writes;
  for (int i = 0; i < 40; ++i) {
    writes.push_back(client->SubmitWrite("a" + std::to_string(i % 5), i));
  }
  client->Flush();
  for (auto& f : writes) ASSERT_TRUE(f.Get().ok);
  for (int k = 0; k < 5; ++k) {
    auto r = client->SubmitRead("a" + std::to_string(k)).Get();
    ASSERT_TRUE(r.ok);
    EXPECT_EQ(r.value, 35 + k);  // last write wins per key
  }
}

TEST(RuntimeTcp, MultipleClientsShareTheWire) {
  ReplicatedStore store(TcpOptions(3));
  auto c1 = store.MakeClient();
  auto c2 = store.MakeClient();
  ASSERT_TRUE(c1->Write("shared", 10).ok);
  auto r = c2->Read("shared");
  ASSERT_TRUE(r.ok);
  EXPECT_EQ(r.value, 10);
  ASSERT_TRUE(c2->Write("shared", 20).ok);
  r = c1->Read("shared");
  ASSERT_TRUE(r.ok);
  EXPECT_EQ(r.value, 20);
}

TEST(RuntimeTcp, FaultsPlusTcpThrowsAtConstruction) {
  StoreOptions o = TcpOptions(3);
  o.faults = FaultPlan{.drop = 0.1};
  EXPECT_THROW({ ReplicatedStore store(std::move(o)); },
               net::TransportConfigError);
}

TEST(RuntimeTcp, RuntimeFaultApisThrowOnTcpStore) {
  ReplicatedStore store(TcpOptions(3));
  const FaultPlan plan{.drop = 0.5};
  EXPECT_THROW(store.SetFaults(plan), net::TransportConfigError);
  EXPECT_THROW(store.SetLinkFaults(0, 1, plan), net::TransportConfigError);
  EXPECT_THROW(store.ClearFaults(), net::TransportConfigError);
  EXPECT_THROW(store.Partition({0}, {1, 2}), net::TransportConfigError);
  EXPECT_THROW(store.Heal(), net::TransportConfigError);
  EXPECT_THROW(store.FlushFaults(), net::TransportConfigError);
  EXPECT_THROW(store.InjectedFaults(), net::TransportConfigError);
  // And the store is still fully functional afterwards.
  auto client = store.MakeClient();
  ASSERT_TRUE(client->Write("still-alive", 1).ok);
}

TEST(RuntimeTcp, FaultApisStillWorkOnBusStore) {
  ReplicatedStore store(StoreOptions{.replicas = 3});
  EXPECT_NO_THROW(store.SetFaults(FaultPlan{.drop = 0.0}));
  EXPECT_NO_THROW(store.ClearFaults());
  EXPECT_NO_THROW(store.InjectedFaults());
}

}  // namespace
}  // namespace qcnt::runtime
