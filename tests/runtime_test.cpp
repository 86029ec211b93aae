// Tests for the threaded runtime: mailboxes, the bus, replica servers, and
// the blocking ReplicatedStore public API under crashes and reconfiguration.
#include <gtest/gtest.h>

#include <mutex>
#include <set>
#include <thread>

#include "runtime/store.hpp"

namespace qcnt::runtime {
namespace {

using namespace std::chrono_literals;

TEST(Mailbox, PushPop) {
  net::Mailbox mb;
  mb.Push(Envelope{3, RtMessage{RtMessage::Kind::kReadReq, 7, "k", 0, 0, 0, 0}});
  auto e = mb.Pop(std::chrono::steady_clock::now() + 100ms);
  ASSERT_TRUE(e.has_value());
  EXPECT_EQ(e->from, 3u);
  EXPECT_EQ(e->msg.op, 7u);
  EXPECT_EQ(e->msg.key, "k");
}

TEST(Mailbox, PopTimesOut) {
  net::Mailbox mb;
  const auto t0 = std::chrono::steady_clock::now();
  auto e = mb.Pop(t0 + 50ms);
  EXPECT_FALSE(e.has_value());
  EXPECT_GE(std::chrono::steady_clock::now() - t0, 45ms);
}

TEST(Mailbox, CloseWakesWaiters) {
  net::Mailbox mb;
  std::thread closer([&] {
    std::this_thread::sleep_for(20ms);
    mb.Close();
  });
  auto batch = mb.PopAll();  // would block forever without Close
  EXPECT_TRUE(batch.empty());
  closer.join();
}

TEST(Mailbox, PopAllDrainsWholeQueueAtOnce) {
  net::Mailbox mb;
  for (std::uint64_t op = 1; op <= 5; ++op) {
    mb.Push(Envelope{1, RtMessage{RtMessage::Kind::kReadReq, op, "k",
                                  0, 0, 0, 0}});
  }
  auto batch = mb.PopAll();
  ASSERT_EQ(batch.size(), 5u);
  for (std::uint64_t op = 1; op <= 5; ++op) {
    EXPECT_EQ(batch[op - 1].msg.op, op);  // FIFO preserved
  }
  EXPECT_EQ(mb.Size(), 0u);
}

TEST(Mailbox, TryPopAllNeverBlocks) {
  net::Mailbox mb;
  EXPECT_TRUE(mb.TryPopAll().empty());
  mb.Push(Envelope{2, RtMessage{RtMessage::Kind::kReadReq, 1, "k",
                                0, 0, 0, 0}});
  EXPECT_EQ(mb.TryPopAll().size(), 1u);
  EXPECT_TRUE(mb.TryPopAll().empty());
}

TEST(Mailbox, PushAfterCloseIgnored) {
  net::Mailbox mb;
  mb.Close();
  mb.Push(Envelope{});
  EXPECT_EQ(mb.Size(), 0u);
}

TEST(Bus, DropsToCrashedNode) {
  Bus bus(2);
  bus.Crash(1);
  bus.Send(0, 1, {});
  EXPECT_EQ(bus.MailboxOf(1).Size(), 0u);
  EXPECT_EQ(bus.MessagesDropped(), 1u);
  bus.Recover(1);
  bus.Send(0, 1, {});
  EXPECT_EQ(bus.MailboxOf(1).Size(), 1u);
}

TEST(Bus, RecoverReopensMailboxClosedByShutdownRace) {
  // Regression: a node that crashes while the bus is closing (CloseAll
  // during store teardown racing a Crash/Recover sequence) used to come
  // back "up" with a permanently closed mailbox — every subsequent send
  // was accepted by the bus and silently dropped by the mailbox.
  Bus bus(2);
  bus.Crash(1);
  bus.CloseAll();  // shutdown ordering: close wins the race
  bus.Recover(1);
  bus.Send(0, 1, {});
  EXPECT_EQ(bus.MailboxOf(1).Size(), 1u);
  EXPECT_EQ(bus.MessagesDropped(), 0u);
}

TEST(Bus, CrashRecoverSendDeliversAfterClose) {
  Bus bus(3);
  bus.CloseAll();
  bus.Crash(2);
  bus.Recover(2);
  bus.Send(0, 2, RtMessage{RtMessage::Kind::kReadReq, 9, "k", 0, 0, 0, 0});
  auto e = bus.MailboxOf(2).Pop(std::chrono::steady_clock::now() + 100ms);
  ASSERT_TRUE(e.has_value());
  EXPECT_EQ(e->msg.op, 9u);
}

TEST(ReplicaServer, ReadResponseEntriesCarryNoKey) {
  // A read response answers each entry by op: version and value, no key
  // echoed back (the client never reads it; on the wire it is dead bytes).
  Bus bus(2);
  ReplicaServer replica(bus, 0, storage::MakeMemoryBackend(),
                        /*record_history=*/false);
  const auto pop = [&] {
    return bus.MailboxOf(1).Pop(std::chrono::steady_clock::now() + 5s);
  };
  RtMessage w;
  w.kind = RtMessage::Kind::kBatchWriteReq;
  w.op = 1;
  w.batch = {BatchEntry{1, "present", 3, 30}};
  ASSERT_TRUE(bus.Send(1, 0, w));
  ASSERT_TRUE(pop().has_value());

  RtMessage r;
  r.kind = RtMessage::Kind::kBatchReadReq;
  r.op = 2;
  r.batch = {BatchEntry{2, "present", 0, 0}, BatchEntry{3, "absent", 0, 0}};
  ASSERT_TRUE(bus.Send(1, 0, r));
  auto e = pop();
  ASSERT_TRUE(e.has_value());
  ASSERT_EQ(e->msg.kind, RtMessage::Kind::kBatchReadResp);
  ASSERT_EQ(e->msg.batch.size(), 2u);
  EXPECT_EQ(e->msg.batch[0].op, 2u);
  EXPECT_EQ(e->msg.batch[0].version, 3u);
  EXPECT_EQ(e->msg.batch[0].value, 30);
  EXPECT_EQ(e->msg.batch[1].op, 3u);
  EXPECT_EQ(e->msg.batch[1].version, 0u);
  EXPECT_EQ(e->msg.batch[1].value, 0);
  for (const BatchEntry& entry : e->msg.batch) {
    EXPECT_TRUE(entry.key.empty()) << "op " << entry.op << " echoed its key";
  }
  replica.Shutdown();
  bus.CloseAll();
}

TEST(ReplicatedStore, WriteThenRead) {
  ReplicatedStore store(StoreOptions{.replicas = 3});
  auto client = store.MakeClient();
  const ClientResult w = client->Write("alpha", 42);
  ASSERT_TRUE(w.ok);
  const ClientResult r = client->Read("alpha");
  ASSERT_TRUE(r.ok);
  EXPECT_EQ(r.value, 42);
}

TEST(ReplicatedStore, IndependentKeys) {
  ReplicatedStore store(StoreOptions{.replicas = 3});
  auto client = store.MakeClient();
  ASSERT_TRUE(client->Write("a", 1).ok);
  ASSERT_TRUE(client->Write("b", 2).ok);
  EXPECT_EQ(client->Read("a").value, 1);
  EXPECT_EQ(client->Read("b").value, 2);
  // Unwritten keys read the initial value 0.
  const ClientResult r = client->Read("c");
  ASSERT_TRUE(r.ok);
  EXPECT_EQ(r.value, 0);
}

TEST(ReplicatedStore, CrossClientVisibility) {
  ReplicatedStore store(StoreOptions{.replicas = 5});
  auto writer = store.MakeClient();
  auto reader = store.MakeClient();
  ASSERT_TRUE(writer->Write("x", 11).ok);
  const ClientResult r = reader->Read("x");
  ASSERT_TRUE(r.ok);
  EXPECT_EQ(r.value, 11);
}

TEST(ReplicatedStore, ToleratesMinorityCrash) {
  ReplicatedStore store(StoreOptions{.replicas = 5});
  auto client = store.MakeClient();
  ASSERT_TRUE(client->Write("x", 5).ok);
  store.Crash(0);
  store.Crash(1);
  const ClientResult w = store.MakeClient()->Write("x", 6);
  EXPECT_TRUE(w.ok);
  const ClientResult r = client->Read("x");
  ASSERT_TRUE(r.ok);
  EXPECT_EQ(r.value, 6);
}

TEST(ReplicatedStore, MajorityCrashBlocksThenRecoveryHeals) {
  StoreOptions options;
  options.replicas = 3;
  options.client_options.timeout = 100ms;
  ReplicatedStore store(std::move(options));
  auto client = store.MakeClient();
  ASSERT_TRUE(client->Write("x", 1).ok);
  store.Crash(1);
  store.Crash(2);
  const ClientResult blocked = client->Write("x", 2);
  EXPECT_FALSE(blocked.ok);
  store.Recover(1);
  const ClientResult healed = client->Write("x", 3);
  EXPECT_TRUE(healed.ok);
  EXPECT_EQ(client->Read("x").value, 3);
}

TEST(ReplicatedStore, ConcurrentClientsConverge) {
  ReplicatedStore store(StoreOptions{.replicas = 5, .max_clients = 8});
  constexpr int kThreads = 4, kOpsPerThread = 25;
  std::vector<std::thread> threads;
  std::atomic<int> failures{0};
  for (int t = 0; t < kThreads; ++t) {
    auto client = store.MakeClient();
    threads.emplace_back([client = std::move(client), t, &failures] {
      for (int i = 0; i < kOpsPerThread; ++i) {
        const std::int64_t v = t * 1000 + i;
        if (!client->Write("ctr", v).ok) ++failures;
        if (!client->Read("ctr").ok) ++failures;
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(failures.load(), 0);
  // The final value is whichever write carried the highest version; it must
  // be one of the written values and reads must agree across clients.
  auto c1 = store.MakeClient();
  auto c2 = store.MakeClient();
  const ClientResult r1 = c1->Read("ctr");
  const ClientResult r2 = c2->Read("ctr");
  ASSERT_TRUE(r1.ok && r2.ok);
  EXPECT_EQ(r1.value, r2.value);
}

TEST(ReplicatedStore, ReconfigurationRestoresAvailability) {
  StoreOptions options;
  options.replicas = 5;
  options.configs = {
      quorum::MajoritySystem(5),
      quorum::FromConfiguration(
          "majority-of-012",
          quorum::Configuration({{0, 1}, {0, 2}, {1, 2}},
                                {{0, 1}, {0, 2}, {1, 2}}))};
  options.client_options.timeout = 150ms;
  ReplicatedStore store(std::move(options));
  auto client = store.MakeClient();
  ASSERT_TRUE(client->Write("x", 1).ok);

  store.Crash(3);
  store.Crash(4);
  ASSERT_TRUE(client->Reconfigure(1).ok);
  EXPECT_EQ(client->BelievedConfig(), 1u);

  store.Crash(2);
  // Under the old majority(5) config only 2 replicas are up: writes would
  // fail. The new config needs 2 of {0,1,2}.
  const ClientResult w = client->Write("x", 2);
  EXPECT_TRUE(w.ok);
  EXPECT_EQ(client->Read("x").value, 2);
}

TEST(ReplicatedStore, ClientLimitEnforced) {
  ReplicatedStore store(StoreOptions{.replicas = 3, .max_clients = 1});
  auto c = store.MakeClient();
  EXPECT_ANY_THROW(store.MakeClient());
}

/// Clients may be created from several threads at once: each creation
/// claims a distinct node id, and exactly max_clients of them succeed.
TEST(ReplicatedStore, ConcurrentClientCreationClaimsDistinctSlots) {
  constexpr std::size_t kThreads = 8;
  constexpr std::size_t kPerThread = 4;
  constexpr std::size_t kMaxClients = 20;
  ReplicatedStore store(
      StoreOptions{.replicas = 3, .max_clients = kMaxClients});
  std::mutex mu;
  std::vector<NodeId> ids;
  std::size_t refused = 0;
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (std::size_t i = 0; i < kPerThread; ++i) {
        try {
          // Alternate kinds: both draw from the one max_clients budget.
          const NodeId id = (t + i) % 2 == 0 ? store.MakeClient()->Id()
                                             : store.MakeAsyncClient()->Id();
          const std::lock_guard<std::mutex> lock(mu);
          ids.push_back(id);
        } catch (const InvariantViolation&) {
          const std::lock_guard<std::mutex> lock(mu);
          ++refused;
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(ids.size(), kMaxClients);
  EXPECT_EQ(refused, kThreads * kPerThread - kMaxClients);
  // Distinct ids, exactly the client slots [replicas, replicas + max).
  const std::set<NodeId> distinct(ids.begin(), ids.end());
  EXPECT_EQ(distinct.size(), kMaxClients);
  EXPECT_EQ(*distinct.begin(), 3u);
  EXPECT_EQ(*distinct.rbegin(), 3u + kMaxClients - 1);
}

}  // namespace
}  // namespace qcnt::runtime
