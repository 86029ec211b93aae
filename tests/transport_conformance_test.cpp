// Transport conformance: one behavioral suite, run against BOTH
// implementations — the in-process Bus and the TCP transport (a
// multi-instance loopback universe, one TcpTransport per node, shaped
// exactly like the multi-process deployment). Whatever the runtime is
// entitled to assume about its substrate is pinned here: delivery, FIFO
// per link, fail-stop crash semantics (drain pending, no delivery while
// down, recovery restores), reconnection after a peer restarts, and how
// a consumer waits on an empty mailbox (deadline, Close, local pushes).
#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "net/tcp_transport.hpp"
#include "runtime/bus.hpp"

namespace qcnt::net {
namespace {

using runtime::Bus;
using runtime::RtMessage;

// Sanitizer builds run several times slower than optimized ones, so a
// round trip there can outlast the spin budget: bounds on what the spin
// saves are judged only without a sanitizer.
#if defined(__SANITIZE_THREAD__) || defined(__SANITIZE_ADDRESS__)
constexpr bool kSanitized = true;
#else
constexpr bool kSanitized = false;
#endif

constexpr std::size_t kNodes = 3;

std::chrono::steady_clock::time_point In(int ms) {
  return std::chrono::steady_clock::now() + std::chrono::milliseconds(ms);
}

RtMessage Tagged(std::uint64_t op) {
  RtMessage m;
  m.kind = RtMessage::Kind::kWriteReq;
  m.op = op;
  m.key = "key-" + std::to_string(op);
  m.version = op * 2;
  m.value = static_cast<std::int64_t>(op) - 10;
  return m;
}

/// A universe of kNodes nodes. HostOf(n) is the Transport instance that
/// hosts node n — the instance n sends from, crashes on, and receives
/// through; with the Bus that is one shared instance, with TCP it is
/// node n's own (process-equivalent) instance.
class Universe {
 public:
  virtual ~Universe() = default;
  virtual Transport& HostOf(NodeId node) = 0;
  /// Process-level restart of the node: with TCP the instance is torn
  /// down (connections reset) and rebuilt on a fresh ephemeral port, and
  /// every peer is re-targeted; with the Bus it is crash + recover.
  virtual void Restart(NodeId node) = 0;
  /// Membership growth: add one brand-new node to the running universe
  /// (Bus::AddNode; with TCP a fresh hosting instance whose endpoint is
  /// taught to every founding instance via SetPeerEndpoint under an id
  /// none of them had ever seen). Returns the new node's id.
  virtual NodeId AddNodeAfterStart() = 0;
};

class BusUniverse : public Universe {
 public:
  BusUniverse() : bus_(kNodes) {}
  ~BusUniverse() override { bus_.CloseAll(); }
  Transport& HostOf(NodeId) override { return bus_; }
  void Restart(NodeId node) override {
    bus_.Crash(node);
    bus_.Recover(node);
  }
  NodeId AddNodeAfterStart() override { return bus_.AddNode(); }

 private:
  Bus bus_;
};

class TcpUniverse : public Universe {
 public:
  TcpUniverse() {
    for (NodeId n = 0; n < kNodes; ++n) instances_.push_back(Spawn(n));
    WireAll();
  }
  ~TcpUniverse() override {
    for (auto& t : instances_) {
      if (t) t->CloseAll();
    }
  }

  Transport& HostOf(NodeId node) override { return *instances_[node]; }

  void Restart(NodeId node) override {
    instances_[node].reset();  // closes listener + connections (EOF peers)
    instances_[node] = Spawn(node);
    WireAll();  // new ephemeral port: everyone re-targets, both directions
  }

  NodeId AddNodeAfterStart() override {
    // A brand-new id no founding instance has ever seen: the joining
    // instance knows the full universe size, the founders learn of it
    // only through SetPeerEndpoint (which must grow their logical node
    // count past the construction-time universe).
    const NodeId id = static_cast<NodeId>(instances_.size());
    instances_.push_back(Spawn(id));
    WireAll();
    return id;
  }

 private:
  static std::unique_ptr<TcpTransport> Spawn(NodeId node) {
    TcpTransportOptions o;
    o.universe.resize(
        std::max<std::size_t>(kNodes, node + 1));  // ports 0: own =
                                // ephemeral bind, peers unknown until
                                // WireAll
    return std::make_unique<TcpTransport>(std::move(o), std::vector<NodeId>{node});
  }

  void WireAll() {
    const NodeId n = static_cast<NodeId>(instances_.size());
    for (NodeId i = 0; i < n; ++i) {
      for (NodeId j = 0; j < n; ++j) {
        if (i == j) continue;
        instances_[i]->SetPeerEndpoint(j,
                                       instances_[j]->ActualEndpoint(j));
      }
    }
  }

  std::vector<std::unique_ptr<TcpTransport>> instances_;
};

class TransportConformance : public ::testing::TestWithParam<const char*> {
 protected:
  void SetUp() override {
    if (std::string(GetParam()) == "bus") {
      universe_ = std::make_unique<BusUniverse>();
    } else {
      universe_ = std::make_unique<TcpUniverse>();
    }
  }

  Transport& Host(NodeId n) { return universe_->HostOf(n); }

  /// Send and require eventual delivery (TCP connects lazily; the first
  /// frame rides the connect handshake).
  Envelope MustDeliver(NodeId from, NodeId to, RtMessage m) {
    EXPECT_TRUE(Host(from).Send(from, to, std::move(m)));
    auto e = Host(to).MailboxOf(to).Pop(In(5000));
    EXPECT_TRUE(e.has_value()) << "no delivery " << from << "->" << to;
    return e.value_or(Envelope{});
  }

  std::unique_ptr<Universe> universe_;
};

TEST_P(TransportConformance, DeliversAcrossNodesWithFieldsIntact) {
  Envelope e = MustDeliver(0, 1, Tagged(7));
  EXPECT_EQ(e.from, 0u);
  EXPECT_EQ(e.msg.op, 7u);
  EXPECT_EQ(e.msg.key, "key-7");
  EXPECT_EQ(e.msg.version, 14u);
  EXPECT_EQ(e.msg.value, -3);
}

TEST_P(TransportConformance, SelfSendDelivers) {
  Envelope e = MustDeliver(2, 2, Tagged(1));
  EXPECT_EQ(e.from, 2u);
  EXPECT_EQ(e.msg.op, 1u);
}

TEST_P(TransportConformance, FifoPerLink) {
  constexpr std::uint64_t kCount = 200;
  for (std::uint64_t i = 0; i < kCount; ++i) {
    ASSERT_TRUE(Host(0).Send(0, 1, Tagged(i)));
  }
  for (std::uint64_t i = 0; i < kCount; ++i) {
    auto e = Host(1).MailboxOf(1).Pop(In(5000));
    ASSERT_TRUE(e.has_value()) << "lost message " << i;
    EXPECT_EQ(e->msg.op, i) << "reordered at " << i;
  }
}

TEST_P(TransportConformance, BatchMessagesSurviveTransit) {
  RtMessage m;
  m.kind = RtMessage::Kind::kBatchWriteReq;
  m.op = 99;
  for (std::uint64_t i = 0; i < 32; ++i) {
    m.batch.push_back({i, "batch-key-" + std::to_string(i), i + 1,
                       static_cast<std::int64_t>(i * 1000)});
  }
  Envelope e = MustDeliver(1, 0, std::move(m));
  ASSERT_EQ(e.msg.batch.size(), 32u);
  EXPECT_EQ(e.msg.batch[31].key, "batch-key-31");
  EXPECT_EQ(e.msg.batch[31].value, 31000);
}

// --- Receive path: frames larger than one TCP read, and bursts large
// enough that the receiver's buffer must make room under a partial tail.

TEST_P(TransportConformance, BatchFrameLargerThanOneReadArrivesIntact) {
  // ~200 KiB in one frame: TCP reads it in 64 KiB chunks and must
  // reassemble it before decoding.
  constexpr std::uint64_t kEntries = 2000;
  RtMessage m;
  m.kind = RtMessage::Kind::kBatchWriteReq;
  m.op = 77;
  for (std::uint64_t i = 0; i < kEntries; ++i) {
    m.batch.push_back({i, std::string(80, static_cast<char>('a' + i % 26)) +
                              std::to_string(i),
                       i * 3, -static_cast<std::int64_t>(i)});
  }
  Envelope e = MustDeliver(0, 2, std::move(m));
  EXPECT_EQ(e.msg.op, 77u);
  ASSERT_EQ(e.msg.batch.size(), kEntries);
  for (std::uint64_t i = 0; i < kEntries; ++i) {
    const runtime::BatchEntry& b = e.msg.batch[i];
    ASSERT_EQ(b.op, i);
    ASSERT_EQ(b.key, std::string(80, static_cast<char>('a' + i % 26)) +
                         std::to_string(i));
    ASSERT_EQ(b.version, i * 3);
    ASSERT_EQ(b.value, -static_cast<std::int64_t>(i));
  }
}

TEST_P(TransportConformance, BurstBeyondOneMiBArrivesInOrderIntact) {
  // Send ~1.5 MiB of ~1 KiB frames before the receiver pops anything.
  // Read boundaries land mid-frame, so the receive buffer keeps making
  // room while holding a partial tail; order and every field must
  // survive that.
  constexpr std::uint64_t kCount = 1500;
  auto key_of = [](std::uint64_t i) {
    return std::string(1000, static_cast<char>('A' + i % 26)) + "#" +
           std::to_string(i);
  };
  for (std::uint64_t i = 0; i < kCount; ++i) {
    RtMessage m = Tagged(i);
    m.key = key_of(i);
    ASSERT_TRUE(Host(1).Send(1, 0, std::move(m))) << "refused at " << i;
  }
  for (std::uint64_t i = 0; i < kCount; ++i) {
    auto e = Host(0).MailboxOf(0).Pop(In(5000));
    ASSERT_TRUE(e.has_value()) << "lost message " << i;
    ASSERT_EQ(e->from, 1u);
    ASSERT_EQ(e->msg.op, i) << "reordered at " << i;
    ASSERT_EQ(e->msg.key, key_of(i));
    ASSERT_EQ(e->msg.version, i * 2);
    ASSERT_EQ(e->msg.value, static_cast<std::int64_t>(i) - 10);
  }
}

TEST_P(TransportConformance, ConcurrentSendersToOnePeerArriveOnceInSenderOrder) {
  // Several threads of one node send to the same peer at once: over TCP
  // they share one connection and one write queue, and each writes
  // through it on its own thread.
  constexpr std::uint64_t kSenders = 4;
  constexpr std::uint64_t kPerSender = 2000;
  Transport& host = universe_->HostOf(0);
  std::atomic<std::uint64_t> refused{0};
  std::vector<std::thread> senders;
  for (std::uint64_t s = 0; s < kSenders; ++s) {
    senders.emplace_back([&, s] {
      for (std::uint64_t i = 0; i < kPerSender; ++i) {
        if (!host.Send(0, 1, Tagged(s << 32 | i))) ++refused;
      }
    });
  }
  std::vector<RtMessage> got;
  Mailbox& mb = universe_->HostOf(1).MailboxOf(1);
  while (got.size() < kSenders * kPerSender) {
    auto e = mb.Pop(In(10000));
    if (!e) break;
    got.push_back(std::move(e->msg));
  }
  for (std::thread& t : senders) t.join();
  EXPECT_EQ(refused.load(), 0u);
  ASSERT_EQ(got.size(), kSenders * kPerSender);
  std::vector<std::uint64_t> next(kSenders, 0);
  for (const RtMessage& m : got) {
    const std::uint64_t s = m.op >> 32;
    ASSERT_LT(s, kSenders) << "op " << m.op;
    ASSERT_EQ(m.op & 0xffffffffu, next[s]) << "sender " << s;
    ++next[s];
    const RtMessage want = Tagged(m.op);
    EXPECT_EQ(m.key, want.key);
    EXPECT_EQ(m.version, want.version);
    EXPECT_EQ(m.value, want.value);
  }
  EXPECT_FALSE(mb.Pop(In(50)).has_value()) << "a frame arrived twice";
}

TEST_P(TransportConformance, ParkedConsumerWakesOnPushAndOnClose) {
  // A consumer parked on an empty mailbox (on the Bus's condvar, or in
  // the TCP node's receive set) wakes promptly for a local push — the
  // path self-sends and the replica's control messages take — and for
  // Close.
  using Clock = std::chrono::steady_clock;
  Mailbox& box = Host(1).MailboxOf(1);
  const auto parked_pop = [&](auto&& wake, bool expect_message) {
    std::atomic<Clock::rep> returned{0};
    std::thread consumer([&] {
      EXPECT_EQ(box.Pop(In(5000)).has_value(), expect_message);
      returned.store(Clock::now().time_since_epoch().count());
    });
    std::this_thread::sleep_for(std::chrono::milliseconds(50));  // parks
    const Clock::time_point woken = Clock::now();
    wake();
    consumer.join();
    const Clock::time_point at{Clock::duration(returned.load())};
    EXPECT_LT(at - woken, std::chrono::milliseconds(100));
  };
  parked_pop([&] { box.Push(Envelope{1, Tagged(5)}); }, true);
  parked_pop([&] { box.Close(); }, false);
  box.Reopen();
}

// --- Waiting on an empty mailbox. A consumer spins (on the Bus's size
// mirror, or on pulls from the TCP node's receive set) for up to its
// mailbox's SpinBudget(), then parks; either way its wait ends at its
// deadline, on Close, and on a local push.

TEST_P(TransportConformance, SpinEndsAtThePopDeadline) {
  Mailbox& box = Host(1).MailboxOf(1);
  const auto wait = box.SpinBudget() / 4;
  // The fastest of many tries: a preempted try can only run long, and a
  // spin that ignored the deadline would never return before the budget.
  auto fastest = std::chrono::steady_clock::duration::max();
  for (int i = 0; i < 50; ++i) {
    const auto start = std::chrono::steady_clock::now();
    EXPECT_FALSE(box.Pop(start + wait).has_value());
    const auto took = std::chrono::steady_clock::now() - start;
    EXPECT_GE(took, wait) << "an empty Pop returned before its deadline";
    fastest = std::min(fastest, took);
  }
  if (Spinners::Cap() >= 1) {
    EXPECT_LT(fastest, box.SpinBudget());
  }
}

TEST_P(TransportConformance, CloseEndsASpinningConsumer) {
  using Clock = std::chrono::steady_clock;
  Mailbox& box = Host(1).MailboxOf(1);
  // A spinning consumer sees Close on its next spin step, well inside
  // the budget; one that ignored it would spin the budget out. A
  // preempted trial can only run long, so the best of five is judged.
  auto best = Clock::duration::max();
  for (int trial = 0; trial < 5; ++trial) {
    const std::uint64_t spins = box.Spins();
    std::atomic<Clock::rep> returned{0};
    std::thread consumer([&] {
      EXPECT_FALSE(box.Pop(In(10000)).has_value());
      returned.store(Clock::now().time_since_epoch().count());
    });
    // Close as soon as the consumer starts its wait (spinning, or parked
    // when no spinner slot is free or the spin already ended).
    const auto give_up = In(1000);
    while (box.Spins() == spins && Clock::now() < give_up) {
      std::this_thread::yield();
    }
    const Clock::time_point closed_at = Clock::now();
    box.Close();
    consumer.join();
    box.Reopen();
    const Clock::time_point at{Clock::duration(returned.load())};
    EXPECT_LT(at - closed_at, std::chrono::seconds(1))
        << "Close must end the wait, not its 10 s deadline";
    best = std::min(best, at - closed_at);
  }
  if (Spinners::Cap() >= 1 && !kSanitized) {
    EXPECT_LT(best, box.SpinBudget() / 2)
        << "the spin went on after Close";
  }
}

// An observer's pulls (Size() from another thread, as a crash hook
// makes) must leave the parked consumer's wake alone: with TCP the local
// push's notify is an eventfd write that only the consumer's park may
// read.
TEST_P(TransportConformance, ObserverPullsNeverSwallowAWake) {
  using Clock = std::chrono::steady_clock;
  Mailbox& box = Host(1).MailboxOf(1);
  std::atomic<bool> stop{false};
  std::thread observer([&] {
    while (!stop.load()) (void)box.Size();
  });
  for (std::uint64_t round = 0; round < 3; ++round) {
    std::atomic<Clock::rep> returned{0};
    std::thread consumer([&] {
      EXPECT_TRUE(box.Pop(In(5000)).has_value());
      returned.store(Clock::now().time_since_epoch().count());
    });
    std::this_thread::sleep_for(std::chrono::milliseconds(50));  // parks
    const Clock::time_point pushed = Clock::now();
    box.Push(Envelope{1, Tagged(round)});
    consumer.join();
    const Clock::time_point at{Clock::duration(returned.load())};
    EXPECT_LT(at - pushed, std::chrono::milliseconds(100))
        << "round " << round << ": the parked consumer missed its wake";
  }
  stop.store(true);
  observer.join();
}

// A Pop returns at its deadline, not at the next whole millisecond: the
// client's first retry backoff is 1-2 ms, so a millisecond of overshoot
// would stretch it by up to 2x. A preempted try can only run long, so
// the best of five is judged.
TEST_P(TransportConformance, PopReturnsNearItsDeadline) {
  Mailbox& box = Host(1).MailboxOf(1);
  const auto wait = std::chrono::microseconds(300);
  auto best = std::chrono::steady_clock::duration::max();
  for (int trial = 0; trial < 5; ++trial) {
    const auto start = std::chrono::steady_clock::now();
    EXPECT_FALSE(box.Pop(start + wait).has_value());
    const auto took = std::chrono::steady_clock::now() - start;
    EXPECT_GE(took, wait) << "an empty Pop returned before its deadline";
    best = std::min(best, took - wait);
  }
  EXPECT_LT(best, std::chrono::microseconds(500))
      << "the best Pop overshot its deadline by "
      << std::chrono::duration_cast<std::chrono::microseconds>(best).count()
      << " us";
}

TEST_P(TransportConformance, CrashDrainsPendingMessages) {
  // Queue deliveries into node 1's mailbox without popping them...
  for (std::uint64_t i = 0; i < 5; ++i) {
    ASSERT_TRUE(Host(0).Send(0, 1, Tagged(i)));
  }
  net::Mailbox& box = Host(1).MailboxOf(1);
  const auto deadline = In(5000);
  while (box.Size() < 5 && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::yield();
  }
  ASSERT_EQ(box.Size(), 5u);
  // ...then fail-stop: the backlog dies with the node.
  Host(1).Crash(1);
  EXPECT_EQ(box.Size(), 0u);
  EXPECT_FALSE(box.Pop(In(50)).has_value());
}

TEST_P(TransportConformance, NoDeliveryWhileCrashedAndRecoverRestores) {
  // Warm the link so the TCP connection is established before the crash
  // (this test is about delivery policy, not connection setup).
  MustDeliver(0, 1, Tagged(1));

  Host(1).Crash(1);
  EXPECT_FALSE(Host(1).IsUp(1));
  ASSERT_TRUE(Host(0).Send(0, 1, Tagged(2)) || true);  // may drop at send
  // Give the frame ample time to traverse loopback and be dropped at
  // dispatch (the up-check happens at delivery time).
  EXPECT_FALSE(Host(1).MailboxOf(1).Pop(In(200)).has_value());

  Host(1).Recover(1);
  EXPECT_TRUE(Host(1).IsUp(1));
  Envelope e = MustDeliver(0, 1, Tagged(3));
  // The marker, not the message sent while down.
  EXPECT_EQ(e.msg.op, 3u);
}

TEST_P(TransportConformance, SendFromCrashedNodeIsDropped) {
  MustDeliver(2, 0, Tagged(1));  // link warm, node 2 known good
  Host(2).Crash(2);
  EXPECT_FALSE(Host(2).Send(2, 0, Tagged(2)));
  EXPECT_FALSE(Host(0).MailboxOf(0).Pop(In(100)).has_value());
  Host(2).Recover(2);
}

TEST_P(TransportConformance, CrashHookOwnsBacklogAndRecoverHookRuns) {
  // Contract: with a crash hook installed, Crash marks the node down and
  // then hands the *intact* backlog to the hook — the hook decides the
  // drain cut (a replica server pushes a marker through it). The mailbox
  // must be empty by the time Crash returns only because the hook made it
  // so. Recover runs the recover hook after the node is back up.
  std::atomic<int> ran{0};
  std::atomic<int> recovered{0};
  std::atomic<std::size_t> size_at_hook{0};
  std::atomic<bool> down_at_hook{false};
  net::Mailbox& box = Host(1).MailboxOf(1);
  Host(1).SetCrashHook(1, [&] {
    down_at_hook.store(!Host(1).IsUp(1));
    size_at_hook.store(box.Size());
    box.Clear();  // the hook owns (and here discards) the backlog
    ran.fetch_add(1);
  });
  Host(1).SetRecoverHook(1, [&] {
    if (Host(1).IsUp(1)) recovered.fetch_add(1);
  });
  MustDeliver(0, 1, Tagged(1));
  // Refill so there is a backlog for the hook to observe, then crash.
  ASSERT_TRUE(Host(0).Send(0, 1, Tagged(2)));
  const auto deadline = In(5000);
  while (box.Size() < 1 && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::yield();
  }
  Host(1).Crash(1);
  EXPECT_EQ(ran.load(), 1);
  EXPECT_TRUE(down_at_hook.load()) << "hook must run after up_ flips";
  EXPECT_EQ(size_at_hook.load(), 1u)
      << "hook must see the backlog intact (it owns the drain)";
  EXPECT_EQ(box.Size(), 0u);
  Host(1).Recover(1);
  EXPECT_EQ(recovered.load(), 1) << "recover hook runs with the node up";
  Host(1).SetCrashHook(1, nullptr);
  Host(1).SetRecoverHook(1, nullptr);
}

TEST_P(TransportConformance, ReconnectsAfterPeerRestart) {
  MustDeliver(0, 1, Tagged(1));  // established connection 0 -> 1
  universe_->Restart(1);
  // The transport under node 0 must notice the dead connection and
  // re-establish toward the restarted peer (new port, with TCP).
  Envelope e = MustDeliver(0, 1, Tagged(2));
  EXPECT_EQ(e.msg.op, 2u);
  // And traffic initiated by the restarted node works too.
  Envelope back = MustDeliver(1, 0, Tagged(3));
  EXPECT_EQ(back.msg.op, 3u);
}

TEST_P(TransportConformance, SurvivesTwoRestartsOfTheSamePeer) {
  MustDeliver(0, 2, Tagged(1));
  universe_->Restart(2);
  MustDeliver(0, 2, Tagged(2));
  universe_->Restart(2);
  Envelope e = MustDeliver(0, 2, Tagged(3));
  EXPECT_EQ(e.msg.op, 3u);
}

TEST_P(TransportConformance, CountersAdvance) {
  Transport& t = Host(0);
  const std::uint64_t before = t.MessagesSent();
  MustDeliver(0, 1, Tagged(1));
  EXPECT_GT(t.MessagesSent(), before);
  EXPECT_EQ(t.NodeCount(), kNodes);
  EXPECT_STRNE(t.Name(), "");
}

// --- Membership growth: a brand-new peer id appears after start. With
// TCP this exercises SetPeerEndpoint for an id beyond the construction
// universe (previously untested); with the Bus, AddNode into the
// pre-allocated headroom.

TEST_P(TransportConformance, AddedNodeDeliversBothDirections) {
  const NodeId added = universe_->AddNodeAfterStart();
  EXPECT_EQ(added, kNodes);
  EXPECT_EQ(Host(0).NodeCount(), kNodes + 1)
      << "founders must count the joined node";
  Envelope e = MustDeliver(0, added, Tagged(11));
  EXPECT_EQ(e.from, 0u);
  EXPECT_EQ(e.msg.op, 11u);
  Envelope back = MustDeliver(added, 1, Tagged(12));
  EXPECT_EQ(back.from, added);
  EXPECT_EQ(back.msg.op, 12u);
}

TEST_P(TransportConformance, AddedNodeLinkIsFifo) {
  const NodeId added = universe_->AddNodeAfterStart();
  constexpr std::uint64_t kCount = 100;
  for (std::uint64_t i = 0; i < kCount; ++i) {
    ASSERT_TRUE(Host(2).Send(2, added, Tagged(i)));
  }
  for (std::uint64_t i = 0; i < kCount; ++i) {
    auto e = Host(added).MailboxOf(added).Pop(In(5000));
    ASSERT_TRUE(e.has_value()) << "lost message " << i;
    EXPECT_EQ(e->msg.op, i) << "reordered at " << i;
  }
}

TEST_P(TransportConformance, AddedNodeObeysCrashSemantics) {
  const NodeId added = universe_->AddNodeAfterStart();
  MustDeliver(1, added, Tagged(1));  // link warm
  Host(added).Crash(added);
  EXPECT_FALSE(Host(added).IsUp(added));
  Host(1).Send(1, added, Tagged(2));  // may drop at send or at dispatch
  EXPECT_FALSE(Host(added).MailboxOf(added).Pop(In(200)).has_value());
  Host(added).Recover(added);
  Envelope e = MustDeliver(1, added, Tagged(3));
  EXPECT_EQ(e.msg.op, 3u);
}

INSTANTIATE_TEST_SUITE_P(Transports, TransportConformance,
                         ::testing::Values("bus", "tcp"),
                         [](const ::testing::TestParamInfo<const char*>& info) {
                           return std::string(info.param);
                         });

}  // namespace
}  // namespace qcnt::net
