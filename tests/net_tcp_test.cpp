// TcpTransport behavior the Bus has no analogue for: a corrupt byte
// stream on one accepted connection (before and after the loop hands it
// to its node's receive set), the event loop's accepted-fd reuse, how
// often senders wake the loop (never once a peer is connected; once per
// outage while it is unreachable), a warm link whose frames never turn
// the receiver's loop, observers pulling alongside the consumer, and a
// peer that dies under a sender writing through to it or with a frame
// half sent, and what the receive set's reads and parks cost.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>
#include <optional>
#include <thread>
#include <vector>

#include "net/tcp_transport.hpp"

namespace qcnt::net {
namespace {

using namespace std::chrono_literals;

// Sanitizer builds run several times slower than optimized ones, so a
// round trip there can outlast the spin budget: bounds on what the spin
// saves are judged only without a sanitizer.
#if defined(__SANITIZE_THREAD__) || defined(__SANITIZE_ADDRESS__)
constexpr bool kSanitized = true;
#else
constexpr bool kSanitized = false;
#endif

std::chrono::steady_clock::time_point In(std::chrono::milliseconds d) {
  return std::chrono::steady_clock::now() + d;
}

RtMessage Op(std::uint64_t op) {
  RtMessage m;
  m.kind = RtMessage::Kind::kBatchReadReq;
  m.op = op;
  m.key = "k" + std::to_string(op);
  return m;
}

/// A socket connected to 127.0.0.1:port, or -1.
int DialLoopback(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  timeval tv{5, 0};  // bounds the EOF wait below
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

/// Three instances, one node each, wired to one another.
class ThreeInstances : public ::testing::Test {
 protected:
  void SetUp() override {
    TcpTransportOptions o;
    o.universe.resize(3);
    for (NodeId n = 0; n < 3; ++n) {
      t_.push_back(std::make_unique<TcpTransport>(o, std::vector<NodeId>{n}));
    }
    for (NodeId i = 0; i < 3; ++i) {
      for (NodeId j = 0; j < 3; ++j) {
        if (i != j) t_[i]->SetPeerEndpoint(j, t_[j]->ActualEndpoint(j));
      }
    }
  }
  void TearDown() override {
    for (auto& t : t_) t->CloseAll();
  }

  void ExpectDelivery(NodeId from, NodeId to, std::uint64_t op) {
    ASSERT_TRUE(t_[from]->Send(from, to, Op(op)));
    auto e = t_[to]->MailboxOf(to).Pop(In(5000ms));
    ASSERT_TRUE(e.has_value()) << "no delivery " << from << "->" << to;
    EXPECT_EQ(e->from, from);
    EXPECT_EQ(e->msg.op, op);
  }

  std::vector<std::unique_ptr<TcpTransport>> t_;
};

TEST_F(ThreeInstances, CorruptStreamDropsOnlyThatConnection) {
  // Warm both links into node 1 so it holds two healthy accepted
  // connections next to the corrupt ones.
  ExpectDelivery(0, 1, 1);
  ExpectDelivery(2, 1, 2);
  const std::uint64_t connects0 = t_[0]->WireStats().connects;
  const std::uint64_t connects2 = t_[2]->WireStats().connects;
  const std::uint16_t port = t_[1]->ActualEndpoint(1).port;

  // Connect, write garbage, close — ten times, so the listener keeps
  // accepting onto fd numbers the loop just closed and deregistered.
  for (int round = 0; round < 10; ++round) {
    const std::uint64_t errors = t_[1]->WireStats().decode_errors;
    const int fd = DialLoopback(port);
    ASSERT_GE(fd, 0) << "round " << round;
    const std::vector<std::uint8_t> garbage(64, 0xA5);  // bad magic
    ASSERT_EQ(::send(fd, garbage.data(), garbage.size(), MSG_NOSIGNAL),
              static_cast<ssize_t>(garbage.size()));
    // The transport drops the connection: our end reads EOF (or a reset).
    char byte;
    EXPECT_LE(::recv(fd, &byte, 1, 0), 0) << "round " << round;
    ::close(fd);
    EXPECT_EQ(t_[1]->WireStats().decode_errors, errors + 1)
        << "round " << round;

    // Traffic between the healthy instances is untouched and rides the
    // same connections as before.
    ExpectDelivery(0, 1, 100 + round);
    ExpectDelivery(2, 1, 200 + round);
    ExpectDelivery(1, 2, 300 + round);
  }
  EXPECT_EQ(t_[0]->WireStats().connects, connects0);
  EXPECT_EQ(t_[2]->WireStats().connects, connects2);
  EXPECT_EQ(t_[1]->WireStats().decode_errors, 10u);
  EXPECT_EQ(t_[0]->WireStats().decode_errors, 0u);
  EXPECT_EQ(t_[2]->WireStats().decode_errors, 0u);
}

TEST_F(ThreeInstances, CorruptBytesAfterAValidFrameDropOnlyThatConnection) {
  ExpectDelivery(0, 1, 1);
  ExpectDelivery(2, 1, 2);
  const std::uint64_t errors = t_[1]->WireStats().decode_errors;
  const int fd = DialLoopback(t_[1]->ActualEndpoint(1).port);
  ASSERT_GE(fd, 0);

  // A valid frame vets the connection: the loop dispatches it and hands
  // the connection to node 1's receive set.
  std::vector<std::uint8_t> frame;
  EncodeFrame(WireFrame{0, 1, Op(7)}, frame);
  ASSERT_EQ(::send(fd, frame.data(), frame.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(frame.size()));
  auto e = t_[1]->MailboxOf(1).Pop(In(5000ms));
  ASSERT_TRUE(e.has_value());
  EXPECT_EQ(e->from, 0u);
  EXPECT_EQ(e->msg.op, 7u);

  // Garbage after it is read, and rejected, by node 1's own consumer.
  const std::vector<std::uint8_t> garbage(64, 0xA5);  // bad magic
  ASSERT_EQ(::send(fd, garbage.data(), garbage.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(garbage.size()));
  EXPECT_FALSE(t_[1]->MailboxOf(1).Pop(In(200ms)).has_value());
  char byte;
  EXPECT_LE(::recv(fd, &byte, 1, 0), 0) << "the connection was not dropped";
  ::close(fd);
  EXPECT_EQ(t_[1]->WireStats().decode_errors, errors + 1);

  ExpectDelivery(0, 1, 100);
  ExpectDelivery(2, 1, 200);
  ExpectDelivery(1, 2, 300);
}

TEST_F(ThreeInstances, WarmInboundFramesNeverTurnTheLoop) {
  // The first frame on the link is vetted by node 1's loop, which then
  // hands the connection to node 1's receive set; from then on node 1's
  // consumer receives on its own thread.
  ExpectDelivery(0, 1, 0);
  const std::uint64_t turns = t_[1]->WireStats().loop_turns;
  constexpr std::uint64_t kFrames = 1000;
  for (std::uint64_t op = 1; op <= kFrames; ++op) {
    ASSERT_TRUE(t_[0]->Send(0, 1, Op(op)));
  }
  for (std::uint64_t op = 1; op <= kFrames; ++op) {
    auto e = t_[1]->MailboxOf(1).Pop(In(5000ms));
    ASSERT_TRUE(e.has_value()) << "frame " << op;
    EXPECT_EQ(e->msg.op, op);
  }
  EXPECT_EQ(t_[1]->WireStats().loop_turns, turns)
      << "a warm link's frames went through the receiver's event loop";
}

TEST_F(ThreeInstances, ObserverPullsKeepEachFrameOnceAndInOrder) {
  // Size() pulls from the node's connections too, so an observer thread
  // races the consumer for the same socket: every frame must still be
  // delivered exactly once, in send order.
  ExpectDelivery(0, 1, 0);
  constexpr std::uint64_t kFrames = 10000;
  std::atomic<bool> done{false};
  std::thread observer([&] {
    while (!done.load()) (void)t_[1]->MailboxOf(1).Size();
  });
  std::thread sender([&] {
    for (std::uint64_t op = 1; op <= kFrames; ++op) {
      if (!t_[0]->Send(0, 1, Op(op))) ADD_FAILURE() << "refused " << op;
    }
  });
  std::uint64_t next = 1;
  for (; next <= kFrames; ++next) {
    auto e = t_[1]->MailboxOf(1).Pop(In(5000ms));
    if (!e.has_value() || e->msg.op != next) {
      ADD_FAILURE() << "frame " << next << ": got "
                    << (e ? std::to_string(e->msg.op) : "nothing");
      break;
    }
  }
  sender.join();
  done.store(true);
  observer.join();
  EXPECT_EQ(next, kFrames + 1);
  EXPECT_FALSE(t_[1]->MailboxOf(1).Pop(In(50ms)).has_value())
      << "a frame arrived twice";
}

TEST_F(ThreeInstances, SyscallCountersAdvance) {
  // A Send wakes the loop only when it is parked in epoll_wait; give the
  // freshly started loops time to park, or the first Send can land while
  // a loop is still in its opening turn and legitimately skip the wake.
  std::this_thread::sleep_for(50ms);
  const TcpStats before = t_[0]->WireStats();
  ExpectDelivery(0, 1, 1);
  ExpectDelivery(1, 0, 2);
  const TcpStats after = t_[0]->WireStats();
  EXPECT_GT(after.loop_turns, before.loop_turns);
  EXPECT_GT(after.wake_writes, before.wake_writes);
  EXPECT_GT(after.send_calls, before.send_calls);
  EXPECT_GT(after.recv_calls, before.recv_calls);
  EXPECT_GT(after.ready_polls, before.ready_polls);
}

TEST_F(ThreeInstances, ConnectedPeerTakesNoWakes) {
  // The first frame has the loop connect; after that every send(2) is
  // made on the sending thread, so the loop is never woken to flush.
  ExpectDelivery(0, 1, 0);
  const TcpStats before = t_[0]->WireStats();
  constexpr std::uint64_t kFrames = 1000;
  for (std::uint64_t op = 1; op <= kFrames; ++op) {
    ASSERT_TRUE(t_[0]->Send(0, 1, Op(op)));
  }
  for (std::uint64_t op = 1; op <= kFrames; ++op) {
    auto e = t_[1]->MailboxOf(1).Pop(In(5000ms));
    ASSERT_TRUE(e.has_value()) << "frame " << op;
    EXPECT_EQ(e->msg.op, op);
  }
  const TcpStats after = t_[0]->WireStats();
  EXPECT_EQ(after.wake_writes, before.wake_writes);
  EXPECT_EQ(after.connects, before.connects);
  EXPECT_EQ(after.frames_sent - before.frames_sent, kFrames);
  EXPECT_GE(after.send_calls - before.send_calls, 1u);
}

TEST_F(ThreeInstances, PeerKilledMidStreamIsRedialedAfterItsRestart) {
  ExpectDelivery(0, 1, 0);
  const TcpStats before = t_[0]->WireStats();
  t_[1].reset();  // node 1's process dies; its end of the stream closes

  // Keep writing into the dead stream. The burst right after the close
  // races the loop to the EOF, so the write that fails is, nearly every
  // run, a hard error on this thread, which hands the peer to the loop;
  // either way the loop fails the peer and redials the now-closed port
  // on its backoff timer.
  std::uint64_t op = 1;
  for (; op <= 8; ++op) ASSERT_TRUE(t_[0]->Send(0, 1, Op(op)));
  const auto deadline = In(5000ms);
  while (t_[0]->WireStats().reconnect_attempts <
             before.reconnect_attempts + 2 &&
         std::chrono::steady_clock::now() < deadline) {
    ASSERT_TRUE(t_[0]->Send(0, 1, Op(op++)));
    std::this_thread::sleep_for(1ms);
  }
  ASSERT_GE(t_[0]->WireStats().reconnect_attempts,
            before.reconnect_attempts + 2)
      << "the dead peer was never failed and redialed";

  // Restart node 1 on a fresh port and re-target it both ways.
  TcpTransportOptions o;
  o.universe.resize(3);
  t_[1] = std::make_unique<TcpTransport>(o, std::vector<NodeId>{1});
  for (NodeId j : {NodeId{0}, NodeId{2}}) {
    t_[1]->SetPeerEndpoint(j, t_[j]->ActualEndpoint(j));
    t_[j]->SetPeerEndpoint(1, t_[1]->ActualEndpoint(1));
  }

  // Frames sent after the restart arrive, all of them, in order. Frames
  // queued during the outage may arrive ahead of them (the queue carries
  // over to the new connection); none may arrive torn.
  constexpr std::uint64_t kAfter = 1u << 30;
  constexpr std::uint64_t kFrames = 200;
  for (std::uint64_t i = 0; i < kFrames; ++i) {
    ASSERT_TRUE(t_[0]->Send(0, 1, Op(kAfter + i)));
  }
  std::uint64_t next = kAfter;
  while (next < kAfter + kFrames) {
    auto e = t_[1]->MailboxOf(1).Pop(In(5000ms));
    ASSERT_TRUE(e.has_value()) << "missing frame " << next;
    if (e->msg.op < kAfter) continue;  // sent during the outage
    ASSERT_EQ(e->msg.op, next);
    EXPECT_EQ(e->msg.key, "k" + std::to_string(next));
    ++next;
  }
  EXPECT_GT(t_[0]->WireStats().connects, before.connects);
  EXPECT_EQ(t_[1]->WireStats().decode_errors, 0u);
}

// A pull asks the node's receive set which connections are readable and
// reads only those: one frame on one of five warm inbound connections
// costs one recv(2), not one per connection.
TEST(TcpReceiveSet, OneFrameAmongFiveConnectionsCostsOneRecv) {
  constexpr NodeId kSenders = 5;
  TcpTransportOptions o;
  o.universe.resize(kSenders + 1);
  std::vector<std::unique_ptr<TcpTransport>> t;
  for (NodeId n = 0; n <= kSenders; ++n) {
    t.push_back(std::make_unique<TcpTransport>(o, std::vector<NodeId>{n}));
  }
  for (NodeId n = 1; n <= kSenders; ++n) {
    t[n]->SetPeerEndpoint(0, t[0]->ActualEndpoint(0));
  }
  Mailbox& box = t[0]->MailboxOf(0);
  // Two frames per link: the loop vets each connection's first and hands
  // it to node 0's receive set.
  for (std::uint64_t round = 0; round < 2; ++round) {
    for (NodeId n = 1; n <= kSenders; ++n) {
      ASSERT_TRUE(t[n]->Send(n, 0, Op(round)));
      ASSERT_TRUE(box.Pop(In(5000ms)).has_value()) << "link " << n;
    }
  }
  std::this_thread::sleep_for(50ms);  // the last handoffs settle
  ASSERT_EQ(box.Size(), 0u);

  const std::uint64_t before = t[0]->WireStats().recv_calls;
  ASSERT_TRUE(t[3]->Send(3, 0, Op(7)));
  auto e = box.Pop(In(5000ms));
  ASSERT_TRUE(e.has_value());
  EXPECT_EQ(e->from, 3u);
  EXPECT_EQ(t[0]->WireStats().recv_calls - before, 1u)
      << "a pull read connections that had nothing to read";
  for (auto& x : t) x->CloseAll();
}

// Two nodes bounce one frame back and forth over loopback. Each reply
// lands inside the other side's spin, so few waits end parked in
// epoll_wait; a consumer that parks at once parks for nearly every
// handoff. Another process can take the cores for a while, so the best
// of a few trials is judged.
TEST(TcpReceiveSet, PingPongHandoffsNeedFewParks) {
  if (Spinners::Cap() < 1) GTEST_SKIP() << "one core: consumers never spin";
  constexpr std::uint64_t kRounds = 2000;
  TcpTransportOptions o;
  o.universe.resize(2);
  TcpTransport a(o, {0});
  TcpTransport b(o, {1});
  a.SetPeerEndpoint(1, b.ActualEndpoint(1));
  b.SetPeerEndpoint(0, a.ActualEndpoint(0));
  Mailbox& ping = b.MailboxOf(1);
  Mailbox& pong = a.MailboxOf(0);
  const auto bounce = [&](std::uint64_t rounds) {
    std::thread echo([&] {
      for (std::uint64_t i = 0; i < rounds; ++i) {
        std::optional<Envelope> got = ping.Pop(In(5000ms));
        ASSERT_TRUE(got.has_value());
        b.Send(1, 0, std::move(got->msg));
      }
    });
    for (std::uint64_t i = 0; i < rounds; ++i) {
      ASSERT_TRUE(a.Send(0, 1, Op(i)));
      std::optional<Envelope> back = pong.Pop(In(5000ms));
      ASSERT_TRUE(back.has_value());
      ASSERT_EQ(back->msg.op, i);
    }
    echo.join();
  };
  bounce(10);  // connect and vet both links
  double best = 1.0;
  for (int trial = 0; trial < 5 && best >= 0.1; ++trial) {
    const std::uint64_t handoffs = ping.Handoffs() + pong.Handoffs();
    const std::uint64_t parks = ping.Parks() + pong.Parks();
    bounce(kRounds);
    if (HasFatalFailure()) return;
    const double per_handoff =
        static_cast<double>(ping.Parks() + pong.Parks() - parks) /
        static_cast<double>(ping.Handoffs() + pong.Handoffs() - handoffs);
    best = std::min(best, per_handoff);
  }
  a.CloseAll();
  b.CloseAll();
  if (kSanitized) GTEST_SKIP() << "sanitizer build: best " << best;
  EXPECT_LT(best, 0.25) << "parks per handoff in the best trial";
}

TEST(TcpTransportStream, FrameTornByADeadConnectionIsNotResent) {
  // Node 1 starts as a raw socket that accepts node 0's stream and never
  // reads it, so node 0's writes stall partway through a frame once the
  // socket buffers fill.
  const int raw = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(raw, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  ASSERT_EQ(::bind(raw, reinterpret_cast<const sockaddr*>(&addr),
                   sizeof(addr)),
            0);
  ASSERT_EQ(::listen(raw, 1), 0);
  socklen_t len = sizeof(addr);
  ASSERT_EQ(::getsockname(raw, reinterpret_cast<sockaddr*>(&addr), &len), 0);

  TcpTransportOptions o;
  o.universe.resize(2);
  o.universe[1].port = ntohs(addr.sin_port);
  TcpTransport a(o, {0});
  auto big = [](std::uint64_t op) {
    RtMessage m = Op(op);
    m.key.assign(60013, 'x');
    return m;
  };
  for (std::uint64_t op = 0; op < 128; ++op) {
    a.Send(0, 1, big(op));  // past the queue cap some are dropped
  }
  // Wait for the stream to stall: the kernel takes no more bytes.
  std::uint64_t sent = 0;
  for (int stable = 0; stable < 5;) {
    std::this_thread::sleep_for(20ms);
    const std::uint64_t now = a.WireStats().bytes_sent;
    stable = now == sent && now > 0 ? stable + 1 : 0;
    sent = now;
  }
  const std::uint64_t frame_bytes = kFrameHeaderBytes + 4 + 4 + 1 + 8 * 4 +
                                    4 + 4 + 60013 + 4 + 1;
  ASSERT_NE(sent % frame_bytes, 0u) << "the stream stalled on a boundary";

  // Reset the connection with the torn frame in it, then bring node 1 up
  // for real and re-target node 0 to it.
  const int conn = ::accept(raw, nullptr, nullptr);
  ASSERT_GE(conn, 0);
  ::close(conn);  // unread data: the close resets the connection
  ::close(raw);
  TcpTransportOptions ob;
  ob.universe.resize(2);
  TcpTransport b(ob, {1});
  a.SetPeerEndpoint(1, b.ActualEndpoint(1));
  constexpr std::uint64_t kMarker = 1u << 30;
  ASSERT_TRUE(a.Send(0, 1, Op(kMarker)));

  // The new connection opens on a frame boundary: everything that
  // arrives decodes, whole, and the marker arrives after the queued
  // frames.
  for (;;) {
    auto e = b.MailboxOf(1).Pop(In(5000ms));
    ASSERT_TRUE(e.has_value()) << "the marker frame never arrived";
    if (e->msg.op == kMarker) break;
    EXPECT_EQ(e->msg.key.size(), 60013u);
  }
  EXPECT_EQ(b.WireStats().decode_errors, 0u);
  a.CloseAll();
  b.CloseAll();
}

TEST(TcpTransportWake, UnreachablePeerDoesNotWakeTheLoopPerFrame) {
  // A port that refuses connections: bound, never listening, held open
  // for the whole test so nothing else can take it.
  const int hole = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(hole, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  ASSERT_EQ(::bind(hole, reinterpret_cast<const sockaddr*>(&addr),
                   sizeof(addr)),
            0);
  socklen_t len = sizeof(addr);
  ASSERT_EQ(::getsockname(hole, reinterpret_cast<sockaddr*>(&addr), &len), 0);

  TcpTransportOptions o;
  o.universe.resize(2);
  o.universe[1].port = ntohs(addr.sin_port);
  TcpTransport t(o, {0});

  const TcpStats before = t.WireStats();
  constexpr int kFrames = 200;
  for (int i = 0; i < kFrames; ++i) {
    ASSERT_TRUE(t.Send(0, 1, Op(i)));  // buffered toward the dead peer
  }
  // Let a few backoff retries (5, 10, 20 ms ...) run off the timer.
  const auto deadline = In(5000ms);
  while (t.WireStats().reconnect_attempts < before.reconnect_attempts + 3 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(5ms);
  }
  const TcpStats after = t.WireStats();
  EXPECT_GE(after.reconnect_attempts, before.reconnect_attempts + 3)
      << "backoff retries must run without senders waking the loop";
  EXPECT_EQ(after.connects, 0u);
  EXPECT_EQ(after.frames_sent - before.frames_sent,
            static_cast<std::uint64_t>(kFrames));
  EXPECT_LE(after.wake_writes - before.wake_writes, 3u)
      << "one wake starts the connect; the rest must ride the retry timer";
  t.CloseAll();
  ::close(hole);
}

}  // namespace
}  // namespace qcnt::net
