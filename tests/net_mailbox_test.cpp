// Mailbox hot-path contract: waiter-gated notify (no lost wakeups against
// concurrent TryPopAll draining), move-only Push/PushAll, and the
// handoff/wakeup counters qbench records.
#include "net/mailbox.hpp"

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

namespace qcnt::net {
namespace {

using namespace std::chrono_literals;
using runtime::RtMessage;

Envelope Tagged(std::uint64_t op) {
  RtMessage m;
  m.kind = RtMessage::Kind::kReadReq;
  m.op = op;
  return Envelope{0, std::move(m)};
}

TEST(Mailbox, PushAllMovesBurstAndClearsCallerBuffer) {
  Mailbox box;
  std::vector<Envelope> burst;
  burst.reserve(8);
  for (std::uint64_t i = 1; i <= 3; ++i) burst.push_back(Tagged(i));
  const std::size_t cap = burst.capacity();
  box.PushAll(burst);
  EXPECT_TRUE(burst.empty()) << "caller's buffer must be reusable";
  EXPECT_GE(burst.capacity(), cap) << "clear, not shrink: capacity reused";
  EXPECT_EQ(box.Size(), 3u);
  EXPECT_EQ(box.Handoffs(), 1u) << "one burst = one handoff";
  std::deque<Envelope> got = box.TryPopAll();
  ASSERT_EQ(got.size(), 3u);
  for (std::uint64_t i = 0; i < 3; ++i) {
    EXPECT_EQ(got[i].msg.op, i + 1) << "FIFO within the burst";
  }
}

TEST(Mailbox, PushAllOfEmptyBurstIsANoOp) {
  Mailbox box;
  std::vector<Envelope> empty;
  box.PushAll(empty);
  EXPECT_EQ(box.Handoffs(), 0u);
  EXPECT_EQ(box.Size(), 0u);
}

TEST(Mailbox, CountersSeparateHandoffsFromWakeups) {
  Mailbox box;
  // No consumer is parked, so no push may issue a notify: handoffs count
  // deterministically, wakeups stay zero.
  box.Push(Tagged(1));
  box.Push(Tagged(2));
  std::vector<Envelope> burst;
  burst.push_back(Tagged(3));
  box.PushAll(burst);
  EXPECT_EQ(box.Handoffs(), 3u);
  EXPECT_EQ(box.Wakeups(), 0u)
      << "producers must not notify without a registered waiter";
  EXPECT_EQ(box.TryPopAll().size(), 3u);

  // Now park a consumer, then push: exactly that push must notify.
  std::thread consumer([&] {
    std::deque<Envelope> got = box.PopAll();
    ASSERT_EQ(got.size(), 1u);
    EXPECT_EQ(got.front().msg.op, 4u);
  });
  // Let the consumer pass the spin window and register as a waiter.
  std::this_thread::sleep_for(50ms);
  box.Push(Tagged(4));
  consumer.join();
  EXPECT_EQ(box.Handoffs(), 4u);
  EXPECT_EQ(box.Wakeups(), 1u);
}

// Regression for the lost-wakeup hazard the waiter gate must not
// introduce: a second thread draining via TryPopAll steals the queue
// between a producer's push and a blocked consumer's wakeup, or empties
// it just as the consumer decides to sleep. If the producer's
// NeedNotify() read could miss a consumer that is about to park, the
// blocking PopAll below would hang forever (the ctest timeout catches
// it); the mutex hand-off in Push/PopAll makes that impossible.
TEST(Mailbox, NoLostWakeupAgainstConcurrentTryPopAll) {
  Mailbox box;
  constexpr std::uint64_t kMessages = 20000;
  std::atomic<std::uint64_t> consumed{0};
  std::atomic<bool> stop_thief{false};

  std::thread consumer([&] {
    while (consumed.load(std::memory_order_relaxed) < kMessages) {
      std::deque<Envelope> got = box.PopAll();
      if (got.empty()) return;  // closed: producer is done and queue drained
      consumed.fetch_add(got.size(), std::memory_order_relaxed);
    }
  });
  // The thief never blocks; whatever it steals it counts too.
  std::thread thief([&] {
    while (!stop_thief.load(std::memory_order_relaxed)) {
      consumed.fetch_add(box.TryPopAll().size(), std::memory_order_relaxed);
    }
  });
  for (std::uint64_t i = 0; i < kMessages; ++i) box.Push(Tagged(i));

  const auto deadline = std::chrono::steady_clock::now() + 30s;
  while (consumed.load(std::memory_order_relaxed) < kMessages &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::yield();
  }
  EXPECT_EQ(consumed.load(), kMessages) << "a wakeup was lost";
  stop_thief.store(true);
  thief.join();
  box.Close();  // releases the consumer if it is parked on an empty queue
  consumer.join();
}

TEST(Mailbox, CloseReleasesParkedPopAll) {
  Mailbox box;
  std::thread consumer([&] { EXPECT_TRUE(box.PopAll().empty()); });
  std::this_thread::sleep_for(20ms);
  box.Close();
  consumer.join();
}

}  // namespace
}  // namespace qcnt::net
