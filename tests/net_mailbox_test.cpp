// Mailbox hot-path contract: waiter-gated notify (no lost wakeups against
// concurrent TryPopAll draining), move-only Push/PushAll, the
// handoff/wakeup counters qbench records, and the bounded spin before a
// consumer parks (deadline, Close and the process-wide spinner cap).
#include "net/mailbox.hpp"

#include <algorithm>
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

// Two threads bounce one envelope back and forth. Each reply lands well
// inside the other side's spin window, so few handoffs need a futex
// wake; a consumer that parks at once is woken for nearly every one.
// Another process can take the cores for a while, so the best of a few
// trials is judged.
TEST(Mailbox, PingPongHandoffsNeedFewWakeups) {
  if (Spinners::Cap() < 1) GTEST_SKIP() << "one core: consumers never spin";
  constexpr std::uint64_t kRounds = 5000;
  double best = 1.0;
  for (int trial = 0; trial < 5 && best >= 0.1; ++trial) {
    Mailbox ping, pong;
    std::thread echo([&] {
      for (std::uint64_t i = 0; i < kRounds; ++i) {
        std::deque<Envelope> got = ping.PopAll();
        ASSERT_EQ(got.size(), 1u);
        pong.Push(std::move(got.front()));
      }
    });
    for (std::uint64_t i = 0; i < kRounds; ++i) {
      ping.Push(Tagged(i));
      std::optional<Envelope> back =
          pong.Pop(std::chrono::steady_clock::time_point::max());
      ASSERT_TRUE(back.has_value());
      ASSERT_EQ(back->msg.op, i);
    }
    echo.join();
    const std::uint64_t handoffs = ping.Handoffs() + pong.Handoffs();
    ASSERT_EQ(handoffs, 2 * kRounds);
    const double per_handoff =
        static_cast<double>(ping.Wakeups() + pong.Wakeups()) /
        static_cast<double>(handoffs);
    best = std::min(best, per_handoff);
  }
  EXPECT_LT(best, 0.25) << "wakeups per handoff in the best trial";
}

// A Pop whose deadline comes before the spin budget ends returns at that
// deadline: the spin stops there instead of running out the budget. (On
// one core nothing spins, and a timed condvar wait may overshoot a
// microsecond deadline, so only the lower bound is checked there.)
TEST(Mailbox, PopDeadlineShorterThanSpinBudgetEndsTheSpin) {
  Mailbox box;
  const auto wait = Mailbox::kSpinBudget / 4;
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
  if (Spinners::Cap() >= 1) EXPECT_LT(fastest, Mailbox::kSpinBudget);
}

TEST(Mailbox, CloseEndsASpinningConsumerPromptly) {
  Mailbox box;
  std::atomic<bool> returned{false};
  std::thread consumer([&] {
    EXPECT_FALSE(box.Pop(std::chrono::steady_clock::now() + 10s).has_value());
    returned.store(true);
  });
  // Close as soon as the consumer starts its wait (spinning, or parked
  // when no spinner slot is free or the spin already ended).
  const auto give_up = std::chrono::steady_clock::now() + 1s;
  while (box.Spins() == 0 && std::chrono::steady_clock::now() < give_up) {
    std::this_thread::yield();
  }
  const auto closed_at = std::chrono::steady_clock::now();
  box.Close();
  consumer.join();
  EXPECT_TRUE(returned.load());
  EXPECT_LT(std::chrono::steady_clock::now() - closed_at, 1s)
      << "Close must end the wait, not its 10 s deadline";
}

// With every spinner slot taken, a consumer on an empty mailbox parks at
// once: its whole wait passes without a spin.
TEST(Mailbox, ConsumersBeyondTheSpinnerCapParkAtOnce) {
  int held = 0;
  while (Spinners::TryAcquire()) ++held;
  EXPECT_EQ(held, Spinners::Cap());
  Mailbox parked;
  EXPECT_FALSE(parked.Pop(std::chrono::steady_clock::now() + 5ms));
  EXPECT_EQ(parked.Spins(), 0u) << "no slot was free, yet it spun";
  for (int i = 0; i < held; ++i) Spinners::Release();

  // With the slots back, the same wait spins before it parks.
  if (Spinners::Cap() < 1) return;
  Mailbox spun;
  EXPECT_FALSE(spun.Pop(std::chrono::steady_clock::now() + 5ms));
  EXPECT_EQ(spun.Spins(), 1u);
}

}  // namespace
}  // namespace qcnt::net
