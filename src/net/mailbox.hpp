// A blocking MPSC mailbox — the receive half of every Transport.
//
// Lives in net (rather than runtime) because it is the delivery surface
// shared by all transports. Node code (replica servers, clients) only
// ever pops; where the envelope came from is the transport's business:
//
//  - The in-process Bus pushes into it directly, and a consumer with an
//    empty queue spins briefly, then sleeps on a condition variable.
//  - A TcpTransport mailbox has a MailboxSource: the node's own receive
//    set (its established inbound connections). Every observer — Size,
//    TryPopAll, Pop, PopAll, Clear — first pulls what those connections
//    already hold, without blocking, so frames are received and decoded
//    on whichever thread looks at the mailbox, normally its consumer. A
//    consumer with an empty queue parks in the source (epoll_wait on the
//    node's connections plus an eventfd) instead of on the condvar, so a
//    frame reaches it with one kernel wake and no event-loop hop.
//
// Hot-path design:
//  - Producers never notify while holding the queue lock, and they only
//    notify at all when a consumer has registered itself as waiting
//    (`waiters_`). The registration happens under the same mutex the
//    producer pushes under, so a consumer that found the queue empty and
//    is about to sleep is always visible to the next producer — no lost
//    wakeup, no syscall on the uncontended handoff. With a source, the
//    notify is the source's Wake (an eventfd write) instead of the cv.
//  - `PushAll` moves a whole routed burst in under one lock acquisition
//    and one (conditional) notify, then clears the caller's vector so its
//    capacity is reused for the next burst.
//  - A consumer without a source that finds its queue empty spins
//    before it parks: for up to kSpinBudget it watches the `size_` mirror
//    with `pause` and no syscall, and stops early at its deadline or on
//    Close. Only then does it register in `waiters_` and sleep. A reply
//    that lands inside the spin window is taken with no futex call on
//    either side: the consumer never slept, so the producer sees no
//    waiter and skips the notify. The waiter gate above is unchanged, so
//    wakeups still cannot be lost. Waking a parked thread costs the waker
//    a syscall (~2 us) and the woken thread 5-9 us before it runs on a
//    4-core x86 VM, so a spin that is shorter than one in-process round
//    trip pays for itself whenever the reply comes inside it.
//  - At most Spinners::Cap() consumers spin at once, process-wide
//    (hardware_concurrency() - 1), so a producer always keeps a core;
//    the rest park at once. On one core the cap is 0: spinning there
//    would only steal the producer's timeslice.
//  - A mailbox with a source never spins: socket bytes do not move the
//    mirror, so its consumer parks in the source (epoll_wait) at once.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <mutex>
#include <optional>
#include <vector>

#include "runtime/message.hpp"

namespace qcnt::net {

using runtime::Envelope;

class Mailbox;

/// The process-wide cap on consumers spinning at once (see the hot-path
/// notes above). A consumer takes a slot before it spins and gives it
/// back when the spin ends; without a free slot it parks at once.
class Spinners {
 public:
  /// hardware_concurrency() - 1 (0 on one core or when unknown).
  static int Cap();
  /// Take a slot; false (and nothing taken) when all Cap() are in use.
  static bool TryAcquire();
  static void Release();
};

/// A receive path that runs on the threads observing a mailbox rather
/// than on a transport thread (TcpTransport's per-node receive set).
class MailboxSource {
 public:
  virtual ~MailboxSource() = default;
  /// Read whatever has already arrived, without blocking, and PushAll it
  /// into `box`. Safe from any thread; concurrent pulls keep FIFO order.
  virtual void Pull(Mailbox& box) = 0;
  /// Block until something may have arrived, Wake() runs, or `deadline`
  /// passes (max() = no deadline). Spurious returns are allowed.
  virtual void Park(std::chrono::steady_clock::time_point deadline) = 0;
  /// Make a current Park return, or the next one return at once.
  virtual void Wake() = 0;
};

class Mailbox {
 public:
  /// How long a consumer without a source spins on an empty queue before
  /// it parks. Picked from a sweep of {0, 10, 20, 50} us on qbench's
  /// bus_hot and bus_durable workloads (EXPERIMENTS.md E18): 10 us caught
  /// only part of the round trips, 50 us gained nothing over 20 us.
  static constexpr std::chrono::microseconds kSpinBudget{20};

  /// `source` (optional, not owned, must outlive the mailbox) receives on
  /// the observing threads; without one the mailbox is pushed to only.
  explicit Mailbox(MailboxSource* source = nullptr) : source_(source) {}
  Mailbox(const Mailbox&) = delete;
  Mailbox& operator=(const Mailbox&) = delete;

  /// Move-only enqueue: the envelope's payload (strings, batch vectors)
  /// is never copied on the handoff.
  void Push(Envelope&& e);

  /// Enqueue a whole burst under one lock acquisition with at most one
  /// notify. Moves the contents out of `batch` and clears it, so the
  /// caller's vector keeps its capacity for the next burst (the reusable
  /// per-link buffer idiom). Dropped silently when closed, like Push.
  void PushAll(std::vector<Envelope>& batch);

  /// Block until a message arrives or the deadline passes; nullopt on
  /// timeout or when the mailbox is closed and drained.
  std::optional<Envelope> Pop(std::chrono::steady_clock::time_point deadline);

  /// Block until at least one message is queued, then move the *entire*
  /// queue out under a single lock acquisition. A consumer that was asleep
  /// behind a burst wakes once and gets the whole burst instead of paying
  /// one lock round trip per message. Empty result ⇔ closed and drained.
  std::deque<Envelope> PopAll();

  /// Non-blocking variant of PopAll (a pull and the queue lock, no
  /// wait): moves out whatever is queued right now, possibly nothing. The
  /// async client's opportunistic drain between blocking waits.
  std::deque<Envelope> TryPopAll();

  /// Wake all waiters; subsequent Pops drain the queue then return nullopt.
  void Close();

  /// Undo Close: subsequent Pushes are accepted again. A node that crashed
  /// while the store was shutting down (Close) and is later recovered must
  /// get a usable mailbox back, or sends to it vanish silently.
  void Reopen();

  /// Discard every queued message (fail-stop crash: the backlog dies with
  /// the node), pulled ones included. The mailbox stays usable for later
  /// pushes.
  void Clear();

  /// Queued messages, after a pull (so not const).
  std::size_t Size();

  /// Number of Push/PushAll calls that enqueued at least one envelope —
  /// with a source, one per pulled burst. Without one it is
  /// deterministic (independent of consumer timing), so tests can assert
  /// exact handoff counts where wakeups would be racy.
  std::uint64_t Handoffs() const {
    return handoffs_.load(std::memory_order_relaxed);
  }

  /// Number of producer-side notifies actually issued (cv notify or
  /// source Wake) — the syscall cost an awake consumer avoids.
  std::uint64_t Wakeups() const {
    return wakeups_.load(std::memory_order_relaxed);
  }

  /// Number of waits on an empty queue that spun before taking the data
  /// or parking (0 with a source, or while every spinner slot is taken).
  std::uint64_t Spins() const {
    return spins_.load(std::memory_order_relaxed);
  }

 private:
  // True when a producer must notify: a consumer registered under mu_
  // before sleeping. Read by producers *after* releasing mu_; the mutex
  // hand-off orders the consumer's registration before the producer's
  // read, so the only misses are consumers that arrive later and will
  // see the pushed data anyway.
  bool NeedNotify() const {
    return waiters_.load(std::memory_order_acquire) != 0;
  }
  /// Wake a parked consumer, if any (call after releasing mu_).
  void Notify();
  /// Pull from the source (if any), then wait until the queue is
  /// non-empty, the mailbox is closed, or `deadline` passes. Returns with
  /// mu_ held.
  std::unique_lock<std::mutex> Await(
      std::chrono::steady_clock::time_point deadline);
  /// Without mu_: spin until the queue is non-empty, the mailbox is
  /// closed, or `deadline` or kSpinBudget passes. Returns at once when
  /// no spinner slot is free.
  void Spin(std::chrono::steady_clock::time_point deadline);
  bool ReadyHint() const {
    return size_.load(std::memory_order_acquire) != 0 ||
           closed_.load(std::memory_order_acquire);
  }
  void PullSource() {
    if (source_ != nullptr) source_->Pull(*this);
  }

  MailboxSource* const source_;

  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::deque<Envelope> queue_;
  std::atomic<bool> closed_{false};      // written under mu_
  std::atomic<std::size_t> size_{0};     // mirror of queue_.size() for spin
  std::atomic<int> waiters_{0};          // consumers parked (or parking)
  std::atomic<std::uint64_t> handoffs_{0};
  std::atomic<std::uint64_t> wakeups_{0};
  std::atomic<std::uint64_t> spins_{0};
};

}  // namespace qcnt::net
