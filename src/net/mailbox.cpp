#include "net/mailbox.hpp"

#include <algorithm>
#include <thread>

namespace qcnt::net {

namespace {

// Consumers spinning right now, in the whole process.
std::atomic<int> g_spinners{0};

// A spinning consumer reads the clock once per this many pauses: a pause
// is 10-150 cycles depending on the core, so the budget overshoots by
// well under a microsecond.
constexpr int kChecksPerClockRead = 8;

inline void CpuRelax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("yield");
#endif
}

}  // namespace

int Spinners::Cap() {
  static const int kCap =
      std::max(1, static_cast<int>(std::thread::hardware_concurrency())) - 1;
  return kCap;
}

bool Spinners::TryAcquire() {
  int n = g_spinners.load(std::memory_order_relaxed);
  do {
    if (n >= Cap()) return false;
  } while (!g_spinners.compare_exchange_weak(n, n + 1,
                                             std::memory_order_acq_rel));
  return true;
}

void Spinners::Release() {
  g_spinners.fetch_sub(1, std::memory_order_acq_rel);
}

void Mailbox::Notify() {
  if (!NeedNotify()) return;
  wakeups_.fetch_add(1, std::memory_order_relaxed);
  if (source_ != nullptr) {
    source_->Wake();
  } else {
    cv_.notify_one();
  }
}

void Mailbox::Push(Envelope&& e) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (closed_) return;
    queue_.push_back(std::move(e));
    size_.store(queue_.size(), std::memory_order_release);
    handoffs_.fetch_add(1, std::memory_order_relaxed);
  }
  Notify();
}

void Mailbox::PushAll(std::vector<Envelope>& batch) {
  if (batch.empty()) return;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (closed_) {
      batch.clear();
      return;
    }
    for (Envelope& e : batch) queue_.push_back(std::move(e));
    batch.clear();  // caller keeps the capacity for the next burst
    size_.store(queue_.size(), std::memory_order_release);
    handoffs_.fetch_add(1, std::memory_order_relaxed);
  }
  Notify();
}

void Mailbox::Spin(std::chrono::steady_clock::time_point deadline) {
  if (ReadyHint() || !Spinners::TryAcquire()) return;
  spins_.fetch_add(1, std::memory_order_relaxed);
  const auto end =
      std::min(std::chrono::steady_clock::now() + kSpinBudget, deadline);
  for (int i = 1; !ReadyHint(); ++i) {
    CpuRelax();
    if (i % kChecksPerClockRead == 0 &&
        std::chrono::steady_clock::now() >= end) {
      break;
    }
  }
  Spinners::Release();
}

std::unique_lock<std::mutex> Mailbox::Await(
    std::chrono::steady_clock::time_point deadline) {
  const auto ready = [this] { return !queue_.empty() || closed_; };
  if (source_ == nullptr) {
    Spin(deadline);
    std::unique_lock<std::mutex> lock(mu_);
    if (ready() || std::chrono::steady_clock::now() >= deadline) return lock;
    waiters_.fetch_add(1, std::memory_order_acq_rel);
    if (deadline == std::chrono::steady_clock::time_point::max()) {
      cv_.wait(lock, ready);
    } else {
      cv_.wait_until(lock, deadline, ready);
    }
    waiters_.fetch_sub(1, std::memory_order_acq_rel);
    return lock;
  }
  for (;;) {
    PullSource();
    std::unique_lock<std::mutex> lock(mu_);
    if (ready()) {
      // Close wakes one parked consumer per Wake; pass it on to the next.
      if (closed_ && NeedNotify()) source_->Wake();
      return lock;
    }
    if (std::chrono::steady_clock::now() >= deadline) return lock;
    // Registered under mu_, then parked without it: a producer that
    // pushes after this unlock sees the registration and wakes the
    // source; bytes that arrive after the pull above make it readable.
    waiters_.fetch_add(1, std::memory_order_acq_rel);
    lock.unlock();
    source_->Park(deadline);
    waiters_.fetch_sub(1, std::memory_order_acq_rel);
  }
}

std::optional<Envelope> Mailbox::Pop(
    std::chrono::steady_clock::time_point deadline) {
  std::unique_lock<std::mutex> lock = Await(deadline);
  if (queue_.empty()) return std::nullopt;
  Envelope e = std::move(queue_.front());
  queue_.pop_front();
  size_.store(queue_.size(), std::memory_order_release);
  return e;
}

std::deque<Envelope> Mailbox::PopAll() {
  std::unique_lock<std::mutex> lock =
      Await(std::chrono::steady_clock::time_point::max());
  std::deque<Envelope> batch;
  batch.swap(queue_);
  size_.store(0, std::memory_order_release);
  return batch;
}

std::deque<Envelope> Mailbox::TryPopAll() {
  PullSource();
  std::lock_guard<std::mutex> lock(mu_);
  std::deque<Envelope> batch;
  batch.swap(queue_);
  size_.store(0, std::memory_order_release);
  return batch;
}

void Mailbox::Close() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    closed_ = true;
  }
  if (source_ == nullptr) {
    cv_.notify_all();
  } else if (NeedNotify()) {
    source_->Wake();
  }
}

void Mailbox::Reopen() {
  std::lock_guard<std::mutex> lock(mu_);
  closed_ = false;
}

void Mailbox::Clear() {
  PullSource();
  std::lock_guard<std::mutex> lock(mu_);
  queue_.clear();
  size_.store(0, std::memory_order_release);
}

std::size_t Mailbox::Size() {
  PullSource();
  std::lock_guard<std::mutex> lock(mu_);
  return queue_.size();
}

}  // namespace qcnt::net
