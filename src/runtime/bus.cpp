#include "runtime/bus.hpp"

#include <algorithm>

#include "common/check.hpp"

namespace qcnt::runtime {

bool Bus::DueLater(const DelayedMessage& a, const DelayedMessage& b) {
  return a.due > b.due || (a.due == b.due && a.tie > b.tie);
}

namespace {
/// Pre-allocated slots beyond the construction-time universe, claimable at
/// runtime via AddNode (membership change). Headroom keeps growth free of
/// vector reallocation: every mailbox and atomic up-flag a concurrent
/// sender might touch already exists.
constexpr std::size_t kGrowthHeadroom = 32;
}  // namespace

Bus::Bus(std::size_t nodes)
    : up_(nodes + kGrowthHeadroom),
      crash_hooks_(nodes + kGrowthHeadroom),
      recover_hooks_(nodes + kGrowthHeadroom) {
  QCNT_CHECK(nodes >= 1);
  const std::size_t capacity = nodes + kGrowthHeadroom;
  mailboxes_.reserve(capacity);
  for (std::size_t i = 0; i < capacity; ++i) {
    mailboxes_.push_back(std::make_unique<net::Mailbox>());
    up_[i].store(i < nodes);  // headroom slots stay dark until AddNode
  }
  count_.store(nodes, std::memory_order_release);
}

NodeId Bus::AddNode() {
  std::lock_guard<std::mutex> lock(hooks_mu_);  // serialize growth
  const std::size_t id = count_.load(std::memory_order_acquire);
  QCNT_CHECK_MSG(id < mailboxes_.size(), "bus universe capacity exhausted");
  mailboxes_[id]->Reopen();  // fresh slot; no-op unless CloseAll raced
  up_[id].store(true, std::memory_order_release);
  count_.store(id + 1, std::memory_order_release);
  return static_cast<NodeId>(id);
}

Bus::~Bus() {
  {
    std::lock_guard<std::mutex> lock(fault_mu_);
    net_stop_ = true;
  }
  fault_cv_.notify_all();
  if (net_thread_.joinable()) net_thread_.join();
}

net::Mailbox& Bus::MailboxOf(NodeId node) {
  QCNT_CHECK(node < NodeCount());
  return *mailboxes_[node];
}

void Bus::Crash(NodeId node) {
  QCNT_CHECK(node < NodeCount());
  up_[node].store(false);
  // Marking down first means sends racing with the crash either see the
  // down flag and drop, or land in the queue ahead of the crash cut.
  // A node with a crash hook owns its own backlog: the hook drains what
  // was delivered before the crash in FIFO order and refuses the rest
  // (replica servers push a kCrashDrain marker and wait for it). Without
  // a hook the backlog simply dies here.
  std::function<void()> hook;
  {
    std::lock_guard<std::mutex> lock(hooks_mu_);
    hook = crash_hooks_[node];
  }
  if (hook) {
    hook();
  } else {
    mailboxes_[node]->Clear();
  }
}

void Bus::SetCrashHook(NodeId node, std::function<void()> hook) {
  QCNT_CHECK(node < NodeCount());
  std::lock_guard<std::mutex> lock(hooks_mu_);
  crash_hooks_[node] = std::move(hook);
}

void Bus::SetRecoverHook(NodeId node, std::function<void()> hook) {
  QCNT_CHECK(node < NodeCount());
  std::lock_guard<std::mutex> lock(hooks_mu_);
  recover_hooks_[node] = std::move(hook);
}

void Bus::Recover(NodeId node) {
  QCNT_CHECK(node < NodeCount());
  // Reopen before flipping the up flag so a sender that sees up==true is
  // guaranteed a mailbox that accepts the message.
  mailboxes_[node]->Reopen();
  up_[node].store(true);
  std::function<void()> hook;
  {
    std::lock_guard<std::mutex> lock(hooks_mu_);
    hook = recover_hooks_[node];
  }
  if (hook) hook();
}

bool Bus::Send(NodeId from, NodeId to, RtMessage msg) {
  QCNT_CHECK(from < NodeCount() && to < NodeCount());
  sent_.fetch_add(1, std::memory_order_relaxed);
  if (!up_[from].load() || !up_[to].load()) {
    dropped_.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  if (faults_active_.load(std::memory_order_acquire)) {
    return SendWithFaults(from, to, std::move(msg));
  }
  mailboxes_[to]->Push(Envelope{from, std::move(msg)});
  return true;
}

void Bus::CloseAll() {
  for (auto& mb : mailboxes_) mb->Close();
}

// --- Fault injection ------------------------------------------------------

void Bus::SetFaults(const FaultPlan& plan) {
  QCNT_CHECK(plan.drop >= 0.0 && plan.drop <= 1.0);
  QCNT_CHECK(plan.duplicate >= 0.0 && plan.duplicate <= 1.0);
  QCNT_CHECK(plan.delay_min <= plan.delay_max ||
             plan.delay_max.count() == 0);
  std::lock_guard<std::mutex> lock(fault_mu_);
  default_plan_ = plan;
  if (plan.delay_max.count() > 0 || plan.reorder_window > 0) {
    EnsureNetThread();
  }
  faults_active_.store(true, std::memory_order_release);
}

void Bus::SetLinkFaults(NodeId from, NodeId to, const FaultPlan& plan) {
  QCNT_CHECK(from < NodeCount() && to < NodeCount());
  std::lock_guard<std::mutex> lock(fault_mu_);
  LinkState& link = links_[LinkKey(from, to)];
  link.plan = plan;
  link.seeded = false;  // reseed from the new plan on the next send
  if (plan.delay_max.count() > 0 || plan.reorder_window > 0) {
    EnsureNetThread();
  }
  faults_active_.store(true, std::memory_order_release);
}

void Bus::ClearFaults() {
  std::lock_guard<std::mutex> lock(fault_mu_);
  default_plan_.reset();
  for (auto& [key, link] : links_) link.plan.reset();
  // faults_active_ stays set: held/delayed messages may still be in
  // flight, and partitions may still be installed. The flag only costs
  // one mutex acquisition per send once it has ever been raised.
}

void Bus::Partition(const std::vector<NodeId>& a, const std::vector<NodeId>& b,
                    bool symmetric) {
  std::lock_guard<std::mutex> lock(fault_mu_);
  for (NodeId x : a) {
    for (NodeId y : b) {
      QCNT_CHECK(x < NodeCount() && y < NodeCount());
      blocked_.insert(LinkKey(x, y));
      if (symmetric) blocked_.insert(LinkKey(y, x));
    }
  }
  faults_active_.store(true, std::memory_order_release);
}

void Bus::Heal() {
  std::lock_guard<std::mutex> lock(fault_mu_);
  blocked_.clear();
}

FaultStats Bus::InjectedFaults() const {
  std::lock_guard<std::mutex> lock(fault_mu_);
  return fault_stats_;
}

const FaultPlan* Bus::PlanFor(LinkState& link) const {
  if (link.plan) return &*link.plan;
  if (default_plan_) return &*default_plan_;
  return nullptr;
}

void Bus::SeedLink(LinkState& link, NodeId from, NodeId to,
                   const FaultPlan& plan) {
  // SplitMix over (seed, link pair) gives each directed link its own
  // stream: decisions depend only on the seed and the link's send count,
  // never on cross-link interleaving — and never on the universe size, so
  // a link to a node added after construction gets the same lazily-derived
  // stream treatment as any founding link.
  std::uint64_t s =
      plan.seed ^ (0x9e3779b97f4a7c15ull * (LinkKey(from, to) + 1));
  link.rng = Rng(SplitMix64(s));
  link.seeded = true;
}

bool Bus::SendWithFaults(NodeId from, NodeId to, RtMessage msg) {
  std::lock_guard<std::mutex> lock(fault_mu_);
  if (blocked_.count(LinkKey(from, to)) != 0) {
    ++fault_stats_.partition_drops;
    dropped_.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  LinkState& link = links_[LinkKey(from, to)];
  const FaultPlan* plan = PlanFor(link);
  if (plan == nullptr || !plan->Active()) {
    mailboxes_[to]->Push(Envelope{from, std::move(msg)});
    return true;
  }
  if (!link.seeded) SeedLink(link, from, to, *plan);
  if (link.rng.Chance(plan->drop)) {
    ++fault_stats_.dropped;
    dropped_.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  const int copies = 1 + (link.rng.Chance(plan->duplicate) ? 1 : 0);
  if (copies == 2) ++fault_stats_.duplicated;
  for (int c = 0; c < copies; ++c) {
    // The common (no-duplicate) case moves the payload instead of copying
    // it; only a duplicated message pays for a real copy.
    Envelope env = (c + 1 == copies) ? Envelope{from, std::move(msg)}
                                     : Envelope{from, msg};
    if (plan->reorder_window > 0) {
      // Rank = seq + jitter bounds overtaking at reorder_window places.
      const std::uint64_t rank =
          link.seq + link.rng.Below(plan->reorder_window + 1);
      ++fault_stats_.reordered;
      link.held.push_back(HeldMessage{
          rank, std::chrono::steady_clock::now() + plan->reorder_hold, to,
          std::move(env)});
      while (link.held.size() > plan->reorder_window) {
        ReleaseLowestRank(link, *plan);
      }
      fault_cv_.notify_all();  // the net thread owns the hold deadline
    } else {
      DeliverOrDelay(link, *plan, to, std::move(env));
    }
    ++link.seq;
  }
  return true;
}

void Bus::DeliverOrDelay(LinkState& link, const FaultPlan& plan, NodeId to,
                         Envelope e) {
  std::int64_t delay_us = 0;
  if (plan.delay_max.count() > 0) {
    delay_us = link.rng.Range(plan.delay_min.count(), plan.delay_max.count());
  }
  if (delay_us <= 0) {
    DeliverNow(to, std::move(e));
    return;
  }
  ++fault_stats_.delayed;
  delayed_.push_back(DelayedMessage{
      std::chrono::steady_clock::now() + std::chrono::microseconds(delay_us),
      delayed_tie_++, to, std::move(e)});
  std::push_heap(delayed_.begin(), delayed_.end(), DueLater);
  EnsureNetThread();
  fault_cv_.notify_all();
}

void Bus::DeliverNow(NodeId to, Envelope e) {
  // Deferred deliveries re-check liveness: a message in flight when its
  // destination crashed dies with the crash unless the node recovered
  // first (the straggler case; see the header comment).
  if (!up_[to].load()) {
    dropped_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  mailboxes_[to]->Push(std::move(e));
}

void Bus::ReleaseLowestRank(LinkState& link, const FaultPlan& plan) {
  auto it = std::min_element(
      link.held.begin(), link.held.end(),
      [](const HeldMessage& a, const HeldMessage& b) {
        return a.rank < b.rank;
      });
  HeldMessage m = std::move(*it);
  link.held.erase(it);
  DeliverOrDelay(link, plan, m.to, std::move(m.e));
}

void Bus::FlushLink(LinkState& link) {
  std::sort(link.held.begin(), link.held.end(),
            [](const HeldMessage& a, const HeldMessage& b) {
              return a.rank < b.rank;
            });
  std::vector<HeldMessage> held = std::move(link.held);
  link.held.clear();
  const FaultPlan* plan = PlanFor(link);
  for (HeldMessage& m : held) {
    if (plan != nullptr) {
      DeliverOrDelay(link, *plan, m.to, std::move(m.e));
    } else {
      DeliverNow(m.to, std::move(m.e));
    }
  }
}

void Bus::FlushFaults() {
  std::lock_guard<std::mutex> lock(fault_mu_);
  for (auto& [key, link] : links_) {
    // Bypass the delay dice for an explicit flush: release in rank order,
    // immediately.
    std::sort(link.held.begin(), link.held.end(),
              [](const HeldMessage& a, const HeldMessage& b) {
                return a.rank < b.rank;
              });
    for (HeldMessage& m : link.held) DeliverNow(m.to, std::move(m.e));
    link.held.clear();
  }
  std::sort(delayed_.begin(), delayed_.end(),
            [](const DelayedMessage& a, const DelayedMessage& b) {
              return a.due < b.due || (a.due == b.due && a.tie < b.tie);
            });
  for (DelayedMessage& d : delayed_) DeliverNow(d.to, std::move(d.e));
  delayed_.clear();
}

void Bus::EnsureNetThread() {
  if (net_thread_.joinable()) return;
  net_stop_ = false;
  net_thread_ = std::thread([this] { NetLoop(); });
}

void Bus::NetLoop() {
  std::unique_lock<std::mutex> lock(fault_mu_);
  for (;;) {
    if (net_stop_) return;
    auto wake = std::chrono::steady_clock::time_point::max();
    if (!delayed_.empty()) wake = std::min(wake, delayed_.front().due);
    for (auto& [key, link] : links_) {
      for (const HeldMessage& m : link.held) {
        wake = std::min(wake, m.flush_at);
      }
    }
    if (wake == std::chrono::steady_clock::time_point::max()) {
      fault_cv_.wait(lock);
    } else {
      fault_cv_.wait_until(lock, wake);
    }
    if (net_stop_) return;
    const auto now = std::chrono::steady_clock::now();
    while (!delayed_.empty() && delayed_.front().due <= now) {
      std::pop_heap(delayed_.begin(), delayed_.end(), DueLater);
      DelayedMessage d = std::move(delayed_.back());
      delayed_.pop_back();
      DeliverNow(d.to, std::move(d.e));
    }
    for (auto& [key, link] : links_) {
      const bool overdue = std::any_of(
          link.held.begin(), link.held.end(),
          [&](const HeldMessage& m) { return m.flush_at <= now; });
      // One overdue entry flushes the whole holdback in rank order: the
      // buffer models in-flight reordering, not unbounded retention.
      if (overdue) FlushLink(link);
    }
  }
}

}  // namespace qcnt::runtime
