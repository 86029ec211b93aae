#include "net/tcp_transport.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cerrno>
#include <cstring>
#include <memory>

#include "common/check.hpp"

namespace qcnt::net {

namespace {

/// Every recv offers at least this much free buffer.
constexpr std::size_t kReadChunk = 64 * 1024;
/// Ready events taken per epoll_wait (the loop's and receive sets');
/// level-triggered, so the rest wait for the next turn.
constexpr int kMaxEvents = 64;
/// A receive set's epoll tag for its eventfd (connections are tagged
/// with their fd, which is never negative).
constexpr int kEventTag = -1;
/// Default universe-capacity headroom beyond the construction-time nodes
/// (see TcpTransportOptions::max_nodes).
constexpr std::size_t kGrowthHeadroom = 32;

std::size_t CapacityOf(const TcpTransportOptions& o) {
  const std::size_t want =
      o.max_nodes == 0 ? o.universe.size() + kGrowthHeadroom : o.max_nodes;
  return std::max(want, o.universe.size());
}

void SetNonBlocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  QCNT_CHECK(flags >= 0);
  QCNT_CHECK(::fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0);
}

void SetNoDelay(int fd) {
  // Quorum round trips are latency-bound small frames; Nagle would
  // serialize them behind delayed acks.
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

ResolvedAddr ResolveOrThrow(const Endpoint& ep, bool passive) {
  std::string error;
  if (std::optional<ResolvedAddr> r =
          ResolveEndpoint(ep.host, ep.port, passive, &error)) {
    return *r;
  }
  throw TransportIoError("tcp transport: cannot resolve " + ep.host + ": " +
                         error);
}

/// The first frame boundary at or after `off` in a write queue that
/// starts on one.
std::size_t NextFrameBoundary(const std::vector<std::uint8_t>& buf,
                              std::size_t off) {
  std::size_t at = 0;
  while (at < off) at += EncodedFrameBytes(buf.data() + at);
  return at;
}

/// epoll_wait until `deadline` (max() = none) with the timer's own
/// resolution: epoll_pwait2 takes a timespec where epoll_wait rounds to
/// whole milliseconds, which would overshoot a sub-millisecond Pop
/// deadline by up to 1 ms. Kernels before 5.11 lack epoll_pwait2; there
/// the timeout is rounded up, so a timed park never wakes early.
int WaitUntil(int epoll_fd, epoll_event* events, int max_events,
              std::chrono::steady_clock::time_point deadline) {
  if (deadline == std::chrono::steady_clock::time_point::max()) {
    return ::epoll_wait(epoll_fd, events, max_events, -1);
  }
  const auto left = std::max(deadline - std::chrono::steady_clock::now(),
                             std::chrono::steady_clock::duration::zero());
  const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(left);
  const timespec timeout{static_cast<time_t>(ns.count() / 1'000'000'000),
                         static_cast<long>(ns.count() % 1'000'000'000)};
  const int ready =
      ::epoll_pwait2(epoll_fd, events, max_events, &timeout, nullptr);
  if (ready >= 0 || errno != ENOSYS) return ready;
  const auto ms = std::chrono::ceil<std::chrono::milliseconds>(left).count();
  return ::epoll_wait(epoll_fd, events, max_events,
                      static_cast<int>(std::min<long long>(ms, 1 << 30)));
}

/// Deregister, then close: epoll keys a registration on the open file,
/// which outlives close(2) while a forked child still holds the socket —
/// its events would then arrive tagged for a reused fd or node.
void DeregisterAndClose(int epoll_fd, int& fd) {
  if (fd < 0) return;
  ::epoll_ctl(epoll_fd, EPOLL_CTL_DEL, fd, nullptr);
  ::close(fd);
  fd = -1;
}

std::uint16_t PortOf(const sockaddr_storage& ss) {
  if (ss.ss_family == AF_INET6) {
    return ntohs(reinterpret_cast<const sockaddr_in6&>(ss).sin6_port);
  }
  return ntohs(reinterpret_cast<const sockaddr_in&>(ss).sin_port);
}

}  // namespace

std::optional<ResolvedAddr> ResolveEndpoint(const std::string& host,
                                            std::uint16_t port, bool passive,
                                            std::string* error) {
  addrinfo hints{};
  hints.ai_family = AF_UNSPEC;
  hints.ai_socktype = SOCK_STREAM;
  hints.ai_protocol = IPPROTO_TCP;
  // No AI_ADDRCONFIG: "::1" must resolve even on hosts whose only IPv6
  // address is loopback (common in containers), and numeric literals
  // should never depend on interface configuration.
  hints.ai_flags = passive ? AI_PASSIVE : 0;
  addrinfo* res = nullptr;
  const int rc = ::getaddrinfo(host.empty() ? nullptr : host.c_str(),
                               std::to_string(port).c_str(), &hints, &res);
  if (rc != 0) {
    if (error != nullptr) {
      *error = rc == EAI_SYSTEM ? std::strerror(errno) : ::gai_strerror(rc);
    }
    return std::nullopt;
  }
  ResolvedAddr out;
  out.family = res->ai_family;
  out.len = res->ai_addrlen;
  std::memcpy(&out.addr, res->ai_addr, res->ai_addrlen);
  ::freeaddrinfo(res);
  return out;
}

TcpTransport::TcpTransport(TcpTransportOptions options,
                           std::vector<NodeId> local_nodes)
    : options_(std::move(options)),
      universe_(options_.universe),
      local_(CapacityOf(options_), 0),
      hosted_(CapacityOf(options_)),
      up_(CapacityOf(options_)),
      crash_hooks_(CapacityOf(options_)),
      recover_hooks_(CapacityOf(options_)),
      listen_fd_(CapacityOf(options_), -1) {
  QCNT_CHECK_MSG(!universe_.empty(), "tcp transport: empty universe");
  QCNT_CHECK_MSG(!local_nodes.empty(), "tcp transport: no hosted nodes");
  const std::size_t nodes = universe_.size();
  universe_.resize(CapacityOf(options_));  // headroom slots: port 0, dark
  count_.store(nodes, std::memory_order_release);
  for (std::size_t i = 0; i < nodes; ++i) up_[i].store(true);
  for (NodeId node : local_nodes) {
    QCNT_CHECK(node < nodes);
    QCNT_CHECK_MSG(!local_[node], "tcp transport: duplicate hosted node");
    local_[node] = 1;
    hosted_[node] = std::make_unique<Hosted>(*this, node, Capacity());
  }

  epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
  QCNT_CHECK(epoll_fd_ >= 0);
  QCNT_CHECK(::pipe(wake_pipe_) == 0);
  SetNonBlocking(wake_pipe_[0]);
  SetNonBlocking(wake_pipe_[1]);
  EpollCtl(EPOLL_CTL_ADD, wake_pipe_[0], EPOLLIN, FdKind::kWake, 0);

  // Bind every hosted node's listener before the loop (and before the
  // constructor returns), so a single-process universe can immediately
  // connect node-to-node and a multi-process replica is reachable the
  // moment its constructor finishes.
  for (NodeId node : local_nodes) listen_fd_[node] = BindListenerOrThrow(node);

  loop_ = std::thread([this] { Loop(); });
}

int TcpTransport::BindListenerOrThrow(NodeId node) {
  const ResolvedAddr addr = ResolveOrThrow(universe_[node], /*passive=*/true);
  const int fd = ::socket(addr.family, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) throw TransportIoError("tcp transport: socket() failed");
  int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr.addr), addr.len) !=
          0 ||
      ::listen(fd, 64) != 0) {
    const int err = errno;
    ::close(fd);
    throw TransportIoError("tcp transport: cannot listen on " +
                           universe_[node].host + ":" +
                           std::to_string(universe_[node].port) +
                           " for node " + std::to_string(node) + ": " +
                           std::strerror(err));
  }
  SetNonBlocking(fd);
  // Resolve an ephemeral bind back into the universe table.
  sockaddr_storage bound{};
  socklen_t len = sizeof(bound);
  QCNT_CHECK(::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &len) ==
             0);
  universe_[node].port = PortOf(bound);
  EpollCtl(EPOLL_CTL_ADD, fd, EPOLLIN, FdKind::kListen, node);
  return fd;
}

void TcpTransport::EpollCtl(int op, int fd, std::uint32_t events, FdKind kind,
                            std::uint32_t id) {
  epoll_event ev{};
  ev.events = events;
  ev.data.u64 = (static_cast<std::uint64_t>(kind) << 32) | id;
  QCNT_CHECK(::epoll_ctl(epoll_fd_, op, fd, &ev) == 0);
}

TcpTransport::~TcpTransport() {
  stop_.store(true);
  WakeLoop();
  if (loop_.joinable()) loop_.join();
  for (int fd : listen_fd_) {
    if (fd >= 0) ::close(fd);
  }
  for (const std::unique_ptr<Hosted>& h : hosted_) {
    if (!h) continue;
    // A connected link's socket is its receive set's to close.
    for (Link& link : h->links) {
      if (link.state == LinkState::kConnecting) CloseFd(link.fd);
    }
  }
  for (Inbound& in : inbound_) CloseFd(in.fd);
  hosted_.clear();  // receive sets close their own connections
  ::close(epoll_fd_);
  ::close(wake_pipe_[0]);
  ::close(wake_pipe_[1]);
}

Mailbox& TcpTransport::MailboxOf(NodeId node) {
  QCNT_CHECK(node < NodeCount());
  QCNT_CHECK_MSG(local_[node],
                 "tcp transport: mailbox of a node hosted elsewhere");
  return hosted_[node]->box;
}

TcpTransport::Hosted::Hosted(TcpTransport& transport, NodeId node,
                             std::size_t capacity)
    : rx(transport), box(&rx), links(capacity) {
  for (std::size_t remote = 0; remote < capacity; ++remote) {
    links[remote].local = node;
    links[remote].remote = static_cast<NodeId>(remote);
  }
}

std::uint32_t TcpTransport::LinkId(const Link& link) const {
  return static_cast<std::uint32_t>(link.local * Capacity() + link.remote);
}

TcpTransport::Link& TcpTransport::LinkById(std::uint32_t id) {
  return hosted_[id / Capacity()]->links[id % Capacity()];
}

bool TcpTransport::IsLocal(NodeId node) const {
  return node < local_.size() && local_[node] != 0;
}

bool TcpTransport::IsUp(NodeId node) const {
  QCNT_CHECK(node < NodeCount());
  // No failure detector for remote nodes: quorum timeouts are the
  // detector, exactly as in the paper's failure model.
  if (!local_[node]) return true;
  return up_[node].load();
}

bool TcpTransport::Send(NodeId from, NodeId to, RtMessage msg) {
  QCNT_CHECK(from < NodeCount() && to < NodeCount());
  QCNT_CHECK_MSG(local_[from], "tcp transport: send from a remote node");
  sent_.fetch_add(1, std::memory_order_relaxed);
  if (!up_[from].load()) {
    dropped_.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  if (from == to) {
    // Degenerate self-send: no wire involved (mirrors the Bus).
    if (!up_[to].load()) {
      dropped_.fetch_add(1, std::memory_order_relaxed);
      return false;
    }
    hosted_[to]->box.Push(Envelope{from, std::move(msg)});
    return true;
  }
  // Every cross-node message rides the wire, even when the destination
  // is hosted by this same instance: a loopback universe then measures
  // (and tests) the genuine codec + socket path.
  Link& link = hosted_[from]->links[to];
  {
    // Connected: write through on this thread under the link's lock
    // alone. A queue that was not empty is already being flushed — by a
    // sender ahead of us, or by the loop on OUT after EAGAIN — so the
    // frame just joins it.
    std::unique_lock<std::mutex> llock(link.mu);
    if (link.state == LinkState::kConnected && !link.retarget) {
      const bool was_empty = link.outbuf.size() == link.out_off;
      if (!Enqueue(link, from, to, msg)) return false;
      if (!was_empty || TryFlush(link)) return true;
      // Hard socket error. Failing the link means arming its backoff
      // timer, which is the loop's: hand the link over instead. The
      // unsent bytes stay queued, so later senders only append.
      llock.unlock();
      bool wake = false;
      {
        std::lock_guard<std::mutex> lock(mu_);
        wake = Kick(link);
      }
      if (wake) WakeLoop();
      return true;
    }
  }
  // Not connected: the loop connects, or is connecting or backing off.
  bool wake = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (universe_[to].port == 0) {
      ++stats_.unroutable_drops;
      dropped_.fetch_add(1, std::memory_order_relaxed);
      return false;
    }
    std::lock_guard<std::mutex> llock(link.mu);
    const bool was_empty = link.outbuf.size() == link.out_off;
    if (!Enqueue(link, from, to, msg)) return false;
    // Kick the link only when nothing else will make the loop look at
    // it: an idle link needs a connect (a connected one got here only
    // across a state change or a pending retarget, and needs a flush). A
    // non-empty queue was already kicked or is armed for OUT, a
    // connecting link is armed for OUT, and a backing-off link redials
    // on the retry timer — so a burst, or a whole outage, costs one kick
    // rather than one per frame.
    if (was_empty && (link.state == LinkState::kIdle ||
                      link.state == LinkState::kConnected)) {
      wake = Kick(link);
    }
  }
  if (wake) WakeLoop();
  return true;
}

bool TcpTransport::Enqueue(Link& link, NodeId from, NodeId to,
                           RtMessage& msg) {
  if (link.outbuf.size() - link.out_off >= options_.max_write_queue_bytes) {
    ++link.backpressure_drops;
    dropped_.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  EncodeFrame(WireFrame{from, to, std::move(msg)}, link.outbuf);
  ++link.frames_sent;
  return true;
}

bool TcpTransport::Kick(Link& link) {
  kicked_.push_back(&link);
  // A loop that is not parked in epoll_wait services kicked_ before it
  // parks again, so the wake pipe is written at most once per park.
  const bool wake = polling_;
  polling_ = false;
  return wake;
}

void TcpTransport::Crash(NodeId node) {
  QCNT_CHECK(node < NodeCount());
  QCNT_CHECK_MSG(local_[node], "tcp transport: crash of a remote node");
  up_[node].store(false);
  // Same contract as Bus::Crash: mark down first, then either hand the
  // backlog to the node's crash hook (which drains it at a deterministic
  // cut) or discard it here when no hook is installed.
  std::function<void()> hook;
  {
    std::lock_guard<std::mutex> lock(hooks_mu_);
    hook = crash_hooks_[node];
  }
  if (hook) {
    hook();
  } else {
    hosted_[node]->box.Clear();
  }
}

void TcpTransport::Recover(NodeId node) {
  QCNT_CHECK(node < NodeCount());
  QCNT_CHECK_MSG(local_[node], "tcp transport: recover of a remote node");
  Hosted& h = *hosted_[node];
  h.box.Reopen();
  // Frames that reached the node's connections while it was down and
  // that no consumer read meanwhile are read and dropped here, before it
  // is up again: the straggler rule holds whether or not a consumer ran
  // during the outage.
  h.rx.Pull(h.box);
  up_[node].store(true);
  std::function<void()> hook;
  {
    std::lock_guard<std::mutex> lock(hooks_mu_);
    hook = recover_hooks_[node];
  }
  if (hook) hook();
}

void TcpTransport::SetCrashHook(NodeId node, std::function<void()> hook) {
  QCNT_CHECK(node < NodeCount());
  QCNT_CHECK_MSG(local_[node], "tcp transport: crash hook on a remote node");
  std::lock_guard<std::mutex> lock(hooks_mu_);
  crash_hooks_[node] = std::move(hook);
}

void TcpTransport::SetRecoverHook(NodeId node, std::function<void()> hook) {
  QCNT_CHECK(node < NodeCount());
  QCNT_CHECK_MSG(local_[node],
                 "tcp transport: recover hook on a remote node");
  std::lock_guard<std::mutex> lock(hooks_mu_);
  recover_hooks_[node] = std::move(hook);
}

void TcpTransport::CloseAll() {
  for (const std::unique_ptr<Hosted>& h : hosted_) {
    if (h) h->box.Close();
  }
}

Endpoint TcpTransport::ActualEndpoint(NodeId node) const {
  QCNT_CHECK(node < NodeCount());
  std::lock_guard<std::mutex> lock(mu_);
  return universe_[node];
}

void TcpTransport::SetPeerEndpoint(NodeId node, Endpoint endpoint) {
  QCNT_CHECK_MSG(node < Capacity(),
                 "tcp transport: peer id beyond universe capacity");
  bool wake = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    // A brand-new peer (membership change): admit it into the logical
    // universe. Its slots — links, up flag — were pre-allocated at
    // construction, so no reader races a resize.
    if (node >= count_.load(std::memory_order_acquire)) {
      count_.store(static_cast<std::size_t>(node) + 1,
                   std::memory_order_release);
    }
    universe_[node] = std::move(endpoint);
    // The loop owns the link state machine: flag every hosted node's link
    // to the peer and let the loop tear the old connections down and
    // redial (buffered frames carry over).
    for (const std::unique_ptr<Hosted>& h : hosted_) {
      if (!h) continue;
      Link& link = h->links[node];
      {
        std::lock_guard<std::mutex> llock(link.mu);
        link.retarget = true;
      }
      wake |= Kick(link);
    }
  }
  if (wake) WakeLoop();
}

void TcpTransport::AddLocalNode(NodeId node, Endpoint endpoint) {
  QCNT_CHECK_MSG(node < local_.size(),
                 "tcp transport: node id beyond universe capacity");
  {
    std::lock_guard<std::mutex> lock(mu_);
    QCNT_CHECK_MSG(!local_[node], "tcp transport: node already hosted");
    universe_[node] = std::move(endpoint);
    // Resolves an ephemeral port and registers the listener: the loop
    // accepts on it from its next epoll_wait, so no wake is needed. It
    // turns only under mu_, so the node's receive set exists by then.
    listen_fd_[node] = BindListenerOrThrow(node);
    hosted_[node] = std::make_unique<Hosted>(*this, node, Capacity());
    local_[node] = 1;
    up_[node].store(true);
    if (node >= count_.load(std::memory_order_acquire)) {
      count_.store(static_cast<std::size_t>(node) + 1,
                   std::memory_order_release);
    }
  }
}

TcpStats TcpTransport::WireStats() const {
  std::lock_guard<std::mutex> lock(mu_);
  TcpStats s = stats_;
  s.wake_writes = wake_writes_.load(std::memory_order_relaxed);
  std::vector<std::pair<NodeId, NodeId>> pairs;
  for (const std::unique_ptr<Hosted>& h : hosted_) {
    if (!h) continue;
    for (const Link& link : h->links) {
      std::lock_guard<std::mutex> llock(link.mu);
      s.frames_sent += link.frames_sent;
      s.bytes_sent += link.bytes_sent;
      s.send_calls += link.send_calls;
      s.backpressure_drops += link.backpressure_drops;
      if (link.frames_sent > 0) {
        pairs.push_back(std::minmax(link.local, link.remote));
      }
    }
    h->rx.AddStats(s);
  }
  std::sort(pairs.begin(), pairs.end());
  s.talking_pairs = static_cast<std::uint64_t>(
      std::unique(pairs.begin(), pairs.end()) - pairs.begin());
  return s;
}

// --- Event loop -----------------------------------------------------------

void TcpTransport::WakeLoop() {
  const char byte = 1;
  wake_writes_.fetch_add(1, std::memory_order_relaxed);
  // Nonblocking: a full pipe already guarantees a pending wakeup.
  [[maybe_unused]] ssize_t n = ::write(wake_pipe_[1], &byte, 1);
}

void TcpTransport::CloseFd(int& fd) { DeregisterAndClose(epoll_fd_, fd); }

void TcpTransport::StartConnect(Link& link) {
  const Endpoint& ep = universe_[link.remote];
  const std::optional<ResolvedAddr> addr =
      ResolveEndpoint(ep.host, ep.port, /*passive=*/false);
  if (!addr) {
    // Unresolvable peer (bad literal, DNS failure): backoff-retry like a
    // refused connect — the name may start resolving later.
    FailLink(link, /*count_attempt=*/true);
    return;
  }
  const int fd = ::socket(addr->family, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) {
    FailLink(link, /*count_attempt=*/true);
    return;
  }
  SetNonBlocking(fd);
  SetNoDelay(fd);
  ++stats_.reconnect_attempts;
  const int rc = ::connect(fd, reinterpret_cast<const sockaddr*>(&addr->addr),
                           addr->len);
  if (rc != 0 && errno != EINPROGRESS) {
    ::close(fd);
    FailLink(link, /*count_attempt=*/false);  // already counted above
    return;
  }
  link.fd = fd;
  if (rc == 0) {
    OnConnected(link);
  } else {
    link.state = LinkState::kConnecting;
    Rearm(link);
  }
}

void TcpTransport::OnConnected(Link& link) {
  link.state = LinkState::kConnected;
  link.failures = 0;
  ++stats_.connects;
  // From here on the dialer's consumer reads the replies on this socket;
  // its receive set owns the close.
  Inbound in;
  in.fd = link.fd;
  in.node = link.local;
  in.remote = link.remote;
  in.vetted = true;
  hosted_[link.local]->rx.Adopt(std::move(in));
  if (!TryFlush(link)) FailLink(link, /*count_attempt=*/false);
}

void TcpTransport::Detach(Link& link) {
  if (link.fd >= 0) {
    // Deregister first: a forked child that still holds the socket keeps
    // its registration alive past a close.
    if (link.armed) ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, link.fd, nullptr);
    if (link.state == LinkState::kConnecting) {
      ::close(link.fd);  // never reached a receive set
    } else {
      // Both halves fail: the peer reads EOF, and so does this node's
      // receive set, which then closes the socket.
      ::shutdown(link.fd, SHUT_RDWR);
    }
    link.fd = -1;
  }
  link.armed = false;
  // A frame the socket carried only part of is dropped whole: the next
  // connection must open on a frame boundary, or the receiver would read
  // the frame's tail as a corrupt header.
  link.out_off = NextFrameBoundary(link.outbuf, link.out_off);
  if (link.out_off == link.outbuf.size()) {
    link.outbuf.clear();
    link.out_off = 0;
  }
}

void TcpTransport::Retarget(Link& link) {
  link.retarget = false;
  Detach(link);
  link.state = LinkState::kIdle;
  link.failures = 0;
}

void TcpTransport::FailLink(Link& link, bool count_attempt) {
  if (count_attempt) ++stats_.reconnect_attempts;
  Detach(link);
  link.state = LinkState::kBackoff;
  link.failures = std::min(link.failures + 1, 20u);
  auto backoff = options_.reconnect_base * (1u << std::min(link.failures - 1,
                                                           10u));
  backoff = std::min(backoff,
                     std::chrono::duration_cast<std::chrono::milliseconds>(
                         options_.reconnect_max));
  link.retry_at = std::chrono::steady_clock::now() + backoff;
  next_retry_ = std::min(next_retry_, link.retry_at);
}

bool TcpTransport::TryFlush(Link& link) {
  while (link.out_off < link.outbuf.size()) {
    ++link.send_calls;
    const ssize_t n =
        ::send(link.fd, link.outbuf.data() + link.out_off,
               link.outbuf.size() - link.out_off, MSG_NOSIGNAL);
    if (n > 0) {
      link.out_off += static_cast<std::size_t>(n);
      link.bytes_sent += static_cast<std::uint64_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      Rearm(link);  // socket buffer full: the loop flushes the rest on OUT
      return true;
    }
    return false;
  }
  // Fully drained: recycle the buffer — capacity kept, so a steady-state
  // sender appends frames into already-allocated memory.
  link.outbuf.clear();
  link.out_off = 0;
  Rearm(link);
  return true;
}

void TcpTransport::Rearm(Link& link) {
  const bool want = link.state == LinkState::kConnecting ||
                    (link.state == LinkState::kConnected &&
                     link.out_off < link.outbuf.size());
  if (link.fd < 0 || want == link.armed) return;
  if (want) {
    EpollCtl(EPOLL_CTL_ADD, link.fd, EPOLLOUT, FdKind::kLink, LinkId(link));
  } else {
    ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, link.fd, nullptr);
  }
  link.armed = want;
}

void TcpTransport::ServiceKicked() {
  for (Link* link : kicked_) {
    std::lock_guard<std::mutex> llock(link->mu);
    // Tear a stale connection down, then take the normal "pending
    // traffic → connect" path below.
    if (link->retarget) Retarget(*link);
    const bool pending = link->out_off < link->outbuf.size();
    if (link->state == LinkState::kIdle && pending &&
        universe_[link->remote].port != 0) {
      StartConnect(*link);
    } else if (link->state == LinkState::kConnected && pending &&
               !TryFlush(*link)) {
      FailLink(*link, /*count_attempt=*/false);  // a sender's hard error
    }
  }
  kicked_.clear();
}

void TcpTransport::RetryDueLinks(std::chrono::steady_clock::time_point now) {
  if (now < next_retry_) return;
  next_retry_ = std::chrono::steady_clock::time_point::max();
  for (const std::unique_ptr<Hosted>& h : hosted_) {
    if (!h) continue;
    for (Link& link : h->links) {
      std::lock_guard<std::mutex> llock(link.mu);
      if (link.state != LinkState::kBackoff) continue;
      if (now < link.retry_at) {
        next_retry_ = std::min(next_retry_, link.retry_at);
        continue;
      }
      link.state = LinkState::kIdle;
      if (link.out_off < link.outbuf.size() &&
          universe_[link.remote].port != 0) {
        StartConnect(link);  // a failure re-arms next_retry_
      }
    }
  }
}

void TcpTransport::OnLinkEvent(Link& link, std::uint32_t events) {
  std::lock_guard<std::mutex> llock(link.mu);
  if (link.fd < 0) return;  // detached earlier in this batch
  if (link.state == LinkState::kConnecting) {
    int err = 0;
    socklen_t len = sizeof(err);
    ::getsockopt(link.fd, SOL_SOCKET, SO_ERROR, &err, &len);
    if ((events & (EPOLLERR | EPOLLHUP)) != 0 || err != 0) {
      FailLink(link, /*count_attempt=*/false);
    } else {
      OnConnected(link);
    }
    return;
  }
  // The link is registered only while a blocked send left bytes behind;
  // EOF on an idle link is its receive set's to see.
  if ((events & (EPOLLERR | EPOLLHUP)) != 0 ||
      ((events & EPOLLOUT) != 0 && !TryFlush(link))) {
    FailLink(link, /*count_attempt=*/false);
  }
}

void TcpTransport::AcceptAll(NodeId node) {
  for (;;) {
    const int fd = ::accept4(listen_fd_[node], nullptr, nullptr,
                             SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) return;  // EAGAIN, or a raced-away connection
    SetNoDelay(fd);
    const auto slot = static_cast<std::size_t>(fd);
    if (slot >= inbound_.size()) inbound_.resize(slot + 1);
    inbound_[slot].fd = fd;
    inbound_[slot].node = node;
    EpollCtl(EPOLL_CTL_ADD, fd, EPOLLIN, FdKind::kInbound,
             static_cast<std::uint32_t>(fd));
  }
}

bool TcpTransport::ReadInbound(Inbound& in, TcpStats& stats,
                               std::vector<Envelope>& burst, bool vetting) {
  for (;;) {
    if (in.cap - in.filled < kReadChunk) {
      // Make room for a full chunk without zero-filling anything: slide
      // the undecoded tail to the front when that frees enough, else
      // move it into a buffer at least twice the size.
      const std::size_t live = in.filled - in.off;
      if (in.off > 0 && in.cap - live >= kReadChunk) {
        std::memmove(in.buf.get(), in.buf.get() + in.off, live);
      } else {
        std::size_t cap = std::max(in.cap * 2, kReadChunk);
        while (cap - live < kReadChunk) cap *= 2;
        auto bigger = std::make_unique_for_overwrite<std::uint8_t[]>(cap);
        if (live > 0) std::memcpy(bigger.get(), in.buf.get() + in.off, live);
        in.buf = std::move(bigger);
        in.cap = cap;
      }
      in.off = 0;
      in.filled = live;
    }
    const std::size_t room = in.cap - in.filled;
    ++stats.recv_calls;
    const ssize_t n = ::recv(in.fd, in.buf.get() + in.filled, room, 0);
    if (n < 0) {
      // Level-triggered: an interrupted read is simply reported again.
      return errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR;
    }
    if (n == 0) {
      // Peer closed. Complete frames were decoded after earlier reads; a
      // partial tail is a truncated frame and dies with the connection.
      return false;
    }
    in.filled += static_cast<std::size_t>(n);
    stats.bytes_received += static_cast<std::uint64_t>(n);
    // Decode every complete frame in the unconsumed region.
    for (;;) {
      DecodeResult r = DecodeFrame(in.buf.get() + in.off, in.filled - in.off,
                                   options_.max_frame_bytes);
      if (r.status == DecodeStatus::kOk) {
        ++stats.frames_received;
        in.off += r.consumed;
        if (!in.vetted) in.remote = r.frame.from;
        in.vetted = true;
        Admit(in.node, r.frame, burst);
        continue;
      }
      if (r.status == DecodeStatus::kNeedMore) break;
      // Typed decode error: the stream cannot be resynchronized — drop
      // the connection (the sender will reconnect and retransmit at the
      // quorum layer's pace).
      ++stats.decode_errors;
      return false;
    }
    if (in.off == in.filled) in.off = in.filled = 0;
    // A short read drained the socket; a full one may have left more —
    // for the new owner to read, once a vetting read found a frame.
    if (static_cast<std::size_t>(n) < room || (vetting && in.vetted)) {
      return true;
    }
  }
}

void TcpTransport::Admit(NodeId node, WireFrame& frame,
                         std::vector<Envelope>& burst) {
  // Misrouted — a peer table disagreement — or, the Bus's straggler
  // rule, for a node that is down when the frame is read: a frame in
  // flight across a crash dies unless the node recovered first. Drop;
  // never a crash.
  if (frame.to != node || !up_[node].load()) {
    dropped_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  burst.push_back(Envelope{frame.from, std::move(frame.msg)});
}

void TcpTransport::OnInboundEvent(Inbound& in) {
  Hosted& h = *hosted_[in.node];
  const bool open = ReadInbound(in, stats_, vet_burst_, /*vetting=*/true);
  if (!open || !in.vetted) {
    // Frames decoded before a close still count: they were whole.
    h.box.PushAll(vet_burst_);
    if (!open) {
      CloseFd(in.fd);
      in = Inbound{};  // frees the buffer; the slot is reusable
    }
    return;  // or no whole frame yet
  }
  // Vetted: the first frame named the dialer. The socket becomes this
  // node's link to it before the frame reaches the mailbox, so the reply
  // rides it; from here on the node's own observers read it. Its frames
  // so far are queued before the handoff, so FIFO holds across it.
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, in.fd, nullptr);
  if (in.remote < Capacity() && in.remote != in.node) {
    Link& link = h.links[in.remote];
    std::lock_guard<std::mutex> llock(link.mu);
    InstallAccepted(link, in.fd);
  }
  h.box.PushAll(vet_burst_);
  h.rx.Adopt(std::move(in));
  in = Inbound{};
}

void TcpTransport::InstallAccepted(Link& link, int fd) {
  // A retarget pending for the remote node is about its old endpoint;
  // this connection comes from the node as it is now.
  if (link.retarget) Retarget(link);
  // A link with a socket of its own keeps sending on it (both nodes
  // dialed): this one carries only the other direction.
  if (link.fd >= 0) return;
  link.fd = fd;
  link.state = LinkState::kConnected;
  link.failures = 0;
  // Frames queued while the link was down leave now.
  if (!TryFlush(link)) FailLink(link, /*count_attempt=*/false);
}

void TcpTransport::LinkLost(NodeId node, NodeId remote, int fd) {
  if (remote >= Capacity()) return;  // never installed
  bool wake = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    Link& link = hosted_[node]->links[remote];
    std::lock_guard<std::mutex> llock(link.mu);
    // The receive set still holds fd open, so an equal number is the
    // same socket, not a reused one.
    if (link.fd != fd) return;
    FailLink(link, /*count_attempt=*/false);
    wake = Kick(link);  // the loop re-reads next_retry_
  }
  if (wake) WakeLoop();
}

void TcpTransport::Loop() {
  std::array<epoll_event, kMaxEvents> events;
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    if (stop_.load()) return;
    ServiceKicked();
    RetryDueLinks(std::chrono::steady_clock::now());
    int timeout_ms = -1;
    if (next_retry_ != std::chrono::steady_clock::time_point::max()) {
      const auto until = std::chrono::duration_cast<std::chrono::milliseconds>(
          next_retry_ - std::chrono::steady_clock::now());
      timeout_ms = std::max<int>(0, static_cast<int>(until.count()) + 1);
    }
    polling_ = true;
    lock.unlock();
    const int ready =
        ::epoll_wait(epoll_fd_, events.data(), kMaxEvents, timeout_ms);
    lock.lock();
    polling_ = false;
    if (stop_.load()) return;

    ++stats_.loop_turns;
    for (int i = 0; i < ready; ++i) {
      const std::uint64_t tag = events[i].data.u64;
      const auto id = static_cast<std::uint32_t>(tag);
      switch (static_cast<FdKind>(tag >> 32)) {
        case FdKind::kWake: {
          // One read clears any realistic backlog; a fuller pipe is
          // reported again next turn.
          char buf[256];
          [[maybe_unused]] ssize_t n = ::read(wake_pipe_[0], buf, sizeof(buf));
          break;
        }
        case FdKind::kListen:
          AcceptAll(id);
          break;
        case FdKind::kLink:
          OnLinkEvent(LinkById(id), events[i].events);
          break;
        case FdKind::kInbound:
          // A free slot: closed or handed off earlier in this batch.
          if (inbound_[id].fd >= 0) OnInboundEvent(inbound_[id]);
          break;
      }
    }
  }
}

// --- Receive sets -----------------------------------------------------------

TcpTransport::Receiver::Receiver(TcpTransport& transport) : t_(transport) {
  epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
  event_fd_ = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
  QCNT_CHECK(epoll_fd_ >= 0 && event_fd_ >= 0);
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.fd = kEventTag;
  QCNT_CHECK(::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, event_fd_, &ev) == 0);
}

TcpTransport::Receiver::~Receiver() {
  for (Inbound& in : conns_) DeregisterAndClose(epoll_fd_, in.fd);
  DeregisterAndClose(epoll_fd_, event_fd_);
  ::close(epoll_fd_);
}

void TcpTransport::Receiver::Adopt(Inbound&& in) {
  std::lock_guard<std::mutex> lock(mu_);
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.fd = in.fd;
  QCNT_CHECK(::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, in.fd, &ev) == 0);
  conns_.push_back(std::move(in));
}

void TcpTransport::Receiver::Pull(Mailbox& box) {
  std::vector<Inbound> lost;  // allocates only when a connection dies
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!parked_ready_) {
      std::array<epoll_event, kMaxEvents> events;
      ++stats_.ready_polls;
      const int ready = ::epoll_wait(epoll_fd_, events.data(), kMaxEvents, 0);
      ready_.clear();
      for (int i = 0; i < ready; ++i) {
        // The eventfd stays set for the parked consumer's Park to drain.
        if (events[i].data.fd != kEventTag) {
          ready_.push_back(events[i].data.fd);
        }
      }
    }
    parked_ready_ = false;
    for (const int fd : ready_) {
      const auto in =
          std::find_if(conns_.begin(), conns_.end(),
                       [fd](const Inbound& c) { return c.fd == fd; });
      if (in == conns_.end()) continue;  // closed by an earlier pull
      if (!t_.ReadInbound(*in, stats_, burst_, /*vetting=*/false)) {
        ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, in->fd, nullptr);
        lost.push_back(std::move(*in));
        conns_.erase(in);
      }
    }
    // Appended under the receive lock, so a burst never overtakes the one
    // an earlier pull read from the same connection.
    box.PushAll(burst_);
  }
  // A dead connection fails the link that sends on it, if any, for both
  // halves — outside the receive lock, which ranks below mu_ — and then
  // this set, its one close owner, closes it.
  for (Inbound& in : lost) {
    t_.LinkLost(in.node, in.remote, in.fd);
    ::close(in.fd);
  }
}

void TcpTransport::Receiver::Park(
    std::chrono::steady_clock::time_point deadline) {
  std::array<epoll_event, kMaxEvents> events;
  const int ready = WaitUntil(epoll_fd_, events.data(), kMaxEvents, deadline);
  std::lock_guard<std::mutex> lock(mu_);
  ++stats_.ready_polls;
  if (ready < 0) return;  // EINTR: the next pull polls for itself
  ready_.clear();
  for (int i = 0; i < ready; ++i) {
    if (events[i].data.fd == kEventTag) {
      std::uint64_t count = 0;
      [[maybe_unused]] ssize_t n = ::read(event_fd_, &count, sizeof(count));
    } else {
      ready_.push_back(events[i].data.fd);
    }
  }
  parked_ready_ = true;
}

void TcpTransport::Receiver::Wake() {
  const std::uint64_t one = 1;
  [[maybe_unused]] ssize_t n = ::write(event_fd_, &one, sizeof(one));
}

void TcpTransport::Receiver::AddStats(TcpStats& s) const {
  std::lock_guard<std::mutex> lock(mu_);
  s.recv_calls += stats_.recv_calls;
  s.frames_received += stats_.frames_received;
  s.bytes_received += stats_.bytes_received;
  s.decode_errors += stats_.decode_errors;
  s.ready_polls += stats_.ready_polls;
}

}  // namespace qcnt::net
