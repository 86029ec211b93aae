// TCP transport: the runtime's messages over real sockets.
//
// One TcpTransport instance serves one OS process and hosts a subset of
// the node universe (one replica, or a handful of clients, or — for the
// single-process loopback benchmark — every node). Each hosted node gets
// a listening socket and one *link* per remote node: a duplex connection
// between the two nodes. A request and its reply ride the same socket,
// so each data segment carries the ACK of the one before it and no
// recv(2) has to send a bare ACK; and two hosted nodes replying to one
// client write two sockets under two locks, never queue on one.
//
// Architecture (DESIGN.md §10):
//
//   Send(from, to, m),       node's consumer       event-loop thread
//   caller's thread          (Pop/PopAll/...)
//   ───────────────────────  ────────────────────  ──────────────────────
//   under link (from, to)'s  pull first: poll the  epoll_wait on one set
//   lock only: encode onto   receive set, recv +   (wake pipe, listeners,
//   its write queue;         decode the ready      connecting and backed-
//   connected + queue was    connections, append   up links, new accepted
//   empty → send(2) here     the burst under its   fds), then under mu_:
//    · EAGAIN → arm OUT      receive lock; queue    · accept; read a new
//    · hard error → kick ─┐  empty → spin on such     connection to its
//   not connected → kick ─┤  pulls for up to the      first valid frame,
//   (under mu_)           │  spin budget, then        install it as the
//                         │  park in epoll_wait       link to the frame's
//                         │  on the receive set       sender, dispatch the
//                         │  (the node's links and    frame, hand the fd
//                         │  accepted connections     to the node's
//                         │  + eventfd). EOF or an    receive set
//                         │  error on a link's      · connect / backoff /
//                         │  socket fails the link    retarget kicked and
//                         │  (under mu_)              due links; a dialed
//                         │                           socket joins the
//                         │                           dialer's receive set
//                         │                         · flush the EPOLLOUT
//                         │                           backlog a blocked
//                         │                           send left behind
//                         └─── wake pipe ─────────▶
//                              (only when the
//                               loop is parked)
//
// So a connected link's frames leave on the thread that produced them
// and reach the thread that consumes them with no loop hop on either
// side of a round trip, and with no kernel wake at all when the reply
// lands while its consumer still spins. The loop owns only what it
// alone can do: accepts and the vetting of new connections, connects and
// their backoff timer, retargets, and the backlog after EAGAIN. Lock
// order is mu_ → Link::mu → a receive set's lock → the mailbox's lock; a
// sender holds only its link's mu while it writes, and hands a hard
// socket error to the loop (kicked_ + wake) instead of failing the link
// itself, because the backoff timer (next_retry_) is the loop's. A
// receive set fails a link after it has released its own lock.
//
// Who dials: the node that sends first. Its socket joins its own receive
// set once connected, so replies are read on its consumer thread. The
// acceptor vets the connection's first frame, whose `from` names the
// dialer, and installs the socket as its own link to that node before
// the frame reaches the mailbox, so the first reply already rides it.
// Two nodes that dial each other at once get two sockets: each keeps
// sending on the one it dialed (FIFO per direction) and reads both. A
// socket the acceptor does not install only carries the other direction.
//
// Ownership: a socket that reached a receive set is closed by that set
// alone — on EOF, an error, a decode error, or its destruction. Failing
// a link (EOF or error seen by either half, a retarget) deregisters the
// socket from the loop and shutdown(2)s it, so the other half reads EOF
// and the peer sees the close; the set closes it when it next reads it.
// A dial that fails before it connects never reached a set, and the loop
// closes it. Whichever side then has frames pending redials; every
// hosted node keeps its listener, so an acceptor can dial back.
//
// Every fd is registered with the loop only while the loop has work on
// it: listeners always, a new inbound connection until it is vetted, a
// link while its connect is in flight or while a blocked send left bytes
// for EPOLLOUT. Level-triggered: an fd with work left is simply reported
// again on the next turn. A link's events are tagged with the link, not
// the fd, so one stale event left in a batch after the link changed
// sockets at worst flushes a queue or fails a fresh link, which redials.
//
// Per-link connection state machine:
//
//   kIdle ──send──▶ kConnecting ──writable+SO_ERROR==0──▶ kConnected
//     ▲  ▲               │ error                        ▲     │ EOF/error
//     │  └ accepted ─────┼──────────────────────────────┘     │
//     └── queue empty ── kBackoff ◀───────────────────────────┘
//                          │ retry_at elapsed (exponential, capped)
//                          └────────▶ kConnecting
//
// (An idle or backing-off link adopts a vetted inbound socket from its
// remote node directly: "accepted" above.)
//
// Delivery semantics match the Transport contract: at-most-once, FIFO
// per link (one ordered byte stream), up-check and routing at read time
// (a frame for a crashed local node, or one addressed to a node other
// than the receiving one, is dropped and counted; one read after Recover
// is delivered — the same straggler rule the Bus documents). Sends while
// a link is down are buffered up to max_write_queue_bytes, then dropped
// and counted: the quorum layer's retries own end-to-end delivery, the
// transport only owns best-effort ordered streams.
//
// Fault injection (FaultPlan, partitions) is deliberately absent — that
// is the in-process Bus's job; on TCP, the network itself is the fault
// injector. Configuring faults on a TCP-backed store throws
// TransportConfigError (see store.cpp).
#pragma once

#include <sys/socket.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "net/codec.hpp"
#include "net/error.hpp"
#include "net/transport.hpp"

namespace qcnt::net {

struct Endpoint {
  /// Numeric IPv4 literal ("127.0.0.1"), numeric IPv6 literal ("::1"),
  /// or a hostname ("localhost") — resolution goes through getaddrinfo.
  std::string host = "127.0.0.1";
  /// 0 means: for a hosted node, "bind an ephemeral port" (read the
  /// result back via ActualEndpoint); for a remote node, "not yet known"
  /// (supply it via SetPeerEndpoint before traffic can flow).
  std::uint16_t port = 0;
};

/// A resolved socket address, family-agnostic (AF_INET or AF_INET6).
struct ResolvedAddr {
  int family = AF_UNSPEC;
  socklen_t len = 0;
  sockaddr_storage addr{};
};

/// Resolve host:port through getaddrinfo — numeric IPv4/IPv6 literals
/// and hostnames alike; the first result wins. `passive` requests an
/// address suitable for bind(2). On failure returns nullopt and, when
/// `error` is non-null, stores the resolver's diagnostic. Numeric
/// literals never block; hostname lookups may (the transport only
/// resolves on bind and on (re)connect, never per frame).
std::optional<ResolvedAddr> ResolveEndpoint(const std::string& host,
                                            std::uint16_t port, bool passive,
                                            std::string* error = nullptr);

struct TcpTransportOptions {
  /// Endpoint per node id; index == NodeId. Fixed-port deployments
  /// (multi-process) assign port_base + id; single-process universes may
  /// leave every port 0 and let the kernel pick.
  std::vector<Endpoint> universe;
  /// Reconnect backoff: base doubles per consecutive failure, capped.
  std::chrono::milliseconds reconnect_base{5};
  std::chrono::milliseconds reconnect_max{500};
  /// Decoder ceiling per frame (see codec.hpp).
  std::size_t max_frame_bytes = kDefaultMaxFrameBytes;
  /// Cap on bytes buffered toward one unreachable peer before new sends
  /// are dropped (and counted) instead of growing without bound.
  std::size_t max_write_queue_bytes = 4u << 20;
  /// Universe capacity ceiling for membership change. All per-node state
  /// (links, up-flags, mailbox slots) is pre-allocated to this size so
  /// AddLocalNode / a growing SetPeerEndpoint never reallocates under a
  /// concurrent sender. 0 means universe.size() + a default headroom.
  std::size_t max_nodes = 0;
};

/// Wire-level counters (what the sockets actually did), alongside the
/// Transport-level sent/dropped totals.
struct TcpStats {
  std::uint64_t frames_sent = 0;      // frames encoded onto a link
  std::uint64_t frames_received = 0;  // frames decoded, by the loop (a new
                                      // connection's first) or a consumer
  std::uint64_t bytes_sent = 0;
  std::uint64_t bytes_received = 0;
  std::uint64_t connects = 0;         // successful outbound connects
  std::uint64_t talking_pairs = 0;    // node pairs some hosted link has
                                      // sent a frame between (unordered)
  std::uint64_t reconnect_attempts = 0;
  std::uint64_t decode_errors = 0;    // connections dropped on bad frames
  std::uint64_t backpressure_drops = 0;
  std::uint64_t unroutable_drops = 0;  // peer endpoint unknown (port 0)
  // Syscall counters: what the wire costs per frame.
  std::uint64_t loop_turns = 0;   // event-loop epoll_wait returns
  std::uint64_t wake_writes = 0;  // wake-pipe writes (senders nudging)
  std::uint64_t send_calls = 0;   // send(2) on links, by senders and the
                                  // loop alike
  std::uint64_t recv_calls = 0;   // recv(2) on links and accepted fds, by
                                  // the loop and consumers alike
  std::uint64_t ready_polls = 0;  // epoll waits on receive sets: a pull's
                                  // zero-timeout poll or a consumer's park
};

class TcpTransport final : public Transport {
 public:
  /// Binds one listener per node in `local_nodes` and starts the event
  /// loop. Throws TransportIoError when a bind/listen fails.
  TcpTransport(TcpTransportOptions options, std::vector<NodeId> local_nodes);
  ~TcpTransport() override;

  TcpTransport(const TcpTransport&) = delete;
  TcpTransport& operator=(const TcpTransport&) = delete;

  // --- Transport ----------------------------------------------------------
  /// Logical universe size: construction-time nodes plus any added since.
  /// Slots in [NodeCount(), Capacity()) are pre-allocated but dark.
  std::size_t NodeCount() const override {
    return count_.load(std::memory_order_acquire);
  }
  std::size_t Capacity() const { return local_.size(); }
  Mailbox& MailboxOf(NodeId node) override;
  bool Send(NodeId from, NodeId to, RtMessage msg) override;
  void Crash(NodeId node) override;
  void Recover(NodeId node) override;
  bool IsUp(NodeId node) const override;
  void SetCrashHook(NodeId node, std::function<void()> hook) override;
  void SetRecoverHook(NodeId node, std::function<void()> hook) override;
  void CloseAll() override;
  std::uint64_t MessagesSent() const override { return sent_.load(); }
  std::uint64_t MessagesDropped() const override { return dropped_.load(); }
  const char* Name() const override { return "tcp"; }

  // --- TCP-specific -------------------------------------------------------

  /// The endpoint a node is actually reachable at (ephemeral ports
  /// resolved for hosted nodes).
  Endpoint ActualEndpoint(NodeId node) const;

  /// Re-target a remote node (a restarted peer that came back on a new
  /// port, or an endpoint that was unknown at construction). Drops every
  /// hosted node's link to the peer, if connected; buffered frames carry
  /// over and flush after the next connect. A node id at or beyond NodeCount()
  /// (but within Capacity) is a *brand-new* peer joining the universe:
  /// the logical node count grows to include it.
  void SetPeerEndpoint(NodeId node, Endpoint endpoint);

  /// Host an additional node on this instance at runtime (membership
  /// change): binds a listener at `endpoint` (port 0 = ephemeral; read
  /// back via ActualEndpoint), creates the node's mailbox, marks it up,
  /// and grows the logical universe to include it. Throws
  /// TransportIoError when the bind fails. The id must be unhosted and
  /// within Capacity; ids between NodeCount() and `node` stay dark.
  void AddLocalNode(NodeId node, Endpoint endpoint);

  bool IsLocal(NodeId node) const;

  TcpStats WireStats() const;

 private:
  enum class LinkState : std::uint8_t {
    kIdle,        // no connection, nothing queued
    kConnecting,  // nonblocking connect in flight
    kConnected,
    kBackoff,     // connect failed / connection died; retry at retry_at
  };

  /// The duplex connection between one hosted node and one remote node.
  /// Every field is guarded by `mu`: senders hold it to write through on
  /// their own threads, and the loop and the receive set take it before
  /// touching the fd, the queue or the state.
  struct Link {
    mutable std::mutex mu;  // lock order: TcpTransport::mu_ → mu
    NodeId local = 0;
    NodeId remote = 0;
    LinkState state = LinkState::kIdle;
    /// SetPeerEndpoint moved the remote node: the loop must drop the
    /// connection and redial. Senders stop writing through until it has.
    bool retarget = false;
    /// The socket this node's frames to `remote` ride; -1 when none. Once
    /// connected it is also in the local node's receive set, which owns
    /// its close.
    int fd = -1;
    /// Pending encoded frames; [out_off, size) is unsent. The vector is
    /// reused across flushes (cleared, capacity kept), so a steady-state
    /// sender allocates nothing per message. It always starts on a frame
    /// boundary.
    std::vector<std::uint8_t> outbuf;
    std::size_t out_off = 0;
    std::uint32_t failures = 0;  // consecutive, drives the backoff
    std::chrono::steady_clock::time_point retry_at{};
    bool armed = false;  // registered with the loop for EPOLLOUT
    // Write-side counters, kept here so the send path touches no shared
    // state; WireStats sums them.
    std::uint64_t frames_sent = 0;
    std::uint64_t bytes_sent = 0;
    std::uint64_t send_calls = 0;
    std::uint64_t backpressure_drops = 0;
  };

  /// One connection a receive set reads (a link's socket, or an accepted
  /// one the acceptor did not install), or one the loop is vetting. The
  /// loop's inbound_ is indexed by fd (fd == -1 marks a free slot) and
  /// holds accepted connections until they are vetted; a receive set
  /// holds them after, and holds every dialed link's socket.
  struct Inbound {
    int fd = -1;
    NodeId node = 0;      // the hosted node that reads it
    NodeId remote = 0;    // the node at the other end (once vetted)
    bool vetted = false;  // a valid frame has been decoded (or dialed)
    /// Grow-only receive buffer, never zero-filled: [off, filled) holds
    /// received bytes not yet decoded, [filled, cap) is free.
    std::unique_ptr<std::uint8_t[]> buf;
    std::size_t cap = 0;
    std::size_t filled = 0;
    std::size_t off = 0;
  };

  /// What an epoll registration points at (packed with an id into the
  /// event's 64-bit tag).
  enum class FdKind : std::uint32_t { kWake, kListen, kLink, kInbound };

  /// A hosted node's receive set: its links' sockets, the accepted
  /// connections it did not install, and an eventfd, in an epoll set of
  /// their own. The mailbox's observers pull through it and its consumer
  /// parks in it (see mailbox.hpp). A pull reads only the connections the
  /// set reports ready: those of the last park, if no pull has used them
  /// yet, else those of its own zero-timeout poll. Pulls skip the
  /// eventfd; only Park drains it.
  class Receiver final : public MailboxSource {
   public:
    /// How long a consumer spins on pulls before it parks. Picked from a
    /// sweep of {20, 50, 100} us on qbench's tcp_hot (EXPERIMENTS.md
    /// E18): 20 us caught only part of the loopback round trips, and
    /// 100 us gained nothing over 50 us.
    static constexpr std::chrono::microseconds kSpinBudget{50};

    explicit Receiver(TcpTransport& transport);
    ~Receiver() override;
    Receiver(const Receiver&) = delete;
    Receiver& operator=(const Receiver&) = delete;

    void Pull(Mailbox& box) override;
    void Park(std::chrono::steady_clock::time_point deadline) override;
    void Wake() override;
    std::chrono::microseconds SpinBudget() const override {
      return kSpinBudget;
    }
    /// Take over a connection: a vetted one from the loop, or a link's
    /// freshly dialed socket.
    void Adopt(Inbound&& in);
    /// Add this node's receive counters into `s`.
    void AddStats(TcpStats& s) const;

   private:
    TcpTransport& t_;
    int epoll_fd_ = -1;
    int event_fd_ = -1;
    /// The receive lock: reading, decoding and appending one pull's burst
    /// happen under it, so concurrent observers keep FIFO order. Parking
    /// does not hold it.
    mutable std::mutex mu_;
    std::vector<Inbound> conns_;
    /// Fds of the connections the last poll or park found readable;
    /// `parked_ready_` while they came from a park no pull has used yet.
    std::vector<int> ready_;
    bool parked_ready_ = false;
    std::vector<Envelope> burst_;  // reused across pulls
    TcpStats stats_;               // the five receive counters only
  };

  /// Per hosted node: the receive set, the mailbox it feeds, and one link
  /// per node id in the universe's capacity (index == remote NodeId).
  struct Hosted {
    Hosted(TcpTransport& transport, NodeId node, std::size_t capacity);
    Receiver rx;
    Mailbox box;
    std::vector<Link> links;
  };

  void Loop();
  void WakeLoop();
  /// Bind + listen for `node` at universe_[node], resolving an ephemeral
  /// port back into the table, and register the listener with the event
  /// loop. Returns the listening fd; throws TransportIoError on failure.
  /// Requires mu_ held (or pre-loop ctor).
  int BindListenerOrThrow(NodeId node);
  void EpollCtl(int op, int fd, std::uint32_t events, FdKind kind,
                std::uint32_t id);
  /// The loop's epoll tag of a link, and back.
  std::uint32_t LinkId(const Link& link) const;
  Link& LinkById(std::uint32_t id);
  /// Encode the frame onto the link's queue unless the queue is at its
  /// cap (then count the drop and return false). Requires link.mu held.
  bool Enqueue(Link& link, NodeId from, NodeId to, RtMessage& msg);
  /// Queue `link` for the loop's next turn; true when the caller must
  /// then WakeLoop (the loop is parked with no wake pending). Requires
  /// mu_ held.
  bool Kick(Link& link);
  /// send(2) the queued bytes until drained, or until EAGAIN (then the fd
  /// is armed for OUT and the loop flushes the rest). Runs on a sender's
  /// thread or on the loop's, with link.mu held. False on a hard socket
  /// error: the loop then fails the link; a sender kicks it to the loop.
  bool TryFlush(Link& link);
  /// Register the link for OUT while a connect or a blocked send needs
  /// it, and deregister it otherwise. Requires link.mu held.
  void Rearm(Link& link);
  /// The helpers below run with mu_ held, on the loop thread unless
  /// noted. ServiceKicked, RetryDueLinks and OnLinkEvent take each
  /// link's mu themselves; the others require it held.
  void ServiceKicked();
  void RetryDueLinks(std::chrono::steady_clock::time_point now);
  void StartConnect(Link& link);
  /// The link's connect completed: its socket joins the local node's
  /// receive set, and the queue starts to flush.
  void OnConnected(Link& link);
  /// Take the link off its socket — deregister it from the loop, then
  /// shut it down for both halves (its receive set closes it) or, if it
  /// never connected, close it — keeping its queue from the first whole
  /// frame the socket did not finish.
  void Detach(Link& link);
  /// SetPeerEndpoint's teardown: detach and return to kIdle.
  void Retarget(Link& link);
  /// Detach and arm the backoff timer. Also runs on a receive set's
  /// thread (LinkLost).
  void FailLink(Link& link, bool count_attempt);
  void OnLinkEvent(Link& link, std::uint32_t events);
  void AcceptAll(NodeId node);
  /// recv + decode the connection's frames into `burst`, until a short
  /// read drains the socket or — `vetting` — a read yields a valid
  /// frame. Counts into `stats`. False: close the connection (EOF,
  /// socket error, or a decode error). Any thread, with whatever lock
  /// owns `in` held.
  bool ReadInbound(Inbound& in, TcpStats& stats, std::vector<Envelope>& burst,
                   bool vetting);
  /// Append the frame to `burst` when it is addressed to `node` and the
  /// node is up; otherwise drop and count it.
  void Admit(NodeId node, WireFrame& frame, std::vector<Envelope>& burst);
  /// The loop's side of a readable, not yet vetted connection.
  void OnInboundEvent(Inbound& in);
  /// A vetted connection from the link's remote node: make it the link's
  /// socket unless the link has one of its own. Requires link.mu held.
  void InstallAccepted(Link& link, int fd);
  /// A receive set read EOF or an error on `fd`, a connection of `node`
  /// to `remote`: fail that link if it still sends on `fd`. Takes mu_ and
  /// the link's mu; the caller holds neither, nor its receive lock.
  void LinkLost(NodeId node, NodeId remote, int fd);
  void CloseFd(int& fd);

  // Every per-node container below is sized to Capacity() at construction
  // and never reallocated; membership growth only advances count_.
  TcpTransportOptions options_;
  std::vector<Endpoint> universe_;  // mutable copy (SetPeerEndpoint)
  std::vector<char> local_;         // 1 = hosted by this instance
  std::vector<std::unique_ptr<Hosted>> hosted_;  // hosted nodes only
  std::vector<std::atomic<bool>> up_;
  std::atomic<std::size_t> count_{0};  // logical node count

  mutable std::mutex hooks_mu_;
  std::vector<std::function<void()>> crash_hooks_;
  std::vector<std::function<void()>> recover_hooks_;

  std::atomic<std::uint64_t> sent_{0};
  std::atomic<std::uint64_t> dropped_{0};

  /// Guards universe_, kicked_, polling_, next_retry_, inbound_, stats_,
  /// vet_burst_ and listen_fd_; the loop holds it for its whole turn. A
  /// Link's fields are under the Link's own mu, a Receiver's under its.
  mutable std::mutex mu_;
  /// Links the loop must look at on its next turn: a send that needs a
  /// connect, a sender's hard socket error, a retarget, or a failure a
  /// receive set found. Cleared (capacity kept) per turn.
  std::vector<Link*> kicked_;
  /// The loop is parked in (or about to enter) epoll_wait with no wake
  /// pending: the next kick must write the wake pipe.
  bool polling_ = false;
  /// No kBackoff link retries before this (max() when none).
  std::chrono::steady_clock::time_point next_retry_ =
      std::chrono::steady_clock::time_point::max();
  std::vector<Inbound> inbound_;  // index == accepted fd, until vetted
  std::vector<Envelope> vet_burst_;  // reused by the loop's reads
  TcpStats stats_;
  std::atomic<std::uint64_t> wake_writes_{0};  // WakeLoop runs unlocked

  // Listening fd per hosted node (-1 elsewhere); under mu_ once the loop
  // runs (AddLocalNode adds one at runtime).
  std::vector<int> listen_fd_;
  int epoll_fd_ = -1;
  int wake_pipe_[2] = {-1, -1};
  std::atomic<bool> stop_{false};
  std::thread loop_;
};

}  // namespace qcnt::net
