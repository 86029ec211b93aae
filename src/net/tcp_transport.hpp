// TCP transport: the runtime's messages over real sockets.
//
// One TcpTransport instance serves one OS process and hosts a subset of
// the node universe (one replica, or a handful of clients, or — for the
// single-process loopback benchmark — every node). Each hosted node gets
// a listening socket; every frame carries its own (from, to) routing, so
// one connection per *destination process-port* is shared by all local
// senders.
//
// Architecture (DESIGN.md §10):
//
//   Send(from, to, m),       node's consumer       event-loop thread
//   caller's thread          (Pop/PopAll/...)
//   ───────────────────────  ────────────────────  ──────────────────────
//   under the peer's lock    pull first: recv +    epoll_wait on one set
//   only: encode onto the    decode the node's     (wake pipe, listeners,
//   peer's write queue;      own connections,      peer and new inbound
//   connected + queue was    append the burst      fds), then under mu_:
//   empty → send(2) here     under its receive      · accept; read a new
//    · EAGAIN → arm OUT      lock; queue empty →      connection to its
//    · hard error → kick ─┐  park in epoll_wait       first valid frame,
//   not connected → kick ─┤  on its receive set       dispatch it, hand
//   (under mu_)           │  (connections +           the fd to the
//                         │  eventfd; local           node's receive set
//                         │  pushes write the       · connect / backoff /
//                         │  eventfd only when        retarget the kicked
//                         │  it is parked)            and due peers
//                         └─── wake pipe ─────────▶ · flush the EPOLLOUT
//                              (only when the         backlog a blocked
//                               loop is parked)       send left behind
//
// So a connected peer's frames leave on the thread that produced them
// and reach the thread that consumes them with one kernel wake per
// direction: no loop hop on either side of a round trip. The loop owns
// only what it alone can do: accepts and the vetting of new connections,
// connects and their backoff timer, retargets, and the backlog after
// EAGAIN. Lock order is mu_ → Peer::mu and mu_ → a receive set's lock →
// the mailbox's lock; a sender holds only its peer's mu while it writes,
// and hands a hard socket error to the loop (kicked_ + wake) instead of
// failing the peer itself, because the backoff timer (next_retry_) is
// the loop's.
//
// A new inbound connection stays with the loop until it yields its first
// valid frame, so garbage on a fresh connection is dropped with no
// consumer running. Then the loop deregisters it and moves the fd and
// its undecoded tail into the receive set of the node whose listener
// accepted it, and never reads it again.
//
// Every fd is registered once, when it is created, tagged with its kind
// and its node (listeners, peers) or fd (accepted connections), and
// deregistered when it is closed. A peer's interest changes only with
// its state — OUT while connecting, IN once connected, plus OUT while
// bytes are pending — so a loop turn touches only the fds that are
// ready, never the whole set. Level-triggered: an fd with work left is
// simply reported again on the next turn. A handed-off inbound fd moves
// from the loop's set to its node's receive set, registered there until
// the consumer side closes it.
//
// Per-peer connection state machine:
//
//   kIdle ──send──▶ kConnecting ──writable+SO_ERROR==0──▶ kConnected
//     ▲                  │ error                              │ EOF/error
//     └── queue empty ── kBackoff ◀───────────────────────────┘
//                          │ retry_at elapsed (exponential, capped)
//                          └────────▶ kConnecting
//
// Delivery semantics match the Transport contract: at-most-once, FIFO
// per peer (one ordered byte stream), up-check and routing at read time
// (a frame for a crashed local node, or one addressed to a node other
// than the listener's, is dropped and counted; one read after Recover is
// delivered — the same straggler rule the Bus documents). Sends while a
// peer is unreachable are buffered up to max_write_queue_bytes, then
// dropped and counted: the quorum layer's retries own end-to-end
// delivery, the transport only owns best-effort ordered streams.
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
  /// (peers, up-flags, mailbox slots) is pre-allocated to this size so
  /// AddLocalNode / a growing SetPeerEndpoint never reallocates under a
  /// concurrent sender. 0 means universe.size() + a default headroom.
  std::size_t max_nodes = 0;
};

/// Wire-level counters (what the sockets actually did), alongside the
/// Transport-level sent/dropped totals.
struct TcpStats {
  std::uint64_t frames_sent = 0;      // frames encoded onto a peer stream
  std::uint64_t frames_received = 0;  // frames decoded, by the loop (a new
                                      // connection's first) or a consumer
  std::uint64_t bytes_sent = 0;
  std::uint64_t bytes_received = 0;
  std::uint64_t connects = 0;         // successful outbound connects
  std::uint64_t reconnect_attempts = 0;
  std::uint64_t decode_errors = 0;    // connections dropped on bad frames
  std::uint64_t backpressure_drops = 0;
  std::uint64_t unroutable_drops = 0;  // peer endpoint unknown (port 0)
  // Syscall counters: what the wire costs per frame.
  std::uint64_t loop_turns = 0;   // event-loop epoll_wait returns
  std::uint64_t wake_writes = 0;  // wake-pipe writes (senders nudging)
  std::uint64_t send_calls = 0;   // send(2) on outbound peer streams, by
                                  // senders and the loop alike
  std::uint64_t recv_calls = 0;   // recv(2) on accepted and peer fds, by
                                  // the loop and consumers alike
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
  std::size_t Capacity() const { return peers_.size(); }
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
  /// port, or an endpoint that was unknown at construction). Drops the
  /// current connection to the peer, if any; buffered frames carry over
  /// and flush after the next connect. A node id at or beyond NodeCount()
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
  enum class PeerState : std::uint8_t {
    kIdle,        // no connection, nothing queued
    kConnecting,  // nonblocking connect in flight
    kConnected,
    kBackoff,     // connect failed / connection died; retry at retry_at
  };

  /// Outbound connection state machine toward one remote node. Every
  /// field is guarded by `mu`: senders hold it to write through on their
  /// own threads, and the loop takes it before touching the fd, the
  /// queue or the state.
  struct Peer {
    mutable std::mutex mu;  // lock order: TcpTransport::mu_ → mu
    PeerState state = PeerState::kIdle;
    /// SetPeerEndpoint moved the peer: the loop must drop the connection
    /// and redial. Senders stop writing through until it has.
    bool retarget = false;
    int fd = -1;
    /// Pending encoded frames; [out_off, size) is unsent. The vector is
    /// reused across flushes (cleared, capacity kept), so a steady-state
    /// sender allocates nothing per message. It always starts on a frame
    /// boundary.
    std::vector<std::uint8_t> outbuf;
    std::size_t out_off = 0;
    std::uint32_t failures = 0;  // consecutive, drives the backoff
    std::chrono::steady_clock::time_point retry_at{};
    std::uint32_t interest = 0;  // epoll events registered for fd (0: none)
    // Write-side counters, kept here so the send path touches no shared
    // state; WireStats sums them.
    std::uint64_t frames_sent = 0;
    std::uint64_t bytes_sent = 0;
    std::uint64_t send_calls = 0;
    std::uint64_t backpressure_drops = 0;
  };

  /// One accepted inbound connection (any remote process), carrying
  /// frames for the node whose listener accepted it. The loop's inbound_
  /// is indexed by fd (fd == -1 marks a free slot) and holds connections
  /// until they are vetted; a receive set holds them after.
  struct Inbound {
    int fd = -1;
    NodeId node = 0;      // the accepting listener's node
    bool vetted = false;  // a valid frame has been decoded
    /// Grow-only receive buffer, never zero-filled: [off, filled) holds
    /// received bytes not yet decoded, [filled, cap) is free.
    std::unique_ptr<std::uint8_t[]> buf;
    std::size_t cap = 0;
    std::size_t filled = 0;
    std::size_t off = 0;
  };

  /// What an epoll registration points at (packed with an id into the
  /// event's 64-bit tag).
  enum class FdKind : std::uint32_t { kWake, kListen, kPeer, kInbound };

  /// A hosted node's receive set: its vetted inbound connections and an
  /// eventfd, in an epoll set of their own. The mailbox's observers pull
  /// through it and its consumer parks in it (see mailbox.hpp).
  class Receiver final : public MailboxSource {
   public:
    explicit Receiver(TcpTransport& transport);
    ~Receiver() override;
    Receiver(const Receiver&) = delete;
    Receiver& operator=(const Receiver&) = delete;

    void Pull(Mailbox& box) override;
    void Park(std::chrono::steady_clock::time_point deadline) override;
    void Wake() override;
    /// Take over a vetted connection from the loop.
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
    std::vector<Envelope> burst_;  // reused across pulls
    TcpStats stats_;               // the four receive counters only
  };

  /// Per hosted node: the receive set and the mailbox it feeds.
  struct Hosted {
    explicit Hosted(TcpTransport& transport) : rx(transport), box(&rx) {}
    Receiver rx;
    Mailbox box;
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
  /// Encode the frame onto the peer's queue unless the queue is at its
  /// cap (then count the drop and return false). Requires peer.mu held.
  bool Enqueue(Peer& peer, NodeId from, NodeId to, RtMessage& msg);
  /// Queue `node` for the loop's next turn; true when the caller must
  /// then WakeLoop (the loop is parked with no wake pending). Requires
  /// mu_ held.
  bool Kick(NodeId node);
  /// send(2) the queued bytes until drained, or until EAGAIN (then the fd
  /// is armed for OUT and the loop flushes the rest). Runs on a sender's
  /// thread or on the loop's, with the peer's mu held. False on a hard
  /// socket error: the loop then fails the peer; a sender kicks it to the
  /// loop.
  bool TryFlush(NodeId node);
  /// Bring the peer's epoll interest in line with its state. Requires
  /// the peer's mu held.
  void Rearm(NodeId node);
  /// The helpers below run on the loop thread with mu_ held. ServiceKicked,
  /// RetryDuePeers and OnPeerEvent take each peer's mu themselves;
  /// StartConnect, ClosePeerConnection and FailPeer require it held.
  void ServiceKicked();
  void RetryDuePeers(std::chrono::steady_clock::time_point now);
  void StartConnect(NodeId node);
  /// Close the peer's connection, keeping its queue from the first whole
  /// frame the connection did not finish.
  void ClosePeerConnection(Peer& peer);
  void FailPeer(Peer& peer, bool count_attempt);
  void OnPeerEvent(NodeId node, std::uint32_t events);
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
  /// Peer's fields are under the Peer's own mu, a Receiver's under its.
  mutable std::mutex mu_;
  std::vector<Peer> peers_;  // index == destination NodeId
  /// Peers the loop must look at on its next turn: a send that needs a
  /// connect, a sender's hard socket error, or a retarget. Cleared
  /// (capacity kept) per turn.
  std::vector<NodeId> kicked_;
  /// The loop is parked in (or about to enter) epoll_wait with no wake
  /// pending: the next kick must write the wake pipe.
  bool polling_ = false;
  /// No kBackoff peer retries before this (max() when none).
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
