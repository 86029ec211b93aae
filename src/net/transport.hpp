// Transport: the message-passing substrate of the threaded runtime.
//
// Extracted from the in-process Bus so the same replica servers and
// quorum clients can run over different substrates:
//
//   * runtime::Bus      — mailboxes + threads inside one process; the
//                         test/fault-injection transport (FaultPlan,
//                         partitions, deterministic chaos).
//   * net::TcpTransport — real sockets; replicas and clients as separate
//                         OS processes on real ports (tcp_transport.hpp).
//
// The contract, shared by all implementations (and pinned by
// tests/transport_conformance_test.cpp):
//
//   * Send(from, to, m) is asynchronous and at-most-once. `true` means
//     the transport accepted the message for delivery, not that it
//     arrived; `false` means it was dropped immediately (sender or
//     receiver down locally, unroutable peer, backpressure). End-to-end
//     delivery is the quorum protocol's job (retries + idempotence).
//   * Messages between a live (from, to) pair are delivered in send
//     order (FIFO links: one mailbox per receiver in-process, one
//     ordered byte stream per peer over TCP).
//   * Delivery lands in the receiver's Mailbox, tagged with the sender
//     id: the Bus pushes into it, a TcpTransport mailbox pulls from the
//     node's own connections whenever it is observed (mailbox.hpp).
//     MailboxOf is only meaningful for nodes hosted by this transport
//     instance (every node, for a Bus; this process's nodes, for a
//     TcpTransport).
//   * Crash(node) is local fail-stop: the node stops receiving and its
//     queued backlog dies with it. If a crash hook is installed the hook
//     *owns* the backlog — the transport does not clear the mailbox
//     first, so the node can drain what was delivered before the crash
//     in FIFO order and cut at a deterministic position (see
//     replica_server.hpp). Without a hook the transport discards the
//     backlog itself. Either way the mailbox is empty when Crash
//     returns. Recover(node) restores delivery and runs the node's
//     recover hook. Neither is a remote operation — crashing a *remote*
//     process is done by killing it.
#pragma once

#include <cstdint>
#include <functional>

#include "net/mailbox.hpp"
#include "runtime/message.hpp"

namespace qcnt::net {

using runtime::NodeId;
using runtime::RtMessage;

class Transport {
 public:
  virtual ~Transport() = default;

  /// Size of the node-id universe (replicas + clients).
  virtual std::size_t NodeCount() const = 0;

  /// Receive queue of a node hosted by this transport instance.
  virtual Mailbox& MailboxOf(NodeId node) = 0;

  /// Deliver (or schedule) one message; see the contract above.
  virtual bool Send(NodeId from, NodeId to, RtMessage msg) = 0;

  /// Fail-stop a locally hosted node: mark it down, discard its queued
  /// backlog, run its crash hook.
  virtual void Crash(NodeId node) = 0;
  /// Bring a locally hosted node back up (reopens its mailbox).
  virtual void Recover(NodeId node) = 0;
  /// Liveness of a locally hosted node. Remote nodes report true — a
  /// transport has no failure detector; quorum timeouts are the detector.
  virtual bool IsUp(NodeId node) const = 0;

  /// Install a callback that Crash(node) runs after the node is marked
  /// down. The hook owns the queued backlog: it must consume or discard
  /// it before returning (see replica_server.hpp). nullptr removes it.
  virtual void SetCrashHook(NodeId node, std::function<void()> hook) = 0;

  /// Install a callback that Recover(node) runs after the node is back
  /// up — the node's chance to reset crash-cut state. nullptr removes it.
  virtual void SetRecoverHook(NodeId node, std::function<void()> hook) = 0;

  /// Close every hosted mailbox (shutdown).
  virtual void CloseAll() = 0;

  /// Messages offered to Send / dropped by it, transport-wide.
  virtual std::uint64_t MessagesSent() const = 0;
  virtual std::uint64_t MessagesDropped() const = 0;

  /// Implementation tag for logs and test output ("bus", "tcp").
  virtual const char* Name() const = 0;
};

}  // namespace qcnt::net
