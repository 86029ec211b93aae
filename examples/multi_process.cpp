// Multi-process deployment: a 5-replica quorum universe as 6 OS
// processes on loopback TCP.
//
// The launcher (default mode) spawns one child process per replica —
// each re-executes this binary with `--replica i` and runs a
// ReplicaServer on its own TcpTransport — then plays the client itself:
// it writes and reads a keyed workload through the ordinary
// QuorumClient, SIGKILLs replica 0 mid-run to show the universe keeps
// serving on a 4-of-5 majority, respawns it, and verifies every key.
//
//   build/examples/multi_process              # whole demo, exit 0 = pass
//   build/examples/multi_process --replicas 7
//
// Ports: replica i listens on port_base + i, the client on
// port_base + n. port_base defaults to 17400; override with
// --port-base or the QCNT_TCP_PORT_BASE environment variable.
#include <signal.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdlib>
#include <cstring>
#include <iostream>
#include <string>
#include <vector>

#include "common/env.hpp"
#include "net/tcp_transport.hpp"
#include "quorum/strategies.hpp"
#include "runtime/client.hpp"
#include "runtime/replica_server.hpp"

namespace {

using qcnt::net::Endpoint;
using qcnt::net::TcpTransport;
using qcnt::net::TcpTransportOptions;
using qcnt::runtime::NodeId;

constexpr std::uint16_t kDefaultPortBase = 17400;

/// Endpoints for n replicas (ports base..base+n-1) plus one client
/// (port base+n) — every process builds the identical universe table.
TcpTransportOptions Universe(std::size_t replicas, std::uint16_t port_base) {
  TcpTransportOptions o;
  o.universe.resize(replicas + 1);
  for (std::size_t i = 0; i < o.universe.size(); ++i) {
    o.universe[i].port = static_cast<std::uint16_t>(port_base + i);
  }
  return o;
}

/// Child process: host replica `id` until SIGTERM.
int RunReplica(NodeId id, std::size_t replicas, std::uint16_t port_base) {
  // Block the shutdown signals before any thread starts, so sigwait in
  // this thread is the one place they are handled.
  sigset_t set;
  sigemptyset(&set);
  sigaddset(&set, SIGTERM);
  sigaddset(&set, SIGINT);
  pthread_sigmask(SIG_BLOCK, &set, nullptr);

  TcpTransport transport(Universe(replicas, port_base), {id});
  qcnt::runtime::ReplicaServer server(transport, id);
  std::cout << "[replica " << id << "] serving on port "
            << transport.ActualEndpoint(id).port << " (pid " << ::getpid()
            << ")\n";

  int sig = 0;
  sigwait(&set, &sig);
  std::cout << "[replica " << id << "] signal " << sig << ", shutting down\n";
  server.Shutdown();
  transport.CloseAll();
  return 0;
}

pid_t SpawnReplica(const char* self, NodeId id, std::size_t replicas,
                   std::uint16_t port_base) {
  const pid_t pid = ::fork();
  if (pid != 0) return pid;
  const std::string id_s = std::to_string(id);
  const std::string n_s = std::to_string(replicas);
  const std::string port_s = std::to_string(port_base);
  ::execl(self, self, "--replica", id_s.c_str(), "--replicas", n_s.c_str(),
          "--port-base", port_s.c_str(), static_cast<char*>(nullptr));
  std::perror("execl");
  _exit(127);
}

bool Check(bool ok, const char* what) {
  if (!ok) std::cerr << "FAIL: " << what << '\n';
  return ok;
}

/// Launcher + client: spawn the replicas, run the workload, kill and
/// respawn one replica, verify, tear everything down.
int RunLauncher(const char* self, std::size_t replicas,
                std::uint16_t port_base) {
  std::vector<pid_t> children;
  for (std::size_t r = 0; r < replicas; ++r) {
    children.push_back(
        SpawnReplica(self, static_cast<NodeId>(r), replicas, port_base));
  }

  bool ok = true;
  {
    // This process is the client node (id = replicas). The transport
    // reconnects with backoff and the client retries with backoff, so
    // there is no "wait for replicas to be up" step — the first ops
    // simply ride the connection establishment.
    const NodeId me = static_cast<NodeId>(replicas);
    TcpTransport transport(Universe(replicas, port_base), {me});
    qcnt::runtime::ClientOptions copts;
    copts.timeout = std::chrono::milliseconds(500);
    copts.max_attempts = 20;
    qcnt::runtime::QuorumClient client(
        transport, me,
        {qcnt::quorum::MajoritySystem(static_cast<qcnt::ReplicaId>(replicas))},
        0, copts);

    constexpr int kKeys = 100;
    const auto key = [](int i) { return "key-" + std::to_string(i); };

    std::cout << "[client] writing " << kKeys << " keys across " << replicas
              << " replica processes\n";
    for (int i = 0; i < kKeys; ++i) {
      ok &= Check(client.Write(key(i), i).ok, "initial write");
    }
    for (int i = 0; i < kKeys; ++i) {
      const auto r = client.Read(key(i));
      ok &= Check(r.ok && r.value == i, "initial read-back");
    }

    std::cout << "[client] SIGKILL replica 0 (pid " << children[0]
              << "); continuing on a " << replicas - 1 << "-of-" << replicas
              << " universe\n";
    ::kill(children[0], SIGKILL);
    ::waitpid(children[0], nullptr, 0);
    for (int i = 0; i < kKeys; ++i) {
      ok &= Check(client.Write(key(i), i + 1000).ok, "write during outage");
    }
    for (int i = 0; i < kKeys; ++i) {
      const auto r = client.Read(key(i));
      ok &= Check(r.ok && r.value == i + 1000, "read during outage");
    }

    std::cout << "[client] respawning replica 0\n";
    children[0] = SpawnReplica(self, 0, replicas, port_base);
    for (int i = 0; i < kKeys; ++i) {
      const auto r = client.Read(key(i));
      ok &= Check(r.ok && r.value == i + 1000, "read after respawn");
    }
    // The restarted replica answers quorums again (reads intersect the
    // write quorums that survived it, so values are still exact).
    for (int i = 0; i < kKeys; ++i) {
      ok &= Check(client.Write(key(i), i + 2000).ok, "write after respawn");
    }
    const auto wire = transport.WireStats();
    std::cout << "[client] wire: " << wire.frames_sent << " frames out, "
              << wire.frames_received << " in, " << wire.reconnect_attempts
              << " reconnect attempts, " << wire.decode_errors
              << " decode errors\n";
    ok &= Check(wire.decode_errors == 0, "no decode errors");
    transport.CloseAll();
  }

  for (pid_t pid : children) ::kill(pid, SIGTERM);
  for (pid_t pid : children) ::waitpid(pid, nullptr, 0);
  std::cout << (ok ? "PASS" : "FAIL")
            << ": multi-process quorum workload over loopback TCP\n";
  return ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  std::size_t replicas = 5;
  std::uint16_t port_base = static_cast<std::uint16_t>(
      qcnt::common::EnvU64("QCNT_TCP_PORT_BASE", 1024, 65535 - 64)
          .value_or(kDefaultPortBase));
  int replica_id = -1;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const char* next = (i + 1 < argc) ? argv[i + 1] : nullptr;
    if (arg == "--replica" && next) {
      replica_id = std::atoi(next);
      ++i;
    } else if (arg == "--replicas" && next) {
      replicas = static_cast<std::size_t>(std::atoi(next));
      ++i;
    } else if (arg == "--port-base" && next) {
      port_base = static_cast<std::uint16_t>(std::atoi(next));
      ++i;
    } else {
      std::cerr << "usage: " << argv[0]
                << " [--replicas n] [--port-base p] [--replica i]\n";
      return 2;
    }
  }
  if (replicas < 1 || replicas > 63) {
    std::cerr << "replicas out of range\n";
    return 2;
  }
  if (replica_id >= 0) {
    return RunReplica(static_cast<NodeId>(replica_id), replicas, port_base);
  }
  return RunLauncher(argv[0], replicas, port_base);
}
