// Surviving cascading failures by changing the quorums (Section 4).
//
// A five-replica deployment on the simulated network starts under majority
// quorums. Two replicas fail — fine. A third failure would end write
// availability, so an administrator reconfigures the item onto the three
// survivors *while the system keeps running*; when the third failure lands,
// writes keep succeeding. Generation numbers make the configuration change
// visible to every client that completes a read quorum.
//
//   build/examples/reconfiguration_demo
#include <iostream>

#include "quorum/strategies.hpp"
#include "sim/store.hpp"

int main() {
  using namespace qcnt;
  using sim::OpResult;

  std::vector<quorum::QuorumSystem> configs{
      quorum::MajoritySystem(5),
      quorum::FromConfiguration(
          "majority-of-survivors",
          quorum::Configuration({{0, 1}, {0, 2}, {1, 2}},
                                {{0, 1}, {0, 2}, {1, 2}}))};

  sim::Deployment d(5, 2, configs, 0, sim::LatencyModel::Uniform(1.0, 4.0),
                    0.0, 20260705,
                    {.timeout = std::chrono::milliseconds(100),
                     .target_minimal = false});

  auto write = [&d](std::int64_t value, const char* note) {
    OpResult out;
    d.clients[0]->Write(value, [&out](const OpResult& r) { out = r; });
    d.sim.Run();
    std::cout << "t=" << d.sim.Now() << "ms  write " << value << " — "
              << (out.ok ? "ok" : "FAILED") << "  (" << note << ")\n";
    return out.ok;
  };

  write(1, "all five replicas up");

  d.net.Crash(3);
  d.net.Crash(4);
  write(2, "replicas 3,4 down; majority(5) still reachable");

  std::cout << "\n-- administrator reconfigures onto survivors {0,1,2} --\n";
  OpResult rc;
  d.clients[0]->Reconfigure(1, [&rc](const OpResult& r) { rc = r; });
  d.sim.Run();
  std::cout << "reconfiguration " << (rc.ok ? "succeeded" : "FAILED")
            << "; client now at generation "
            << d.clients[0]->BelievedGeneration() << "\n\n";

  d.net.Crash(2);
  write(3, "replica 2 also down; old config would be dead, new one lives");

  // The second client has never heard about the reconfiguration; its first
  // read adopts the new configuration from the replicas' stamps.
  OpResult read;
  d.clients[1]->Read([&read](const OpResult& r) { read = r; });
  d.sim.Run();
  std::cout << "\nsecond client reads " << read.value
            << " and adopts generation "
            << d.clients[1]->BelievedGeneration() << " (config "
            << d.clients[1]->BelievedConfig() << ")\n";

  std::cout << "\nmessages sent: " << d.net.MessagesSent() << ", delivered: "
            << d.net.MessagesDelivered() << '\n';
  return (rc.ok && read.ok) ? 0 : 1;
}
