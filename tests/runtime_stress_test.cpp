// Stress: N client threads with full pipelines against a 5-replica durable
// store while a chaos thread randomly crashes and recovers a minority of
// replicas. Asserts the pipeline never deadlocks (every future resolves
// and the test finishes), acks are never lost (after quiescence a quorum
// read of each item is at least as new as the freshest acked write), and
// quorum intersection holds (independent readers agree on every item).
// Designed to run under ASan/UBSan and TSan in CI.
#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <map>
#include <mutex>
#include <thread>

#include "common/rng.hpp"
#include "runtime/store.hpp"

namespace qcnt::runtime {
namespace {

namespace fs = std::filesystem;
using namespace std::chrono_literals;

TEST(RuntimeStress, PipelinedClientsUnderCrashRecoverChaos) {
  const std::string scratch = "runtime_stress_scratch";
  fs::remove_all(scratch);
  fs::create_directories(scratch);

  constexpr std::size_t kReplicas = 5;
  constexpr std::size_t kClients = 4;
  constexpr std::size_t kOpsPerClient = 600;
  const std::vector<std::string> keys = {"s0", "s1", "s2", "s3",
                                         "s4", "s5", "s6", "s7"};

  StoreOptions options;
  options.replicas = kReplicas;
  options.max_clients = kClients + 2;
  options.durability = storage::DurabilityOptions{
      .directory = scratch,
      .fsync = storage::FsyncPolicy::kNever,  // chaos, not fsync, is under test
  };
  ReplicatedStore store(std::move(options));

  // Freshest acked write per key across all clients, as (version, value).
  std::mutex acked_mu;
  std::map<std::string, std::pair<std::uint64_t, std::int64_t>> acked;

  std::atomic<bool> chaos_on{true};
  std::atomic<std::uint64_t> completed{0}, failed{0};

  std::vector<std::thread> clients;
  for (std::size_t t = 0; t < kClients; ++t) {
    auto client = store.MakeAsyncClient(ClientOptions{
        .timeout = 2000ms, .window = 16, .max_batch = 8});
    clients.emplace_back([client = std::move(client), t, &keys, &acked_mu,
                          &acked, &completed, &failed] {
      qcnt::Rng rng(0xace0 + t);
      std::vector<std::pair<OpFuture, std::string>> futures;
      for (std::size_t i = 0; i < kOpsPerClient; ++i) {
        const std::string& key = keys[rng.Index(keys.size())];
        const auto value =
            static_cast<std::int64_t>(t * 1'000'000 + i);
        if (rng.Chance(0.25)) {
          futures.emplace_back(client->SubmitRead(key), std::string());
        } else {
          futures.emplace_back(client->SubmitWrite(key, value), key);
        }
      }
      client->Drain();
      for (auto& [future, key] : futures) {
        ASSERT_TRUE(future.Ready()) << "unresolved future (deadlock?)";
        const ClientResult r = future.Get();
        ++completed;
        if (!r.ok) {
          ++failed;
          continue;
        }
        if (!key.empty()) {
          std::lock_guard<std::mutex> lock(acked_mu);
          auto& best = acked[key];
          if (r.version > best.first) best = {r.version, r.value};
        }
      }
    });
  }

  std::atomic<std::uint64_t> crashes{0};
  std::thread chaos([&store, &chaos_on, &crashes] {
    qcnt::Rng rng(0xc4a05);
    std::vector<bool> down(kReplicas, false);
    std::size_t down_count = 0;
    while (chaos_on.load()) {
      const std::size_t r = rng.Index(kReplicas);
      if (down[r]) {
        store.Recover(r);
        down[r] = false;
        --down_count;
      } else if (down_count < 2) {  // keep a write quorum alive
        store.Crash(r);
        down[r] = true;
        ++down_count;
        ++crashes;
      }
      std::this_thread::sleep_for(
          std::chrono::microseconds(500 + rng.Index(2000)));
    }
    for (std::size_t r = 0; r < kReplicas; ++r) {
      if (down[r]) store.Recover(r);
    }
  });

  for (auto& c : clients) c.join();
  chaos_on.store(false);
  chaos.join();

  EXPECT_EQ(completed.load(), kClients * kOpsPerClient);
  // The chaos thread really did fail-stop replicas mid-pipeline.
  EXPECT_GT(crashes.load(), 0u);
  // Chaos may fail individual ops (their quorum raced a crash); it must
  // not fail the bulk of the workload.
  EXPECT_LT(failed.load(), completed.load() / 2);

  // Quiesced, fully recovered store: no acked write may be lost, and two
  // independent readers must agree on every item (quorum intersection).
  auto reader1 = store.MakeClient();
  auto reader2 = store.MakeClient();
  for (const std::string& key : keys) {
    const ClientResult a = reader1->Read(key);
    const ClientResult b = reader2->Read(key);
    ASSERT_TRUE(a.ok && b.ok);
    EXPECT_EQ(a.version, b.version) << "readers disagree on " << key;
    EXPECT_EQ(a.value, b.value) << "readers disagree on " << key;
    const auto it = acked.find(key);
    if (it != acked.end()) {
      EXPECT_GE(a.version, it->second.first)
          << "acked write lost on " << key;
      if (a.version == it->second.first) {
        // Same version: the surviving value is the acked one (or a
        // same-version racer that won the deterministic value tie-break).
        EXPECT_GE(a.value, it->second.second) << "acked write lost on "
                                              << key;
      }
    }
  }

  fs::remove_all(scratch);
}

}  // namespace
}  // namespace qcnt::runtime
