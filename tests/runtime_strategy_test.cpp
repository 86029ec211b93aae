// Generalized quorum strategies in the threaded runtime.
//
// The seed hardcoded majority at every layer above src/quorum; these
// tests pin the strategy-generic contract end to end:
//   - a store constructed under any descriptor-derivable strategy serves
//     reads/writes correctly, before and after crash/recover, with the
//     crash-window behavior predicted by the strategy's own predicates;
//   - behavioral availability over every up-set matches
//     quorum::ExactAvailability for non-majority systems;
//   - first attempts target minimal quorums (messages per op drop vs the
//     historical full broadcast), escalating only when needed;
//   - a client whose table cannot resolve a config id learns the full
//     configuration from the self-describing wire payload;
//   - the StrategyAdvisor switches strategies live, under traffic, with
//     hysteresis;
//   - membership change re-derives the serving strategy (3 -> 5 -> 3
//     under ROWA stays ROWA) or refuses with a typed error (a full 2x2
//     grid cannot grow to 5).
#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "quorum/availability.hpp"
#include "quorum/strategy_descriptor.hpp"
#include "reconfig/catchup.hpp"
#include "runtime/store.hpp"
#include "runtime/strategy_advisor.hpp"

namespace qcnt::runtime {
namespace {

using namespace std::chrono_literals;
using reconfig::AddReplica;
using reconfig::MembershipReport;
using reconfig::RemoveReplica;

struct StrategyCase {
  const char* spec;
  std::size_t replicas;
};

// Printed into each case's listed name: the default byte dump would embed
// the spec's string-literal address, so names would shift with every link.
void PrintTo(const StrategyCase& c, std::ostream* os) {
  *os << c.spec << " on " << c.replicas << " replicas";
}

std::string CaseName(const ::testing::TestParamInfo<StrategyCase>& info) {
  std::string name = info.param.spec;
  for (char& c : name) {
    if (!(std::isalnum(static_cast<unsigned char>(c)))) c = '_';
  }
  return name;
}

class StrategySweep : public ::testing::TestWithParam<StrategyCase> {};

// One store per strategy: plain traffic, then a crash window whose
// read/write behavior must match the strategy's own has_read/has_write
// over the surviving up-set, then recovery and a full audit.
TEST_P(StrategySweep, ServesAndSurvivesCrashAsPredicted) {
  const StrategyCase& param = GetParam();
  StoreOptions options;
  options.replicas = param.replicas;
  options.strategy = param.spec;
  options.client_options.timeout = 150ms;
  ReplicatedStore store(std::move(options));

  // The installed config 0 is exactly the parsed descriptor.
  const auto cfg = store.ConfigTableRef()->At(0);
  EXPECT_EQ(cfg->system.descriptor, quorum::ParseStrategy(param.spec));
  EXPECT_EQ(cfg->members.size(), param.replicas);

  auto client = store.MakeClient();
  for (int k = 0; k < 8; ++k) {
    const std::string key = "k" + std::to_string(k);
    ASSERT_TRUE(client->Write(key, 100 + k).ok) << param.spec << " " << key;
    const ClientResult r = client->Read(key);
    ASSERT_TRUE(r.ok);
    EXPECT_EQ(r.value, 100 + k);
  }

  // Crash the highest-id replica; the strategy's own predicates say what
  // must keep working. (For weighted this crashes a 1-vote member, for
  // tree a leaf, for grid a cell — reads stay available in every case
  // here; writes stay available except under ROWA.)
  const NodeId down = static_cast<NodeId>(param.replicas - 1);
  const std::uint64_t up_mask =
      cfg->member_mask & ~(1ull << down);
  const bool read_ok = cfg->system.has_read(up_mask);
  const bool write_ok = cfg->system.has_write(up_mask);
  store.Crash(down);

  const ClientResult cr = client->Read("k0");
  EXPECT_EQ(cr.ok, read_ok) << param.spec << " read under crash";
  if (cr.ok) EXPECT_EQ(cr.value, 100);
  const ClientResult cw = client->Write("k0", 555);
  EXPECT_EQ(cw.ok, write_ok) << param.spec << " write under crash";

  store.Recover(down);
  for (int k = 0; k < 8; ++k) {
    const std::string key = "k" + std::to_string(k);
    ASSERT_TRUE(client->Write(key, 200 + k).ok) << param.spec << " " << key;
    const ClientResult r = client->Read(key);
    ASSERT_TRUE(r.ok);
    EXPECT_EQ(r.value, 200 + k);
  }
  EXPECT_EQ(client->DivergencesObserved(), 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Strategies, StrategySweep,
    ::testing::Values(StrategyCase{"majority", 5}, StrategyCase{"rowa", 5},
                      StrategyCase{"grid:2x2", 4},
                      StrategyCase{"tree:3,2", 4},
                      StrategyCase{"weighted:3,1,1,1,1:3:5", 5}),
    CaseName);

// Behavioral availability equals the analytic predicate on every up-set,
// for two non-majority systems. At up_prob = 1/2 every up-set is equally
// likely, so the fraction of serving up-sets must equal ExactAvailability
// exactly — the store is the predicate, run through real crashes.
class AvailabilityUnderCrash
    : public ::testing::TestWithParam<StrategyCase> {};

TEST_P(AvailabilityUnderCrash, MatchesExactAvailabilityOnEveryUpSet) {
  const StrategyCase& param = GetParam();
  const std::size_t n = param.replicas;
  StoreOptions options;
  options.replicas = n;
  options.strategy = param.spec;
  options.client_options.timeout = 60ms;
  ReplicatedStore store(std::move(options));
  const auto cfg = store.ConfigTableRef()->At(0);
  auto client = store.MakeClient();
  ASSERT_TRUE(client->Write("x", 7).ok);

  std::size_t read_served = 0, write_served = 0;
  for (std::uint64_t up = 0; up < (1ull << n); ++up) {
    for (std::size_t r = 0; r < n; ++r) {
      if ((up & (1ull << r)) == 0) store.Crash(r);
    }
    const ClientResult rr = client->Read("x");
    EXPECT_EQ(rr.ok, cfg->system.has_read(up))
        << param.spec << " read, up-set " << up;
    const ClientResult rw = client->Write("x", 7);
    EXPECT_EQ(rw.ok, cfg->system.has_write(up))
        << param.spec << " write, up-set " << up;
    read_served += rr.ok ? 1 : 0;
    write_served += rw.ok ? 1 : 0;
    for (std::size_t r = 0; r < n; ++r) {
      if ((up & (1ull << r)) == 0) store.Recover(r);
    }
  }
  const quorum::Availability exact =
      quorum::ExactAvailability(cfg->system, 0.5);
  const double denom = static_cast<double>(1ull << n);
  EXPECT_DOUBLE_EQ(static_cast<double>(read_served) / denom, exact.read);
  EXPECT_DOUBLE_EQ(static_cast<double>(write_served) / denom, exact.write);
}

INSTANTIATE_TEST_SUITE_P(
    NonMajoritySystems, AvailabilityUnderCrash,
    ::testing::Values(StrategyCase{"grid:2x2", 4},
                      StrategyCase{"tree:3,2", 4}),
    CaseName);

// The read-phase over-fanout fix: first attempts contact a minimal read
// quorum, not every member. Counting transport messages per logical read
// pins it — under ROWA a read is 1 request + 1 response; under majority-
// of-5 it is 3 + 3; the historical broadcast cost 5 + 5 regardless.
TEST(StrategyTargeting, MessagesPerReadDropBelowBroadcast) {
  constexpr int kReads = 100;
  const auto messages_per_read = [](const char* spec) {
    StoreOptions options;
    options.replicas = 5;
    options.strategy = spec;
    ReplicatedStore store(std::move(options));
    auto client = store.MakeClient();
    EXPECT_TRUE(client->Write("x", 1).ok);
    const std::uint64_t before = store.MessagesSent();
    for (int i = 0; i < kReads; ++i) {
      EXPECT_TRUE(client->Read("x").ok);
    }
    EXPECT_EQ(client->Escalations(), 0u) << spec;
    return static_cast<double>(store.MessagesSent() - before) / kReads;
  };
  // Broadcast read = 10 messages round trip. Minimal quorums: allow one
  // message of slack for stragglers from earlier ops.
  EXPECT_LE(messages_per_read("rowa"), 3.0);
  EXPECT_LE(messages_per_read("majority"), 7.0);
  EXPECT_LT(messages_per_read("majority"), 10.0);
}

// Escalation: when the believed-up set goes stale (a replica in the
// minimal quorum is crashed but the client has not learned it — the
// in-process bus refuses the send, so the client repicks immediately),
// operations still complete against the surviving members.
TEST(StrategyTargeting, RepicksAroundCrashedMinimalQuorumMembers) {
  StoreOptions options;
  options.replicas = 5;
  options.strategy = "majority";
  ReplicatedStore store(std::move(options));
  auto client = store.MakeClient();
  ASSERT_TRUE(client->Write("x", 1).ok);
  // The minimal majority pick is the lowest ids; crash inside it.
  store.Crash(0);
  store.Crash(1);
  const ClientResult r = client->Read("x");
  ASSERT_TRUE(r.ok);
  EXPECT_EQ(r.value, 1);
  ASSERT_TRUE(client->Write("x", 2).ok);
  EXPECT_EQ(client->Read("x").value, 2);
}

// A client holding a foreign ConfigTable (a separate process's view:
// knows the initial config, not the one a coordinator appended later)
// learns the new configuration from the self-describing payload on the
// fence NACK and finishes its write under it.
TEST(WireConfig, FencedClientInstallsConfigFromPayload) {
  StoreOptions options;
  options.replicas = 3;
  options.strategy = "majority";
  options.max_clients = 4;
  ReplicatedStore store(std::move(options));
  auto native = store.MakeClient();
  ASSERT_TRUE(native->Write("x", 1).ok);

  // Switch the store to ROWA: appends config 1 to the store's table and
  // stamps generation 1 through the replicas.
  StrategyAdvisor advisor(store, StrategyAdvisorOptions{});
  std::string error;
  ASSERT_TRUE(advisor.SwitchTo(
      quorum::StrategyDescriptor{quorum::StrategyKind::kReadOneWriteAll},
      &error))
      << error;
  ASSERT_EQ(store.CurrentConfigId(), 1u);

  // A foreign client: same transport, own table that only knows the
  // initial configuration. Uses the last client slot directly (the store
  // sized its transport for max_clients nodes; MakeClient was called
  // once, so this id is unused).
  auto foreign_table = std::make_shared<ConfigTable>(
      std::vector<quorum::QuorumSystem>{quorum::MajoritySystem(3)});
  ClientOptions copts;
  copts.max_attempts = 3;
  QuorumClient foreign(store.TransportRef(),
                       static_cast<NodeId>(3 + 4 - 1), foreign_table, 0,
                       copts);
  ASSERT_EQ(foreign_table->TryAt(1), nullptr);

  // Its write under the stale generation gets fenced; the NACK carries
  // the full configuration, the client installs it and retries under
  // ROWA (write quorum = all three replicas).
  const ClientResult r = foreign.Write("x", 2);
  ASSERT_TRUE(r.ok) << ToString(r.status);
  EXPECT_EQ(foreign.BelievedConfig(), 1u);
  const auto learned = foreign_table->TryAt(1);
  ASSERT_NE(learned, nullptr);
  EXPECT_EQ(learned->system.descriptor.kind,
            quorum::StrategyKind::kReadOneWriteAll);
  EXPECT_EQ(learned->members, store.Members());
  EXPECT_EQ(native->Read("x").value, 2);
}

// The advisor closes the §4 loop: a read-heavy phase flips the store to
// the read-optimized strategy, a write-heavy phase flips it back, and
// the hysteresis band keeps a mixed workload from flapping.
TEST(StrategyAdvisorLoop, SwitchesOnWorkloadMixWithHysteresis) {
  StoreOptions options;
  options.replicas = 3;
  options.strategy = "majority";
  ReplicatedStore store(std::move(options));
  auto client = store.MakeClient();
  ASSERT_TRUE(client->Write("x", 1).ok);

  StrategyAdvisorOptions aopts;
  aopts.poll_interval = 10ms;
  aopts.min_ops_per_window = 16;
  aopts.cooldown = 30ms;
  StrategyAdvisor advisor(store, aopts);
  advisor.Start();

  const auto current_kind = [&store] {
    return store.ConfigTableRef()
        ->At(store.CurrentConfigId())
        ->system.descriptor.kind;
  };
  const auto pump_until = [&](quorum::StrategyKind want, double read_frac) {
    qcnt::Rng rng(42);
    for (int spin = 0; spin < 400; ++spin) {
      for (int i = 0; i < 32; ++i) {
        if (rng.NextDouble() < read_frac) {
          client->Read("x");
        } else {
          client->Write("x", i);
        }
      }
      if (current_kind() == want) return true;
    }
    return false;
  };

  // Pure reads -> ROWA; heavy writes -> back to majority.
  EXPECT_TRUE(pump_until(quorum::StrategyKind::kReadOneWriteAll, 1.0))
      << "advisor never switched to the read-optimized strategy";
  EXPECT_TRUE(pump_until(quorum::StrategyKind::kMajority, 0.2))
      << "advisor never switched back to the balanced strategy";
  advisor.Stop();
  const StrategyAdvisor::Stats stats = advisor.AdvisorStats();
  EXPECT_GE(stats.switches, 2u);

  // The store still serves, and the data survived both switches.
  ASSERT_TRUE(client->Write("x", 99).ok);
  EXPECT_EQ(client->Read("x").value, 99);
}

// Membership change under a non-majority strategy: 3 -> 5 -> 3 under
// ROWA must come back ROWA at every step (the seed silently installed
// majority), and acked data must survive the whole cycle.
TEST(StrategyMembership, GrowShrinkUnderRowaKeepsStrategy) {
  StoreOptions options;
  options.replicas = 3;
  options.strategy = "rowa";
  ReplicatedStore store(std::move(options));
  auto client = store.MakeClient();
  for (int k = 0; k < 4; ++k) {
    ASSERT_TRUE(client->Write("k" + std::to_string(k), 10 + k).ok);
  }

  const auto current_kind = [&store] {
    return store.ConfigTableRef()
        ->At(store.CurrentConfigId())
        ->system.descriptor.kind;
  };

  const MembershipReport g1 = AddReplica(store);
  ASSERT_TRUE(g1.ok) << g1.error;
  EXPECT_EQ(current_kind(), quorum::StrategyKind::kReadOneWriteAll);
  const MembershipReport g2 = AddReplica(store);
  ASSERT_TRUE(g2.ok) << g2.error;
  EXPECT_EQ(store.Members().size(), 5u);
  EXPECT_EQ(current_kind(), quorum::StrategyKind::kReadOneWriteAll);

  const MembershipReport s1 = RemoveReplica(store, 0);
  ASSERT_TRUE(s1.ok) << s1.error;
  const MembershipReport s2 = RemoveReplica(store, 1);
  ASSERT_TRUE(s2.ok) << s2.error;
  EXPECT_EQ(store.Members().size(), 3u);
  EXPECT_EQ(current_kind(), quorum::StrategyKind::kReadOneWriteAll);

  // ROWA over {2, j1, j2}: a read quorum is any one member, so data is
  // only safe if every install reached all members — the write-all leg
  // across two joins and two removals.
  auto audit = store.MakeClient();
  for (int k = 0; k < 4; ++k) {
    const ClientResult r = audit->Read("k" + std::to_string(k));
    ASSERT_TRUE(r.ok);
    EXPECT_EQ(r.value, 10 + k);
  }
}

// A strategy whose parameters pin the universe size refuses membership
// change with a typed error instead of silently downgrading to majority
// — and the store keeps serving under the unchanged configuration.
TEST(StrategyMembership, GridRefusesGrowthWithTypedError) {
  StoreOptions options;
  options.replicas = 4;
  options.strategy = "grid:2x2";
  ReplicatedStore store(std::move(options));
  auto client = store.MakeClient();
  ASSERT_TRUE(client->Write("x", 1).ok);

  const MembershipReport grow = AddReplica(store);
  EXPECT_FALSE(grow.ok);
  EXPECT_NE(grow.error.find("cannot span"), std::string::npos)
      << grow.error;
  EXPECT_EQ(store.Members().size(), 4u);
  EXPECT_EQ(store.ConfigTableRef()
                ->At(store.CurrentConfigId())
                ->system.descriptor.kind,
            quorum::StrategyKind::kGrid);
  ASSERT_TRUE(client->Write("x", 2).ok);
  EXPECT_EQ(client->Read("x").value, 2);
}

// Construction-time validation is typed and fail-fast for explicit
// strategy specs, and tolerant (fall back to majority) for the
// QCNT_STRATEGY environment override.
TEST(StrategyConfig, ExplicitSpecFailsFastEnvFallsBack) {
  StoreOptions bad;
  bad.replicas = 5;
  bad.strategy = "grid:2x2";  // pins 4 nodes, store has 5
  EXPECT_THROW(ReplicatedStore{std::move(bad)},
               quorum::StrategyConfigError);

  StoreOptions garbage;
  garbage.replicas = 3;
  garbage.strategy = "no-such-strategy";
  EXPECT_THROW(ReplicatedStore{std::move(garbage)},
               quorum::StrategyConfigError);

  StoreOptions both;
  both.replicas = 3;
  both.strategy = "majority";
  both.configs.push_back(quorum::MajoritySystem(3));
  EXPECT_THROW(ReplicatedStore{std::move(both)},
               quorum::StrategyConfigError);

  ::setenv("QCNT_STRATEGY", "grid:9x9", 1);  // cannot fit 3 replicas
  {
    StoreOptions options;
    options.replicas = 3;
    ReplicatedStore store(std::move(options));
    EXPECT_EQ(store.ConfigTableRef()->At(0)->system.descriptor.kind,
              quorum::StrategyKind::kMajority);
  }
  ::setenv("QCNT_STRATEGY", "rowa", 1);
  {
    StoreOptions options;
    options.replicas = 3;
    ReplicatedStore store(std::move(options));
    EXPECT_EQ(store.ConfigTableRef()->At(0)->system.descriptor.kind,
              quorum::StrategyKind::kReadOneWriteAll);
    auto client = store.MakeClient();
    ASSERT_TRUE(client->Write("x", 1).ok);
    EXPECT_EQ(client->Read("x").value, 1);
  }
  ::unsetenv("QCNT_STRATEGY");
}

// The async pipelined client under a non-majority strategy: same
// correctness envelope, now with targeted batches.
TEST(StrategyAsync, PipelinedClientServesUnderRowa)
{
  StoreOptions options;
  options.replicas = 4;
  options.strategy = "rowa";
  ReplicatedStore store(std::move(options));
  auto client = store.MakeAsyncClient(
      ClientOptions{.window = 8, .max_batch = 4});
  std::vector<std::pair<OpFuture, std::int64_t>> expected;
  for (int i = 1; i <= 40; ++i) {
    const std::string key = "k" + std::to_string(i % 5);
    client->SubmitWrite(key, i);
    expected.emplace_back(client->SubmitRead(key), i);
  }
  ASSERT_TRUE(client->Drain());
  for (auto& [future, want] : expected) {
    const ClientResult r = future.Get();
    ASSERT_TRUE(r.ok);
    EXPECT_EQ(r.value, want);
  }
  EXPECT_EQ(client->ClientStats().divergences_observed, 0u);
}

}  // namespace
}  // namespace qcnt::runtime
