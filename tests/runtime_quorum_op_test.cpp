// Deterministic tests of the sans-IO quorum core (runtime/quorum_op.hpp):
// no transport, no threads, no clock. Each test feeds QuorumCore /
// QuorumOp hand-made responses, send refusals and times, and asserts the
// sends and completions that come out.
#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "quorum/strategies.hpp"
#include "runtime/quorum_op.hpp"

namespace qcnt::runtime {
namespace {

using namespace std::chrono_literals;
using Step = QuorumOp::Step;
using Kind = QuorumOp::Kind;

const TimePoint kT0 = TimePoint{} + 1000s;

std::shared_ptr<ConfigTable> Majorities(std::size_t count, ReplicaId n = 3) {
  std::vector<quorum::QuorumSystem> systems;
  for (std::size_t i = 0; i < count; ++i) {
    systems.push_back(quorum::MajoritySystem(n));
  }
  return std::make_shared<ConfigTable>(std::move(systems));
}

ClientOptions Opts() {
  ClientOptions o;
  o.timeout = 1000ms;
  o.escalate_after = 10ms;
  return o;
}

/// A response header carrying a replica's (generation, config_id) stamp.
RtMessage Header(std::uint64_t generation, std::uint32_t config_id) {
  RtMessage m;
  m.kind = RtMessage::Kind::kBatchReadResp;
  m.generation = generation;
  m.config_id = config_id;
  return m;
}

/// Feed one read entry the way AsyncQuorumClient does: header, then entry.
Step Read(QuorumCore& core, QuorumOp& op, NodeId from, std::uint64_t version,
          std::int64_t value, TimePoint now = kT0,
          std::uint64_t generation = 0, std::uint32_t config_id = 0) {
  EXPECT_TRUE(core.Hear(from, Header(generation, config_id)));
  return op.OnRead(core, from, generation, config_id, version, value, now);
}

TEST(QuorumCore, LearnOrdersByGenerationThenConfigId) {
  QuorumCore core(9, Majorities(3), 0, Opts());
  core.Learn(0, 2);  // equal generation, newer config: adopted
  EXPECT_EQ(core.Generation(), 0u);
  EXPECT_EQ(core.ConfigId(), 2u);
  core.Learn(0, 1);  // equal generation, older config: ignored
  EXPECT_EQ(core.ConfigId(), 2u);
  core.Learn(1, 0);  // newer generation wins over any config id
  EXPECT_EQ(core.Generation(), 1u);
  EXPECT_EQ(core.ConfigId(), 0u);
  core.Learn(0, 2);  // older generation: ignored
  EXPECT_EQ(core.Generation(), 1u);
  EXPECT_EQ(core.ConfigId(), 0u);
  core.Learn(5, 7);  // newer but unresolvable: ignored
  EXPECT_EQ(core.Generation(), 1u);
  EXPECT_EQ(core.ConfigId(), 0u);
}

TEST(QuorumCore, HostileWireConfigStaysUnresolvable) {
  auto table = Majorities(1);
  QuorumCore core(9, table, 0, Opts());
  RtMessage m = Header(3, 5);
  // A 3x3 grid cannot span two members: no legal system, so the id stays
  // a gap and the stamp naming it is refused.
  m.config = ConfigPayload{
      {0, 1}, quorum::StrategyDescriptor{quorum::StrategyKind::kGrid, 3, 3,
                                         {}, 0, 0}};
  EXPECT_TRUE(core.Hear(0, m));
  EXPECT_EQ(table->TryAt(5), nullptr);
  EXPECT_EQ(core.Generation(), 0u);
  EXPECT_EQ(core.ConfigId(), 0u);
  // The same id with a legal payload installs and is learned.
  m.config = ConfigPayload{
      {0, 1, 2}, quorum::StrategyDescriptor{quorum::StrategyKind::kMajority,
                                            0, 0, {}, 0, 0}};
  EXPECT_TRUE(core.Hear(1, m));
  ASSERT_NE(table->TryAt(5), nullptr);
  EXPECT_EQ(core.Generation(), 3u);
  EXPECT_EQ(core.ConfigId(), 5u);
  // Senders beyond the bitmask domain are never evidence.
  EXPECT_FALSE(core.Hear(64, Header(9, 0)));
  EXPECT_EQ(core.Generation(), 3u);
}

TEST(QuorumCore, RefusalRepicksAndShrinksTheUpMask) {
  QuorumCore core(9, Majorities(1), 0, Opts());
  const auto mc = core.Table()->At(0);
  std::vector<NodeId> tried;
  const std::uint64_t sent =
      core.Target(*mc, /*write_quorum=*/false, /*targeted=*/true,
                  [&](NodeId r) {
                    tried.push_back(r);
                    return r != 0;  // node 0 is down
                  });
  EXPECT_EQ(sent, 0b110u);  // re-picked around the refusal
  EXPECT_EQ(core.BelievedUp() & 1u, 0u);
  EXPECT_EQ(std::set<NodeId>(tried.begin(), tried.end()),
            (std::set<NodeId>{0, 1, 2}));
  EXPECT_EQ(tried.size(), 3u);  // nobody was sent to twice
  // Any response from node 0 puts it back.
  core.Hear(0, Header(0, 0));
  EXPECT_EQ(core.BelievedUp() & 1u, 1u);
  // Untargeted: every member, and the whole member set is reported.
  tried.clear();
  EXPECT_EQ(core.Target(*mc, true, false,
                        [&](NodeId r) {
                          tried.push_back(r);
                          return true;
                        }),
            0b111u);
  EXPECT_EQ(tried.size(), 3u);
}

TEST(QuorumCore, NoAssemblableQuorumFallsBackToFanOut) {
  QuorumCore core(9, Majorities(1), 0, Opts());
  const auto mc = core.Table()->At(0);
  std::vector<NodeId> tried;
  // Two of three refuse: no majority is believed up, so the core stops
  // re-picking and fans out to every member not yet reached.
  const std::uint64_t sent = core.Target(*mc, true, true, [&](NodeId r) {
    tried.push_back(r);
    return r == 2;
  });
  EXPECT_EQ(sent, 0b111u);  // nothing left to escalate to
  EXPECT_EQ(core.BelievedUp() & 0b111u, 0b100u);
}

TEST(QuorumOp, EscalatesExactlyAtEscalateAfter) {
  QuorumCore core(9, Majorities(1), 0, Opts());
  QuorumOp op(Kind::kRead, "k", 0);
  ASSERT_EQ(op.Start(core, kT0), Step::kSend);
  EXPECT_TRUE(op.Targetable(core));
  op.Sent(core, 0b011, kT0);
  EXPECT_EQ(op.NextTimer(), kT0 + 10ms);
  EXPECT_EQ(op.OnTimer(core, kT0 + 10ms - 1us), Step::kWait);
  EXPECT_EQ(core.stats.escalations, 0u);
  ASSERT_EQ(op.OnTimer(core, kT0 + 10ms), Step::kEscalate);
  EXPECT_EQ(op.Fanout(), 0b100u);
  EXPECT_EQ(core.stats.escalations, 1u);
  EXPECT_EQ(op.NextTimer(), kT0 + 1000ms);  // only the deadline is left
  // A fully fanned-out phase never escalates.
  QuorumOp full(Kind::kRead, "j", 0);
  full.Start(core, kT0);
  full.Sent(core, 0b111, kT0);
  EXPECT_EQ(full.NextTimer(), kT0 + 1000ms);
}

TEST(QuorumOp, FencedAttemptFailsFastAndRetriesAtOnce) {
  ClientOptions o = Opts();
  o.max_attempts = 2;
  QuorumCore core(9, Majorities(1), 0, o);
  QuorumOp op(Kind::kWrite, "k", 42);
  op.Start(core, kT0);
  const std::uint64_t first_id = op.Id();
  EXPECT_EQ(Read(core, op, 0, 3, 30), Step::kWait);
  ASSERT_EQ(Read(core, op, 1, 3, 30), Step::kSend);
  EXPECT_EQ(op.OpPhase(), QuorumOp::Phase::kWrite);
  EXPECT_EQ(op.Entry().version, 4u);
  op.Sent(core, 0b111, kT0);
  // One refusal leaves {1, 2}, still a write quorum: keep waiting.
  EXPECT_EQ(op.OnWriteAck(core, 0, /*fenced=*/true, kT0), Step::kWait);
  // The second excludes every write quorum: the attempt fails now, not
  // at its deadline, and the retry is due at once.
  const TimePoint t1 = kT0 + 1ms;
  EXPECT_EQ(op.OnWriteAck(core, 1, true, t1), Step::kWait);
  EXPECT_EQ(op.OpPhase(), QuorumOp::Phase::kBackoff);
  EXPECT_EQ(op.NextTimer(), t1);
  ASSERT_EQ(op.OnTimer(core, t1), Step::kSend);
  EXPECT_NE(op.Id(), first_id);
  EXPECT_EQ(core.stats.retries, 1u);
  EXPECT_FALSE(op.Targetable(core));  // retries broadcast
  // The last attempt follows the same rule: fail fast, no waiting out
  // the deadline.
  Read(core, op, 0, 3, 30, t1);
  ASSERT_EQ(Read(core, op, 1, 3, 30, t1), Step::kSend);
  EXPECT_EQ(op.Entry().version, 5u);  // above the first attempt's install
  op.Sent(core, 0b111, t1);
  EXPECT_EQ(op.OnWriteAck(core, 2, true, t1), Step::kWait);
  ASSERT_EQ(op.OnWriteAck(core, 1, true, t1 + 2ms), Step::kDone);
  EXPECT_FALSE(op.Result().ok);
  EXPECT_EQ(op.Result().status, ClientStatus::kRetriesExhausted);
  EXPECT_EQ(op.Result().attempts, 2u);
  EXPECT_EQ(op.Result().latency, 3ms);

  // Single-shot: the fenced attempt is the last one and reports timeout.
  QuorumCore single(9, Majorities(1), 0, Opts());
  QuorumOp w(Kind::kWrite, "k", 1);
  w.Start(single, kT0);
  Read(single, w, 0, 0, 0);
  Read(single, w, 1, 0, 0);
  w.OnWriteAck(single, 0, true, kT0);
  ASSERT_EQ(w.OnWriteAck(single, 2, true, kT0), Step::kDone);
  EXPECT_EQ(w.Result().status, ClientStatus::kTimeout);
}

TEST(QuorumOp, InstallFloorStaysAboveAnAbandonedStraggler) {
  QuorumCore core(9, Majorities(1), 0, Opts());
  QuorumOp first(Kind::kWrite, "k", 10);
  first.Start(core, kT0);
  Read(core, first, 0, 0, 0);
  ASSERT_EQ(Read(core, first, 1, 0, 0), Step::kSend);
  EXPECT_EQ(first.Entry().version, 1u);
  first.Sent(core, 0b111, kT0);
  // No ack arrives: the single attempt times out. Its install (version 1)
  // may still land later as a straggler.
  ASSERT_EQ(first.OnTimer(core, kT0 + 1000ms), Step::kDone);
  EXPECT_EQ(first.Result().status, ClientStatus::kTimeout);
  // The next write to the key discovers version 0 (the straggler has not
  // landed) yet must not reuse version 1 with a different value.
  QuorumOp second(Kind::kWrite, "k", 20);
  second.Start(core, kT0 + 1s);
  Read(core, second, 1, 0, 0);
  ASSERT_EQ(Read(core, second, 2, 0, 0), Step::kSend);
  EXPECT_EQ(second.Entry().version, 2u);
  // Other keys have their own floor.
  QuorumOp other(Kind::kWrite, "j", 5);
  other.Start(core, kT0);
  Read(core, other, 0, 7, 0);
  ASSERT_EQ(Read(core, other, 1, 7, 0), Step::kSend);
  EXPECT_EQ(other.Entry().version, 8u);
}

/// Run `op`'s write to completion against replicas 0 and 1 (a majority of
/// 3), both reporting `discovered`; returns the version it installed.
std::uint64_t WriteOk(QuorumCore& core, QuorumOp& op,
                      std::uint64_t discovered) {
  op.Start(core, kT0);
  Read(core, op, 0, discovered, 0);
  EXPECT_EQ(Read(core, op, 1, discovered, 0), Step::kSend);
  const std::uint64_t install = op.Entry().version;
  op.Sent(core, 0b111, kT0);
  EXPECT_EQ(op.OnWriteAck(core, 0, false, kT0), Step::kWait);
  EXPECT_EQ(op.OnWriteAck(core, 1, false, kT0), Step::kDone);
  EXPECT_EQ(op.Result().status, ClientStatus::kOk);
  return install;
}

TEST(QuorumOp, SuccessfulWritesLeaveNoInstallFloor) {
  QuorumCore core(9, Majorities(1), 0, Opts());
  for (int i = 0; i < 1000; ++i) {
    QuorumOp op(Kind::kWrite, "k" + std::to_string(i), i);
    EXPECT_EQ(WriteOk(core, op, 3), 4u);
  }
  EXPECT_EQ(core.stats.install_floors, 0u);
  EXPECT_EQ(core.stats.ops_completed, 1000u);
}

TEST(QuorumOp, TimedOutWriteKeepsItsFloorUntilTheNextOkWrite) {
  QuorumCore core(9, Majorities(1), 0, Opts());
  QuorumOp lost(Kind::kWrite, "k", 10);
  lost.Start(core, kT0);
  Read(core, lost, 0, 4, 0);
  ASSERT_EQ(Read(core, lost, 1, 4, 0), Step::kSend);
  EXPECT_EQ(lost.Entry().version, 5u);
  lost.Sent(core, 0b111, kT0);
  ASSERT_EQ(lost.OnTimer(core, kT0 + 1000ms), Step::kDone);
  EXPECT_EQ(lost.Result().status, ClientStatus::kTimeout);
  // Version 5 may still land: the floor stays.
  EXPECT_EQ(core.stats.install_floors, 1u);
  // The next write discovers 4 (the straggler has not landed), stages
  // above the floor, and releases it once it holds a write quorum.
  QuorumOp next(Kind::kWrite, "k", 20);
  EXPECT_EQ(WriteOk(core, next, 4), 6u);
  EXPECT_EQ(core.stats.install_floors, 0u);
  // With the floor gone the version comes from discovery alone, which a
  // read quorum intersecting version 6's write quorum keeps at >= 6.
  QuorumOp after(Kind::kWrite, "k", 30);
  EXPECT_EQ(WriteOk(core, after, 6), 7u);
  EXPECT_EQ(core.stats.install_floors, 0u);
}

TEST(QuorumOp, RetryStagesAboveItsOwnStragglerWithoutACoreFloor) {
  ClientOptions o = Opts();
  o.max_attempts = 2;
  QuorumCore core(9, Majorities(1), 0, o);
  QuorumOp op(Kind::kWrite, "k", 10);
  op.Start(core, kT0);
  Read(core, op, 0, 0, 0);
  ASSERT_EQ(Read(core, op, 1, 0, 0), Step::kSend);
  EXPECT_EQ(op.Entry().version, 1u);
  op.Sent(core, 0b111, kT0);
  // Attempt 1's install (version 1) goes unacked and may land later.
  ASSERT_EQ(op.OnTimer(core, kT0 + 1000ms), Step::kWait);
  ASSERT_EQ(op.OnTimer(core, op.NextTimer()), Step::kSend);
  // The op keeps its own floor: the core holds none while it runs.
  EXPECT_EQ(core.stats.install_floors, 0u);
  Read(core, op, 1, 0, 0);
  ASSERT_EQ(Read(core, op, 2, 0, 0), Step::kSend);
  EXPECT_EQ(op.Entry().version, 2u);
  op.Sent(core, 0b111, kT0 + 2s);
  // Attempt 2 times out too: its install becomes the key's floor.
  ASSERT_EQ(op.OnTimer(core, kT0 + 3s), Step::kDone);
  EXPECT_EQ(op.Result().status, ClientStatus::kRetriesExhausted);
  EXPECT_EQ(core.stats.install_floors, 1u);
  QuorumOp next(Kind::kWrite, "k", 20);
  EXPECT_EQ(WriteOk(core, next, 0), 3u);
  EXPECT_EQ(core.stats.install_floors, 0u);
}

TEST(QuorumOp, DivergenceIsCountedButTieBroken) {
  QuorumCore core(9, Majorities(1), 0, Opts());
  QuorumOp op(Kind::kRead, "k", 0);
  op.Start(core, kT0);
  EXPECT_EQ(Read(core, op, 0, 1, 10), Step::kWait);
  ASSERT_EQ(Read(core, op, 1, 1, 20), Step::kDone);
  EXPECT_EQ(core.stats.divergences_observed, 1u);
  EXPECT_TRUE(op.Result().ok);
  EXPECT_EQ(op.Result().version, 1u);
  EXPECT_EQ(op.Result().value, 20);  // larger value wins, deterministically
}

TEST(QuorumOp, NonMembersAreNeverEvidence) {
  QuorumCore core(9, Majorities(1), 0, Opts());
  QuorumOp op(Kind::kRead, "k", 0);
  op.Start(core, kT0);
  EXPECT_EQ(Read(core, op, 7, 999, 777), Step::kWait);  // not a member
  EXPECT_EQ(Read(core, op, 0, 1, 7), Step::kWait);
  ASSERT_EQ(Read(core, op, 1, 1, 7), Step::kDone);
  EXPECT_EQ(op.Result().version, 1u);
  EXPECT_EQ(op.Result().value, 7);
}

TEST(QuorumOp, ReadRepairNamesOnlyStaleResponders) {
  ClientOptions o = Opts();
  o.read_repair = true;
  QuorumCore core(9, Majorities(1, 5), 0, o);
  QuorumOp op(Kind::kRead, "k", 0);
  op.Start(core, kT0);
  EXPECT_FALSE(op.Targetable(core));  // repair reads always fan out
  Read(core, op, 0, 2, 5);
  Read(core, op, 3, 1, 4);
  ASSERT_EQ(Read(core, op, 4, 2, 5), Step::kDone);
  EXPECT_EQ(op.RepairTargets(), 1u << 3);
}

TEST(QuorumOp, NoResponseAtAllIsNoQuorum) {
  QuorumCore core(9, Majorities(1), 0, Opts());
  QuorumOp op(Kind::kRead, "k", 0);
  op.Start(core, kT0);
  op.Sent(core, 0b111, kT0);
  ASSERT_EQ(op.OnTimer(core, kT0 + 1000ms), Step::kDone);
  EXPECT_EQ(op.Result().status, ClientStatus::kNoQuorum);
}

TEST(QuorumCore, BackoffDelaysStayInTheirWindowAndCap) {
  ClientOptions o = Opts();
  o.backoff_base = 2ms;
  o.backoff_max = 16ms;
  QuorumCore core(9, Majorities(1), 0, o);
  for (std::uint32_t k = 1; k <= 8; ++k) {
    // base·2^(k-1), capped at backoff_max.
    const auto window =
        std::min<std::chrono::microseconds>(2ms * (1u << (k - 1)), 16ms);
    for (int i = 0; i < 200; ++i) {
      const auto d = core.BackoffDelay(k);
      EXPECT_GE(d, window / 2) << "attempt " << k;
      EXPECT_LE(d, window) << "attempt " << k;
    }
  }
  // A timed-out attempt with attempts to spare parks for that long.
  o.max_attempts = 3;
  QuorumCore retrying(9, Majorities(1), 0, o);
  QuorumOp op(Kind::kRead, "k", 0);
  op.Start(retrying, kT0);
  EXPECT_EQ(op.OnTimer(retrying, kT0 + 1000ms), Step::kWait);
  EXPECT_EQ(op.OpPhase(), QuorumOp::Phase::kBackoff);
  EXPECT_GE(op.NextTimer(), kT0 + 1000ms + 1ms);
  EXPECT_LE(op.NextTimer(), kT0 + 1000ms + 2ms);
}

TEST(QuorumOp, ReconfigureNeedsBothQuorumsAndReportsTheStampAckers) {
  // Config 0: majority of {0, 1, 2}. Config 1: majority of {0, ..., 4}.
  auto table = Majorities(1);
  ASSERT_EQ(table->Append(ConfigTable::Majority({0, 1, 2, 3, 4})), 1u);
  QuorumCore core(9, table, 0, Opts());
  QuorumOp op(Kind::kReconfigure, "", 0, /*target=*/1);
  ASSERT_EQ(op.Start(core, kT0), Step::kSend);
  EXPECT_FALSE(op.Targetable(core));
  EXPECT_EQ(op.DirectTargets(), 0b111u);  // read leg: the old members
  Read(core, op, 0, 2, 7);
  ASSERT_EQ(Read(core, op, 1, 1, 3), Step::kSend);
  // Both write legs reach the union of old and target members.
  EXPECT_EQ(op.DirectTargets(), 0b11111u);
  const RtMessage data = op.Request(core);
  EXPECT_EQ(data.kind, RtMessage::Kind::kBatchWriteReq);
  EXPECT_EQ(data.generation, 1u);  // the generation being installed
  ASSERT_EQ(data.batch.size(), 1u);
  EXPECT_EQ(data.batch[0].version, 2u);  // the freshest pair, re-installed
  EXPECT_EQ(data.batch[0].value, 7);
  const RtMessage stamp = op.StampRequest();
  EXPECT_EQ(stamp.kind, RtMessage::Kind::kConfigWriteReq);
  EXPECT_EQ(stamp.generation, 1u);
  EXPECT_EQ(stamp.config_id, 1u);
  ASSERT_TRUE(stamp.config.has_value());
  EXPECT_EQ(stamp.config->members, (std::vector<NodeId>{0, 1, 2, 3, 4}));
  op.Sent(core, op.DirectTargets(), kT0);
  // A data quorum of the target alone does not finish it ...
  EXPECT_EQ(op.OnWriteAck(core, 0, false, kT0), Step::kWait);
  EXPECT_EQ(op.OnWriteAck(core, 3, false, kT0), Step::kWait);
  EXPECT_EQ(op.OnWriteAck(core, 4, false, kT0), Step::kWait);
  // ... nor does a stamp ack from a joiner (not an old member) or a
  // single old member.
  EXPECT_EQ(op.OnStampAck(core, 3, kT0), Step::kWait);
  EXPECT_EQ(op.OnStampAck(core, 0, kT0), Step::kWait);
  EXPECT_EQ(core.Generation(), 0u);
  ASSERT_EQ(op.OnStampAck(core, 2, kT0 + 5ms), Step::kDone);
  EXPECT_TRUE(op.Result().ok);
  EXPECT_EQ(op.StampAcked(), 0b101u);  // exactly old members 0 and 2
  EXPECT_EQ(core.Generation(), 1u);
  EXPECT_EQ(core.ConfigId(), 1u);
  // Late acks change nothing.
  EXPECT_EQ(op.OnStampAck(core, 1, kT0 + 6ms), Step::kWait);
  EXPECT_EQ(op.StampAcked(), 0b101u);
}

TEST(QuorumOp, ReadChasesANewerConfigurationNamedByItsQuorum) {
  // Config 1 over {3, 4, 5}: a read quorum of the old config reveals the
  // new stamp, and the phase re-arms under the new members.
  auto table = Majorities(1);
  ASSERT_EQ(table->Append(ConfigTable::Majority({3, 4, 5})), 1u);
  QuorumCore core(9, table, 0, Opts());
  QuorumOp op(Kind::kRead, "k", 0);
  op.Start(core, kT0);
  EXPECT_EQ(Read(core, op, 0, 1, 1, kT0, 1, 1), Step::kWait);
  EXPECT_EQ(core.ConfigId(), 1u);
  EXPECT_EQ(Read(core, op, 1, 1, 1), Step::kWait);  // old member: no longer
  EXPECT_EQ(Read(core, op, 3, 2, 2, kT0, 1, 1), Step::kWait);
  ASSERT_EQ(Read(core, op, 4, 2, 2, kT0, 1, 1), Step::kDone);
  EXPECT_EQ(op.Result().version, 2u);
}

}  // namespace
}  // namespace qcnt::runtime
