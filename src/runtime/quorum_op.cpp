#include "runtime/quorum_op.hpp"

#include <algorithm>

#include "common/check.hpp"

namespace qcnt::runtime {

const char* ToString(ClientStatus status) {
  switch (status) {
    case ClientStatus::kOk:
      return "ok";
    case ClientStatus::kTimeout:
      return "timeout";
    case ClientStatus::kNoQuorum:
      return "no-quorum";
    case ClientStatus::kRetriesExhausted:
      return "retries-exhausted";
    case ClientStatus::kShutdown:
      return "shutdown";
  }
  return "unknown";
}

namespace {
/// Configuration stamps order by (generation, config_id): config ids are
/// append-ordered in the shared table, so when an orphaned stamp from a
/// timed-out reconfigure attempt collides in generation with a later
/// install, every client resolves the tie toward the newer configuration
/// — the same order replicas apply stamps in.
bool StampAfter(std::uint64_t generation, std::uint32_t config_id,
                std::uint64_t than_generation, std::uint32_t than_config) {
  return generation > than_generation ||
         (generation == than_generation && config_id > than_config);
}
}  // namespace

// ---------------------------------------------------------------------------
// QuorumCore

QuorumCore::QuorumCore(NodeId id, std::shared_ptr<ConfigTable> table,
                       std::uint32_t initial_config, ClientOptions options)
    : table_(std::move(table)),
      options_(options),
      config_id_(initial_config),
      backoff_rng_(0xa5bacc0ffull ^ id) {
  QCNT_CHECK(table_ != nullptr);
  QCNT_CHECK(initial_config < table_->Size());
  // Responder bookkeeping is a 64-bit bitmask indexed by node id (member
  // ids are checked < 64 when the table is built); the client itself must
  // not be quorumed over.
  const auto mc = table_->At(initial_config);
  QCNT_CHECK_MSG(id >= 64 || (mc->member_mask & (1ull << id)) == 0,
                 "client id collides with a configuration member");
  QCNT_CHECK(options_.max_attempts >= 1);
  QCNT_CHECK(options_.window >= 1);
  QCNT_CHECK(options_.max_batch >= 1);
}

bool QuorumCore::Hear(NodeId from, const RtMessage& m) {
  if (from >= 64) return false;
  believed_up_ |= 1ull << from;  // it answered: it is up
  // An id the shared table cannot resolve may come with its payload (a
  // coordinator in another process appended it). A payload that cannot
  // form a legal system is hostile or corrupt: the id stays unresolvable
  // and Learn below refuses it.
  if (m.config && table_->TryAt(m.config_id) == nullptr) {
    try {
      table_->InstallAt(m.config_id,
                        ConfigTable::FromDescriptor(m.config->descriptor,
                                                    m.config->members));
    } catch (const quorum::StrategyConfigError&) {
    }
  }
  Learn(m.generation, m.config_id);
  return true;
}

void QuorumCore::Learn(std::uint64_t generation, std::uint32_t config_id) {
  // Adopt only ids the shared table can resolve: membership change
  // appends the target before stamping it, so an unresolvable id is stray
  // or corrupt traffic, never a config this client must chase.
  if (!StampAfter(generation, config_id, generation_, config_id_) ||
      table_->TryAt(config_id) == nullptr) {
    return;
  }
  generation_ = generation;
  config_id_ = config_id;
}

std::uint64_t QuorumCore::StageInstall(const std::string& key,
                                       std::uint64_t discovered,
                                       std::uint64_t staged) const {
  std::uint64_t floor = std::max(discovered, staged);
  if (!install_floor_.empty()) {
    if (const auto it = install_floor_.find(key); it != install_floor_.end()) {
      floor = std::max(floor, it->second);
    }
  }
  return floor + 1;
}

void QuorumCore::SettleInstall(const std::string& key, std::uint64_t staged,
                               bool ok) {
  if (ok) {
    // The install sits at a write quorum above every floor the key held.
    if (install_floor_.empty() || install_floor_.erase(key) == 0) return;
  } else {
    std::uint64_t& floor = install_floor_[key];
    floor = std::max(floor, staged);
  }
  stats.install_floors = install_floor_.size();
}

std::chrono::microseconds QuorumCore::BackoffDelay(std::uint32_t attempt) {
  auto delay = options_.backoff_base;
  for (std::uint32_t i = 1; i < attempt && delay < options_.backoff_max; ++i) {
    delay *= 2;
  }
  delay = std::min(delay, options_.backoff_max);
  const std::int64_t us =
      std::chrono::duration_cast<std::chrono::microseconds>(delay).count();
  if (us <= 0) return std::chrono::microseconds{0};
  // Full jitter over the upper half of the window decorrelates clients
  // that failed together.
  return std::chrono::microseconds(backoff_rng_.Range(us / 2, us));
}

std::chrono::milliseconds QuorumCore::EscalateDelay() const {
  if (options_.escalate_after.count() > 0) return options_.escalate_after;
  const auto quarter = options_.timeout / 4;
  return quarter.count() > 0 ? quarter : std::chrono::milliseconds(1);
}

// ---------------------------------------------------------------------------
// QuorumOp

QuorumOp::Step QuorumOp::Start(QuorumCore& core, TimePoint now) {
  start_ = now;
  attempt_ = 1;
  if (kind_ == Kind::kReconfigure) {
    QCNT_CHECK(target_id_ < core.table_->Size());
    target_ = core.table_->At(target_id_);
  }
  return StartAttempt(core, now);
}

QuorumOp::Step QuorumOp::StartAttempt(QuorumCore& core, TimePoint now) {
  id_ = core.NextOpId();
  // Only first attempts trust the believed-up mask enough to target a
  // minimal quorum; a retry means something went wrong — reset the mask.
  if (attempt_ > 1) core.believed_up_ = ~0ull;
  phase_ = Phase::kRead;
  deadline_ = now + core.options_.timeout;
  escalate_at_ = TimePoint::max();
  heard_ = false;
  responded_ = at_best_ = acked_ = fenced_ = stamp_acked_ = 0;
  sent_ = 0;
  best_version_ = 0;
  best_value_ = 0;
  best_generation_ = core.generation_;
  best_config_ = core.config_id_;
  config_ = core.table_->At(best_config_);
  return Step::kSend;
}

QuorumOp::Step QuorumOp::OnRead(QuorumCore& core, NodeId from,
                                std::uint64_t generation,
                                std::uint32_t config_id, std::uint64_t version,
                                std::int64_t value, TimePoint now) {
  if (phase_ != Phase::kRead || from >= 64) return Step::kWait;
  const std::uint64_t bit = 1ull << from;
  // Only members of the configuration under evaluation are evidence —
  // neither toward the quorum nor in the freshest-version race (a forged
  // or decommissioned sender must not win version discovery).
  if ((config_->member_mask & bit) == 0) return Step::kWait;
  const bool first = responded_ == 0;
  responded_ |= bit;
  heard_ = true;
  if (!first && version == best_version_ && value != best_value_) {
    // Two copies of one version with different values: a Lemma 8
    // violation. Count it loudly; the larger-value tie-break below keeps
    // the outcome deterministic without hiding the divergence.
    ++core.stats.divergences_observed;
  }
  if (first || version > best_version_) {
    at_best_ = bit;
  } else if (version == best_version_) {
    at_best_ |= bit;
  }
  if (first || version > best_version_ ||
      (version == best_version_ && value > best_value_)) {
    best_version_ = version;
    best_value_ = value;
  }
  if (StampAfter(generation, config_id, best_generation_, best_config_)) {
    // Chase the newest configuration the evidence names, in stamp order;
    // the quorum check below re-arms under it (a read quorum of an old
    // configuration necessarily reveals a newer generation when one was
    // installed — the stamp covers an old write quorum).
    if (auto mc = core.table_->TryAt(config_id)) {
      best_generation_ = generation;
      best_config_ = config_id;
      config_ = std::move(mc);
    }
  }
  // Mask evidence down to the config's members: a response from a node
  // the config does not quorum over must never complete the phase.
  if (!config_->system.has_read(responded_ & config_->member_mask)) {
    return Step::kWait;
  }
  return ReadQuorum(core, now);
}

QuorumOp::Step QuorumOp::ReadQuorum(QuorumCore& core, TimePoint now) {
  switch (kind_) {
    case Kind::kRead:
      result_.value = best_value_;
      result_.version = best_version_;
      if (core.options_.read_repair) repair_ = responded_ & ~at_best_;
      return Complete(core, ClientStatus::kOk, now);
    case Kind::kWrite:
      // Version discovery done. The client's per-key serialization
      // guarantees no other op of this client interleaves a write to the
      // key between discovery and install.
      install_ = core.StageInstall(key_, best_version_, install_);
      result_.version = install_;
      break;
    case Kind::kReconfigure:
      // The data leg re-installs the freshest pair under the generation
      // being installed, so replicas that already applied this attempt's
      // stamp do not fence it; config_ stays the old configuration.
      install_ = best_version_;
      value_ = best_value_;
      leg_generation_ = best_generation_ + 1;
      stamped_ = std::max(stamped_, leg_generation_);
      break;
  }
  phase_ = Phase::kWrite;
  sent_ = 0;
  escalate_at_ = TimePoint::max();
  return Step::kSend;
}

QuorumOp::Step QuorumOp::OnWriteAck(QuorumCore& core, NodeId from,
                                    bool fenced, TimePoint now) {
  if (phase_ != Phase::kWrite || from >= 64) return Step::kWait;
  const std::uint64_t bit = 1ull << from;
  const MemberConfig& wc = WriteConfig();
  if ((wc.member_mask & bit) == 0) return Step::kWait;  // non-member ack
  heard_ = true;
  if (fenced) {
    // Refused under a newer generation: not quorum evidence, and never
    // will be — a replica's generation only grows. Once the refusers
    // exclude every write quorum the attempt is unwinnable; waiting out
    // the deadline would only stretch the stall a reconfiguration causes.
    fenced_ |= bit;
    if (!wc.system.has_write(wc.member_mask & ~fenced_)) {
      return FailAttempt(core, now, /*fenced=*/true);
    }
    return Step::kWait;
  }
  acked_ |= bit;
  return MaybeWriteQuorum(core, now);
}

QuorumOp::Step QuorumOp::OnStampAck(QuorumCore& core, NodeId from,
                                    TimePoint now) {
  // A stray stamp ack on a read or write op changes nothing.
  if (phase_ != Phase::kWrite || from >= 64) return Step::kWait;
  const std::uint64_t bit = 1ull << from;
  if ((config_->member_mask & bit) == 0) return Step::kWait;
  heard_ = true;
  stamp_acked_ |= bit;
  return MaybeWriteQuorum(core, now);
}

QuorumOp::Step QuorumOp::MaybeWriteQuorum(QuorumCore& core, TimePoint now) {
  const MemberConfig& wc = WriteConfig();
  if (!wc.system.has_write(acked_ & wc.member_mask)) return Step::kWait;
  if (kind_ == Kind::kReconfigure) {
    // The §4 sharpening: the stamp must also cover a write quorum of the
    // old configuration.
    if (!config_->system.has_write(stamp_acked_)) return Step::kWait;
    core.Learn(stamped_, target_id_);
  } else {
    result_.value = value_;
  }
  return Complete(core, ClientStatus::kOk, now);
}

QuorumOp::Step QuorumOp::OnTimer(QuorumCore& core, TimePoint now) {
  switch (phase_) {
    case Phase::kDone:
      return Step::kWait;
    case Phase::kBackoff:
      if (retry_at_ > now) return Step::kWait;
      // Backoff elapsed: relaunch under a fresh op id, so responses to
      // the dead attempt can never satisfy this one.
      ++attempt_;
      ++core.stats.retries;
      return StartAttempt(core, now);
    case Phase::kRead:
    case Phase::kWrite:
      break;
  }
  if (deadline_ <= now) return FailAttempt(core, now, /*fenced=*/false);
  if (escalate_at_ > now) return Step::kWait;
  // The minimal quorum did not assemble in time: fan out to everyone not
  // yet reached. (A config chased mid-phase is covered too: sent_ tracks
  // real node ids.)
  ++core.stats.escalations;
  const MemberConfig& mc = phase_ == Phase::kRead ? *config_ : WriteConfig();
  fanout_ = mc.member_mask & ~sent_;
  sent_ |= mc.member_mask;
  escalate_at_ = TimePoint::max();
  return Step::kEscalate;
}

QuorumOp::Step QuorumOp::FailAttempt(QuorumCore& core, TimePoint now,
                                     bool fenced) {
  if (attempt_ < core.options_.max_attempts) {
    // Park until the retry (the kBackoff phase shields the dead id from
    // late responses): a fenced attempt retries at once — the refusal
    // already re-targeted the client — and a timed-out one backs off.
    phase_ = Phase::kBackoff;
    retry_at_ = fenced ? now : now + core.BackoffDelay(attempt_);
    return Step::kWait;
  }
  if (core.options_.max_attempts > 1) {
    return Complete(core, ClientStatus::kRetriesExhausted, now);
  }
  return Complete(core, heard_ ? ClientStatus::kTimeout : ClientStatus::kNoQuorum,
                  now);
}

void QuorumOp::Abort(QuorumCore& core, TimePoint now) {
  if (phase_ != Phase::kDone) Complete(core, ClientStatus::kShutdown, now);
}

QuorumOp::Step QuorumOp::Complete(QuorumCore& core, ClientStatus status,
                                  TimePoint now) {
  phase_ = Phase::kDone;
  result_.status = status;
  result_.ok = status == ClientStatus::kOk;
  result_.attempts = attempt_;
  result_.latency =
      std::chrono::duration_cast<std::chrono::microseconds>(now - start_);
  if (kind_ == Kind::kWrite && install_ != 0) {
    core.SettleInstall(key_, install_, result_.ok);
  }
  QuorumCore::Stats& s = core.stats;
  ++s.ops_completed;
  if (!result_.ok) ++s.ops_failed;
  s.total_latency += result_.latency;
  s.max_latency = std::max(s.max_latency, result_.latency);
  return Step::kDone;
}

void QuorumOp::Sent(const QuorumCore& core, std::uint64_t sent,
                    TimePoint now) {
  sent_ |= sent;
  const MemberConfig& mc = phase_ == Phase::kRead ? *config_ : WriteConfig();
  escalate_at_ = (sent_ & mc.member_mask) == mc.member_mask
                     ? TimePoint::max()
                     : now + core.EscalateDelay();
}

TimePoint QuorumOp::NextTimer() const {
  if (phase_ == Phase::kBackoff) return retry_at_;
  return Done() ? TimePoint::max() : std::min(deadline_, escalate_at_);
}

bool QuorumOp::Targetable(const QuorumCore& core) const {
  return attempt_ == 1 && kind_ != Kind::kReconfigure &&
         core.options_.target_minimal &&
         !(kind_ == Kind::kRead && core.options_.read_repair);
}

std::uint64_t QuorumOp::DirectTargets() const {
  // A reconfigure's write legs go to the union of old and target members:
  // the quorum requirements stay the paper's, but joining members then
  // learn their generation at once instead of waiting to be fenced into it.
  return phase_ == Phase::kWrite && kind_ == Kind::kReconfigure
             ? config_->member_mask | target_->member_mask
             : config_->member_mask;
}

BatchEntry QuorumOp::Entry() const {
  if (phase_ == Phase::kRead) return BatchEntry{id_, key_, 0, 0};
  return BatchEntry{id_, key_, install_, value_};
}

RtMessage QuorumOp::Request(const QuorumCore& core) const {
  RtMessage m;
  m.kind = phase_ == Phase::kRead ? RtMessage::Kind::kBatchReadReq
                                  : RtMessage::Kind::kBatchWriteReq;
  m.op = id_;
  // The believed stamp rides along: replies carry a config payload only
  // when they teach this client something newer, and a replica holding a
  // newer generation fences an install instead of applying it.
  m.generation = kind_ == Kind::kReconfigure && phase_ == Phase::kWrite
                     ? leg_generation_
                     : core.generation_;
  m.config_id = core.config_id_;
  m.batch.push_back(Entry());
  return m;
}

RtMessage QuorumOp::StampRequest() const {
  RtMessage m;
  m.kind = RtMessage::Kind::kConfigWriteReq;
  m.op = id_;
  m.generation = leg_generation_;
  m.config_id = target_id_;
  // Self-describing payload: replicas remember it and echo it on fence
  // NACKs, so a client whose table has no entry for the target (another
  // process appended it) can install the same system. Hand-built systems
  // carry no descriptor and stay table-resolution-only.
  if (target_->system.descriptor.kind != quorum::StrategyKind::kOpaque) {
    m.config = ConfigPayload{target_->members, target_->system.descriptor};
  }
  return m;
}

}  // namespace qcnt::runtime
