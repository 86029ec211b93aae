// Wire codec tests: every message kind round-trips losslessly, and every
// way a frame can be damaged yields a typed decode error — never a crash,
// never a silently wrong message (satellite of the transport subsystem).
#include "net/codec.hpp"

#include <cstring>

#include "storage/crc32.hpp"
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

namespace qcnt::net {
namespace {

using runtime::BatchEntry;
using runtime::RtMessage;

RtMessage FullMessage(RtMessage::Kind kind) {
  RtMessage m;
  m.kind = kind;
  m.op = 0x0123456789abcdefull;
  m.key = "account/\x00\xff balance";  // embedded NUL + high byte survive
  m.key.push_back('\0');
  m.version = std::numeric_limits<std::uint64_t>::max();
  m.value = -42;  // negative: two's-complement u64 on the wire
  m.generation = 7;
  m.config_id = 3;
  return m;
}

std::vector<RtMessage::Kind> AllKinds() {
  return {RtMessage::Kind::kReadReq,       RtMessage::Kind::kReadResp,
          RtMessage::Kind::kWriteReq,      RtMessage::Kind::kWriteAck,
          RtMessage::Kind::kConfigWriteReq, RtMessage::Kind::kConfigWriteAck,
          RtMessage::Kind::kBatchReadReq,  RtMessage::Kind::kBatchReadResp,
          RtMessage::Kind::kBatchWriteReq, RtMessage::Kind::kBatchWriteAck,
          RtMessage::Kind::kShutdown,      RtMessage::Kind::kImagePeek,
          RtMessage::Kind::kCatchupReq,    RtMessage::Kind::kCatchupChunk};
}

// The membership-change kinds (DESIGN.md §11) travel over links that a
// fault plan actively drops, duplicates, and delays, so their rejection
// behavior is exercised below with the same exhaustiveness as the
// original twelve.
std::vector<RtMessage::Kind> MembershipKinds() {
  return {RtMessage::Kind::kCatchupReq, RtMessage::Kind::kCatchupChunk};
}

// A representative frame for a membership kind: every scalar field set,
// and — for the chunk, which carries streamed state — a non-empty batch
// plus a cursor key, matching what a donor actually emits.
WireFrame MembershipFrame(RtMessage::Kind kind) {
  WireFrame f;
  f.from = 5;
  f.to = 6;
  f.msg = FullMessage(kind);
  if (kind == RtMessage::Kind::kCatchupChunk) {
    f.msg.key = "k042";  // next cursor
    f.msg.value = 1;     // more chunks remain
    for (std::uint64_t i = 0; i < 3; ++i) {
      f.msg.batch.push_back(BatchEntry{i, "k0" + std::to_string(i),
                                       i + 1, static_cast<std::int64_t>(i)});
    }
  }
  return f;
}

void ExpectEqual(const RtMessage& a, const RtMessage& b) {
  EXPECT_EQ(a.kind, b.kind);
  EXPECT_EQ(a.op, b.op);
  EXPECT_EQ(a.key, b.key);
  EXPECT_EQ(a.version, b.version);
  EXPECT_EQ(a.value, b.value);
  EXPECT_EQ(a.generation, b.generation);
  EXPECT_EQ(a.config_id, b.config_id);
  ASSERT_EQ(a.config.has_value(), b.config.has_value());
  if (a.config) {
    EXPECT_EQ(a.config->descriptor, b.config->descriptor);
    EXPECT_EQ(a.config->members, b.config->members);
  }
  ASSERT_EQ(a.batch.size(), b.batch.size());
  for (std::size_t i = 0; i < a.batch.size(); ++i) {
    EXPECT_EQ(a.batch[i].op, b.batch[i].op);
    EXPECT_EQ(a.batch[i].key, b.batch[i].key);
    EXPECT_EQ(a.batch[i].version, b.batch[i].version);
    EXPECT_EQ(a.batch[i].value, b.batch[i].value);
  }
}

std::vector<std::uint8_t> Encode(const WireFrame& f) {
  std::vector<std::uint8_t> buf;
  EncodeFrame(f, buf);
  return buf;
}

TEST(Codec, EveryKindRoundTripsWithAllFieldsSet) {
  for (RtMessage::Kind kind : AllKinds()) {
    WireFrame f;
    f.from = 0xdeadbeefu;
    f.to = 12;
    f.msg = FullMessage(kind);
    const auto buf = Encode(f);
    DecodeResult r = DecodeFrame(buf.data(), buf.size());
    ASSERT_EQ(r.status, DecodeStatus::kOk)
        << "kind " << static_cast<int>(kind) << ": " << ToString(r.status);
    EXPECT_EQ(r.consumed, buf.size());
    EXPECT_EQ(r.frame.from, f.from);
    EXPECT_EQ(r.frame.to, f.to);
    ExpectEqual(r.frame.msg, f.msg);
  }
}

TEST(Codec, BatchEntriesRoundTrip) {
  WireFrame f;
  f.from = 3;
  f.to = 0;
  f.msg.kind = RtMessage::Kind::kBatchWriteReq;
  for (std::uint64_t i = 0; i < 100; ++i) {
    BatchEntry e;
    e.op = 1000 + i;
    e.key = "key-" + std::string(i, 'x');
    e.version = i * 17;
    e.value = static_cast<std::int64_t>(i) - 50;  // crosses zero
    f.msg.batch.push_back(std::move(e));
  }
  const auto buf = Encode(f);
  DecodeResult r = DecodeFrame(buf.data(), buf.size());
  ASSERT_EQ(r.status, DecodeStatus::kOk);
  ExpectEqual(r.frame.msg, f.msg);
}

TEST(Codec, DefaultMessageRoundTrips) {
  WireFrame f;  // everything zero / empty
  const auto buf = Encode(f);
  DecodeResult r = DecodeFrame(buf.data(), buf.size());
  ASSERT_EQ(r.status, DecodeStatus::kOk);
  EXPECT_EQ(r.frame.from, 0u);
  EXPECT_EQ(r.frame.to, 0u);
  ExpectEqual(r.frame.msg, RtMessage{});
}

TEST(Codec, BackToBackFramesDecodeSequentially) {
  // A TCP segment may hold several frames; decode must consume exactly
  // one at a time and report precise byte counts.
  WireFrame a, b;
  a.from = 1;
  a.msg = FullMessage(RtMessage::Kind::kReadReq);
  b.from = 2;
  b.msg = FullMessage(RtMessage::Kind::kWriteAck);
  std::vector<std::uint8_t> buf;
  EncodeFrame(a, buf);
  const std::size_t first = buf.size();
  EncodeFrame(b, buf);

  DecodeResult r1 = DecodeFrame(buf.data(), buf.size());
  ASSERT_EQ(r1.status, DecodeStatus::kOk);
  EXPECT_EQ(r1.consumed, first);
  EXPECT_EQ(r1.frame.from, 1u);

  DecodeResult r2 = DecodeFrame(buf.data() + r1.consumed,
                                buf.size() - r1.consumed);
  ASSERT_EQ(r2.status, DecodeStatus::kOk);
  EXPECT_EQ(r2.consumed, buf.size() - first);
  EXPECT_EQ(r2.frame.from, 2u);
}

TEST(Codec, EncodeAppendsWithoutClearing) {
  std::vector<std::uint8_t> buf = {0xaa, 0xbb};
  WireFrame f;
  EncodeFrame(f, buf);
  EXPECT_EQ(buf[0], 0xaa);
  EXPECT_EQ(buf[1], 0xbb);
  DecodeResult r = DecodeFrame(buf.data() + 2, buf.size() - 2);
  EXPECT_EQ(r.status, DecodeStatus::kOk);
}

TEST(Codec, EveryTruncationIsNeedMoreNotACrash) {
  // Every strict prefix of a valid frame must ask for more bytes —
  // partial reads are the normal case on a stream socket.
  WireFrame f;
  f.from = 9;
  f.msg = FullMessage(RtMessage::Kind::kBatchReadResp);
  f.msg.batch.push_back(BatchEntry{1, "k", 2, 3});
  const auto buf = Encode(f);
  for (std::size_t len = 0; len < buf.size(); ++len) {
    DecodeResult r = DecodeFrame(buf.data(), len);
    EXPECT_EQ(r.status, DecodeStatus::kNeedMore) << "prefix length " << len;
    EXPECT_EQ(r.consumed, 0u);
  }
}

TEST(Codec, BadMagicIsRejected) {
  auto buf = Encode(WireFrame{});
  buf[0] ^= 0xff;
  EXPECT_EQ(DecodeFrame(buf.data(), buf.size()).status,
            DecodeStatus::kBadMagic);
  // Detectable even before a full header has arrived.
  EXPECT_EQ(DecodeFrame(buf.data(), 4).status, DecodeStatus::kBadMagic);
}

TEST(Codec, BadVersionIsRejected) {
  auto buf = Encode(WireFrame{});
  buf[4] = kWireVersion + 1;
  EXPECT_EQ(DecodeFrame(buf.data(), buf.size()).status,
            DecodeStatus::kBadVersion);
  EXPECT_EQ(DecodeFrame(buf.data(), 5).status, DecodeStatus::kBadVersion);
}

TEST(Codec, OversizedLengthIsRejectedBeforeBuffering) {
  auto buf = Encode(WireFrame{});
  // A hostile length must be rejected from the header alone, even though
  // the buffer holds nowhere near that many bytes.
  const std::uint32_t huge = 0x7fffffffu;
  std::memcpy(buf.data() + 5, &huge, sizeof(huge));
  DecodeResult r = DecodeFrame(buf.data(), buf.size());
  EXPECT_EQ(r.status, DecodeStatus::kOversized);
  // And a legitimate length over a caller's tighter ceiling, likewise.
  auto ok = Encode(WireFrame{});
  EXPECT_EQ(DecodeFrame(ok.data(), ok.size(), /*max_frame_bytes=*/8).status,
            DecodeStatus::kOversized);
}

TEST(Codec, CorruptPayloadFailsCrc) {
  WireFrame f;
  f.msg = FullMessage(RtMessage::Kind::kWriteReq);
  auto buf = Encode(f);
  for (std::size_t i = kFrameHeaderBytes; i < buf.size(); ++i) {
    auto bad = buf;
    bad[i] ^= 0x01;
    DecodeResult r = DecodeFrame(bad.data(), bad.size());
    EXPECT_EQ(r.status, DecodeStatus::kCrcMismatch) << "flipped byte " << i;
    EXPECT_EQ(r.consumed, 0u);
  }
}

TEST(Codec, CorruptCrcFieldIsDetected) {
  auto buf = Encode(WireFrame{});
  buf[9] ^= 0xff;  // first CRC byte
  EXPECT_EQ(DecodeFrame(buf.data(), buf.size()).status,
            DecodeStatus::kCrcMismatch);
}

// Re-encode a frame with an arbitrary payload, header and CRC made
// consistent — the shape of frames a buggy (not bit-flipped) sender emits.
std::vector<std::uint8_t> FrameWithPayload(
    const std::vector<std::uint8_t>& payload) {
  std::vector<std::uint8_t> buf;
  WireFrame f;
  EncodeFrame(f, buf);  // valid header template
  buf.resize(kFrameHeaderBytes);
  buf.insert(buf.end(), payload.begin(), payload.end());
  const std::uint32_t len = static_cast<std::uint32_t>(payload.size());
  std::memcpy(buf.data() + 5, &len, sizeof(len));
  const std::uint32_t crc =
      storage::Crc32(payload.data(), payload.size());
  std::memcpy(buf.data() + 9, &crc, sizeof(crc));
  return buf;
}

std::vector<std::uint8_t> ValidPayload(std::uint8_t kind_byte) {
  WireFrame f;
  auto buf = Encode(f);
  std::vector<std::uint8_t> payload(buf.begin() + kFrameHeaderBytes,
                                    buf.end());
  payload[8] = kind_byte;  // kind follows from(4) + to(4)
  return payload;
}

TEST(Codec, UnknownKindIsRejectedWithCrcIntact) {
  const auto buf = FrameWithPayload(ValidPayload(0xee));
  DecodeResult r = DecodeFrame(buf.data(), buf.size());
  EXPECT_EQ(r.status, DecodeStatus::kUnknownKind);
}

TEST(Codec, RetiredJoinerPullKindsDecodeAsUnknown) {
  // Kinds 14 and 15 carried a joiner-driven pull that is gone; a frame
  // still naming them is a version skew, refused typed like any unknown
  // kind (the layout did not change, so the wire version did not either).
  EXPECT_EQ(static_cast<int>(RtMessage::Kind::kCatchupChunk), 13);
  for (const std::uint8_t retired : {14, 15}) {
    const auto buf = FrameWithPayload(ValidPayload(retired));
    EXPECT_EQ(DecodeFrame(buf.data(), buf.size()).status,
              DecodeStatus::kUnknownKind)
        << "kind " << int{retired};
  }
}

TEST(Codec, TruncatedPayloadStructureIsMalformed) {
  // Valid CRC over a payload whose key length runs past the end.
  auto payload = ValidPayload(0);
  payload.resize(payload.size() - 4);  // drop batch_count → key overruns
  const auto buf = FrameWithPayload(payload);
  EXPECT_EQ(DecodeFrame(buf.data(), buf.size()).status,
            DecodeStatus::kMalformed);
}

TEST(Codec, TrailingPayloadBytesAreMalformed) {
  auto payload = ValidPayload(0);
  payload.push_back(0x00);  // one byte past a complete message
  const auto buf = FrameWithPayload(payload);
  EXPECT_EQ(DecodeFrame(buf.data(), buf.size()).status,
            DecodeStatus::kMalformed);
}

TEST(Codec, HugeBatchCountDoesNotBalloonAllocation) {
  // batch_count claims 2^31 entries in a tiny payload: must fail cleanly
  // (kMalformed), not reserve gigabytes first.
  auto payload = ValidPayload(static_cast<std::uint8_t>(
      runtime::RtMessage::Kind::kBatchWriteReq));
  const std::uint32_t huge = 0x80000000u;
  std::memcpy(payload.data() + payload.size() - 4, &huge, sizeof(huge));
  const auto buf = FrameWithPayload(payload);
  EXPECT_EQ(DecodeFrame(buf.data(), buf.size()).status,
            DecodeStatus::kMalformed);
}

TEST(Codec, MembershipKindEveryTruncationPrefixNeedsMore) {
  // Catchup frames arrive on stream sockets mid-join; every strict prefix
  // must be a clean "need more", never a crash or a partial decode.
  for (RtMessage::Kind kind : MembershipKinds()) {
    const auto buf = Encode(MembershipFrame(kind));
    for (std::size_t len = 0; len < buf.size(); ++len) {
      DecodeResult r = DecodeFrame(buf.data(), len);
      EXPECT_EQ(r.status, DecodeStatus::kNeedMore)
          << "kind " << static_cast<int>(kind) << " prefix " << len;
      EXPECT_EQ(r.consumed, 0u);
    }
  }
}

TEST(Codec, MembershipKindEveryFlippedPayloadByteFailsCrc) {
  // A single flipped bit anywhere in a catchup payload — cursor, stamp,
  // batch entry, count — must surface as a CRC mismatch, not as a chunk
  // that installs wrong state on the joiner.
  for (RtMessage::Kind kind : MembershipKinds()) {
    const auto buf = Encode(MembershipFrame(kind));
    for (std::size_t i = kFrameHeaderBytes; i < buf.size(); ++i) {
      auto bad = buf;
      bad[i] ^= 0x01;
      DecodeResult r = DecodeFrame(bad.data(), bad.size());
      EXPECT_EQ(r.status, DecodeStatus::kCrcMismatch)
          << "kind " << static_cast<int>(kind) << " flipped byte " << i;
      EXPECT_EQ(r.consumed, 0u);
    }
  }
}

TEST(Codec, CatchupChunkOversizedLengthRejectedFromHeaderAlone) {
  // A hostile chunk length is refused before any payload is buffered:
  // hand the decoder *only* the header so an attempt to touch (or
  // allocate for) the claimed payload would fail visibly.
  auto buf = Encode(MembershipFrame(RtMessage::Kind::kCatchupChunk));
  const std::uint32_t huge = 0x7fffffffu;
  std::memcpy(buf.data() + 5, &huge, sizeof(huge));
  DecodeResult r = DecodeFrame(buf.data(), kFrameHeaderBytes);
  EXPECT_EQ(r.status, DecodeStatus::kOversized);
  EXPECT_EQ(r.consumed, 0u);
  EXPECT_TRUE(r.frame.msg.batch.empty());
  // Same verdict when the (stale) payload bytes happen to be present.
  EXPECT_EQ(DecodeFrame(buf.data(), buf.size()).status,
            DecodeStatus::kOversized);
  // And a legitimate chunk over a receiver's tighter frame ceiling.
  const auto ok = Encode(MembershipFrame(RtMessage::Kind::kCatchupChunk));
  EXPECT_EQ(DecodeFrame(ok.data(), ok.size(), /*max_frame_bytes=*/16).status,
            DecodeStatus::kOversized);
}

TEST(Codec, CatchupChunkHugeBatchCountIsMalformedWithoutAllocating) {
  // A chunk whose batch_count claims 2^31 entries over a consistent CRC
  // (a buggy donor, not line noise) must fail typed — the decoder's
  // reserve is bounded by what the payload could actually hold, so the
  // count is rejected without ballooning memory first.
  auto payload = ValidPayload(static_cast<std::uint8_t>(
      runtime::RtMessage::Kind::kCatchupChunk));
  const std::uint32_t huge = 0x80000000u;
  std::memcpy(payload.data() + payload.size() - 4, &huge, sizeof(huge));
  const auto buf = FrameWithPayload(payload);
  DecodeResult r = DecodeFrame(buf.data(), buf.size());
  EXPECT_EQ(r.status, DecodeStatus::kMalformed);
  EXPECT_EQ(r.frame.msg.batch.capacity(), 0u);
}

// --- Self-describing configuration payloads (DESIGN.md §13) ------------
//
// Config payloads ride on fence NACKs and reconfiguration writes; a
// corrupted or hostile one must never install a wrong quorum system on a
// client. Same exhaustiveness as the membership kinds above: lossless
// round trip, every truncation prefix, every flipped byte, and
// consistent-CRC hostile counts rejected without allocation.

// A frame whose reply teaches a weighted configuration — the descriptor
// family with every field populated (votes vector, both thresholds).
WireFrame ConfigFrame() {
  WireFrame f;
  f.from = 2;
  f.to = 9;
  f.msg = FullMessage(RtMessage::Kind::kWriteAck);
  runtime::ConfigPayload c;
  c.descriptor.kind = quorum::StrategyKind::kWeighted;
  c.descriptor.votes = {3, 1, 1};
  c.descriptor.read_threshold = 2;
  c.descriptor.write_threshold = 4;
  c.members = {0, 1, 2};
  f.msg.config = std::move(c);
  return f;
}

TEST(Codec, ConfigPayloadRoundTrips) {
  // Weighted: every descriptor field in play.
  {
    const WireFrame f = ConfigFrame();
    const auto buf = Encode(f);
    DecodeResult r = DecodeFrame(buf.data(), buf.size());
    ASSERT_EQ(r.status, DecodeStatus::kOk);
    ExpectEqual(r.frame.msg, f.msg);
  }
  // Parameterless family (ROWA), empty votes, on a batch reply carrying
  // entries — the config tail decodes after the batch section.
  {
    WireFrame f;
    f.msg = FullMessage(RtMessage::Kind::kBatchReadResp);
    f.msg.batch.push_back(BatchEntry{1, "k", 2, 3});
    runtime::ConfigPayload c;
    c.descriptor.kind = quorum::StrategyKind::kReadOneWriteAll;
    c.members = {4, 5, 6, 7};
    f.msg.config = std::move(c);
    const auto buf = Encode(f);
    DecodeResult r = DecodeFrame(buf.data(), buf.size());
    ASSERT_EQ(r.status, DecodeStatus::kOk);
    ExpectEqual(r.frame.msg, f.msg);
  }
  // And the dominant case — no payload — still round-trips as absent.
  {
    WireFrame f;
    f.msg = FullMessage(RtMessage::Kind::kWriteAck);
    const auto buf = Encode(f);
    DecodeResult r = DecodeFrame(buf.data(), buf.size());
    ASSERT_EQ(r.status, DecodeStatus::kOk);
    EXPECT_FALSE(r.frame.msg.config.has_value());
  }
}

/// A frame's encoded size, read off the layout in codec.hpp rather than
/// asked of the encoder.
std::size_t LayoutBytes(const WireFrame& f) {
  std::size_t n = 4 + 1 + 4 + 4;                // magic version len crc
  n += 4 + 4 + 1 + 8 + 8 + 8 + 8 + 4;           // from .. config_id
  n += 4 + f.msg.key.size() + 4;                // key, batch_count
  for (const BatchEntry& e : f.msg.batch) n += 8 + 8 + 8 + 4 + e.key.size();
  n += 1;                                       // has_config
  if (f.msg.config) {
    n += 1 + 4 + 4 + 4 + 4;                     // kind a b thresholds
    n += 4 + 4 * f.msg.config->descriptor.votes.size();
    n += 4 + 4 * f.msg.config->members.size();
  }
  return n;
}

TEST(Codec, EncodeGrowsTheBufferByExactlyTheFrameSize) {
  // The encoder sizes the buffer once, up front, and writes through a
  // pointer: a miscounted field would leave a gap or run past the end.
  // Worst-case fields for every kind: an empty and a 64 KiB key, empty
  // and 1000-entry batches, with and without a configuration payload.
  for (RtMessage::Kind kind : AllKinds()) {
    for (std::size_t key_bytes : {std::size_t{0}, std::size_t{64 * 1024}}) {
      for (std::size_t entries : {std::size_t{0}, std::size_t{1000}}) {
        for (bool with_config : {false, true}) {
          WireFrame f;
          f.from = 1;
          f.to = 0xfffffffeu;
          f.msg = FullMessage(kind);
          f.msg.key.assign(key_bytes, 'k');
          for (std::size_t i = 0; i < entries; ++i) {
            // Entry keys from empty up to 37 bytes.
            f.msg.batch.push_back(BatchEntry{
                i, std::string(i % 38, static_cast<char>('a' + i % 26)),
                ~i, -static_cast<std::int64_t>(i)});
          }
          if (with_config) {
            runtime::ConfigPayload c;
            c.descriptor.kind = quorum::StrategyKind::kWeighted;
            c.descriptor.votes = {3, 1, 1, 2, 5};
            c.descriptor.read_threshold = 6;
            c.descriptor.write_threshold = 7;
            c.members = {0, 1, 2, 9, 4000000000u};
            f.msg.config = std::move(c);
          }
          const std::string what =
              "kind " + std::to_string(static_cast<int>(kind)) + " key " +
              std::to_string(f.msg.key.size()) + " entries " +
              std::to_string(entries) + " config " +
              std::to_string(with_config);

          std::vector<std::uint8_t> buf = {0x11, 0x22, 0x33};
          EncodeFrame(f, buf);
          ASSERT_EQ(buf.size() - 3, LayoutBytes(f)) << what;
          EXPECT_EQ(buf[0], 0x11);
          EXPECT_EQ(buf[2], 0x33);
          DecodeResult r = DecodeFrame(buf.data() + 3, buf.size() - 3);
          ASSERT_EQ(r.status, DecodeStatus::kOk)
              << what << ": " << ToString(r.status);
          EXPECT_EQ(r.consumed, LayoutBytes(f)) << what;
          EXPECT_EQ(r.frame.from, f.from);
          EXPECT_EQ(r.frame.to, f.to);
          ExpectEqual(r.frame.msg, f.msg);
        }
      }
    }
  }
}

TEST(Codec, ConfigPayloadEveryTruncationPrefixNeedsMore) {
  const auto buf = Encode(ConfigFrame());
  for (std::size_t len = 0; len < buf.size(); ++len) {
    DecodeResult r = DecodeFrame(buf.data(), len);
    EXPECT_EQ(r.status, DecodeStatus::kNeedMore) << "prefix " << len;
    EXPECT_EQ(r.consumed, 0u);
  }
}

TEST(Codec, ConfigPayloadEveryFlippedPayloadByteFailsCrc) {
  const auto buf = Encode(ConfigFrame());
  for (std::size_t i = kFrameHeaderBytes; i < buf.size(); ++i) {
    auto bad = buf;
    bad[i] ^= 0x01;
    DecodeResult r = DecodeFrame(bad.data(), bad.size());
    EXPECT_EQ(r.status, DecodeStatus::kCrcMismatch) << "flipped byte " << i;
    EXPECT_EQ(r.consumed, 0u);
  }
}

// The raw payload of ConfigFrame(), for consistent-CRC tampering. Tail
// layout (offsets from the end): members (3 × u32), member_count (u32),
// votes (3 × u32), vote_count (u32), thresholds/a/b (4 × u32), kind (u8),
// has_config (u8).
std::vector<std::uint8_t> ConfigPayloadBytes() {
  const auto buf = Encode(ConfigFrame());
  return {buf.begin() + kFrameHeaderBytes, buf.end()};
}

TEST(Codec, ConfigPayloadHostileCountsAreMalformedWithoutAllocating) {
  const std::uint32_t huge = 0x80000000u;
  // member_count sits before the 3 encoded members.
  {
    auto payload = ConfigPayloadBytes();
    std::memcpy(payload.data() + payload.size() - 16, &huge, sizeof(huge));
    const auto buf = FrameWithPayload(payload);
    DecodeResult r = DecodeFrame(buf.data(), buf.size());
    EXPECT_EQ(r.status, DecodeStatus::kMalformed);
    EXPECT_FALSE(r.frame.msg.config.has_value());
  }
  // vote_count sits before 3 votes + member_count + 3 members.
  {
    auto payload = ConfigPayloadBytes();
    std::memcpy(payload.data() + payload.size() - 32, &huge, sizeof(huge));
    const auto buf = FrameWithPayload(payload);
    DecodeResult r = DecodeFrame(buf.data(), buf.size());
    EXPECT_EQ(r.status, DecodeStatus::kMalformed);
    EXPECT_FALSE(r.frame.msg.config.has_value());
  }
}

TEST(Codec, ConfigPayloadBadDiscriminatorsAreMalformed) {
  // has_config must be 0 or 1; the strategy kind must be in range. Both
  // arrive over a consistent CRC (buggy sender, not line noise).
  auto payload = ConfigPayloadBytes();
  const std::size_t tail =
      1 + 1 + 4 * 4 + 4 + 3 * 4 + 4 + 3 * 4;  // has_config .. members
  const std::size_t has_config_at = payload.size() - tail;
  {
    auto bad = payload;
    bad[has_config_at] = 2;
    const auto buf = FrameWithPayload(bad);
    EXPECT_EQ(DecodeFrame(buf.data(), buf.size()).status,
              DecodeStatus::kMalformed);
  }
  {
    auto bad = payload;
    bad[has_config_at + 1] =
        static_cast<std::uint8_t>(quorum::kMaxStrategyKind) + 1;
    const auto buf = FrameWithPayload(bad);
    EXPECT_EQ(DecodeFrame(buf.data(), buf.size()).status,
              DecodeStatus::kMalformed);
  }
  // A config tail cut off mid-descriptor over a consistent CRC is
  // malformed, not a partial install.
  {
    auto bad = payload;
    bad.resize(bad.size() - 6);
    const auto buf = FrameWithPayload(bad);
    EXPECT_EQ(DecodeFrame(buf.data(), buf.size()).status,
              DecodeStatus::kMalformed);
  }
}

TEST(Codec, ToStringCoversEveryStatus) {
  for (DecodeStatus s :
       {DecodeStatus::kOk, DecodeStatus::kNeedMore, DecodeStatus::kBadMagic,
        DecodeStatus::kBadVersion, DecodeStatus::kOversized,
        DecodeStatus::kCrcMismatch, DecodeStatus::kUnknownKind,
        DecodeStatus::kMalformed}) {
    EXPECT_STRNE(ToString(s), "");
  }
}

}  // namespace
}  // namespace qcnt::net
