#include "net/codec.hpp"

#include <cstring>

#include "storage/crc32.hpp"

namespace qcnt::net {

namespace {

using runtime::BatchEntry;

constexpr std::uint8_t kMaxKind =
    static_cast<std::uint8_t>(RtMessage::Kind::kCatchupChunk);

/// Exact encoded size of a frame, so EncodeFrame grows `out` once and
/// writes through a pointer (see the layout in codec.hpp).
std::size_t FrameBytes(const WireFrame& frame) {
  const RtMessage& m = frame.msg;
  // from, to, kind, op, version, value, generation, config_id, key length,
  // batch_count, has_config.
  std::size_t n = kFrameHeaderBytes + 4 + 4 + 1 + 8 * 4 + 4 + 4 + m.key.size() +
                  4 + 1;
  for (const BatchEntry& e : m.batch) n += 8 * 3 + 4 + e.key.size();
  if (m.config) {
    // strategy_kind, a, b, read/write thresholds, vote and member counts.
    n += 1 + 4 * 4 + 4 + 4 * m.config->descriptor.votes.size() + 4 +
         4 * m.config->members.size();
  }
  return n;
}

/// Little-endian writer over space EncodeFrame has already sized.
struct Writer {
  std::uint8_t* p;

  void U8(std::uint8_t v) { *p++ = v; }
  void U32(std::uint32_t v) {
    p[0] = static_cast<std::uint8_t>(v);
    p[1] = static_cast<std::uint8_t>(v >> 8);
    p[2] = static_cast<std::uint8_t>(v >> 16);
    p[3] = static_cast<std::uint8_t>(v >> 24);
    p += 4;
  }
  void U64(std::uint64_t v) {
    U32(static_cast<std::uint32_t>(v));
    U32(static_cast<std::uint32_t>(v >> 32));
  }
  void String(const std::string& s) {
    U32(static_cast<std::uint32_t>(s.size()));
    if (!s.empty()) std::memcpy(p, s.data(), s.size());
    p += s.size();
  }
};

/// Bounded little-endian reader over the payload. Every Get checks the
/// remaining length and latches `ok = false` on underrun, so the decode
/// path needs exactly one error check at the end.
struct Reader {
  const std::uint8_t* p;
  std::size_t left;
  bool ok = true;

  std::uint8_t U8() {
    if (left < 1) return Fail();
    --left;
    return *p++;
  }
  std::uint32_t U32() {
    if (left < 4) return Fail();
    const std::uint32_t v = static_cast<std::uint32_t>(p[0]) |
                            static_cast<std::uint32_t>(p[1]) << 8 |
                            static_cast<std::uint32_t>(p[2]) << 16 |
                            static_cast<std::uint32_t>(p[3]) << 24;
    p += 4;
    left -= 4;
    return v;
  }
  std::uint64_t U64() {
    const std::uint64_t lo = U32();
    const std::uint64_t hi = U32();
    return lo | hi << 32;
  }
  std::string String() {
    const std::uint32_t n = U32();
    if (!ok || left < n) {
      Fail();
      return {};
    }
    std::string s(reinterpret_cast<const char*>(p), n);
    p += n;
    left -= n;
    return s;
  }

 private:
  std::uint8_t Fail() {
    ok = false;
    left = 0;
    return 0;
  }
};

std::uint32_t ReadHeaderU32(const std::uint8_t* p) {
  return static_cast<std::uint32_t>(p[0]) |
         static_cast<std::uint32_t>(p[1]) << 8 |
         static_cast<std::uint32_t>(p[2]) << 16 |
         static_cast<std::uint32_t>(p[3]) << 24;
}

}  // namespace

const char* ToString(DecodeStatus status) {
  switch (status) {
    case DecodeStatus::kOk:
      return "ok";
    case DecodeStatus::kNeedMore:
      return "need-more";
    case DecodeStatus::kBadMagic:
      return "bad-magic";
    case DecodeStatus::kBadVersion:
      return "bad-version";
    case DecodeStatus::kOversized:
      return "oversized";
    case DecodeStatus::kCrcMismatch:
      return "crc-mismatch";
    case DecodeStatus::kUnknownKind:
      return "unknown-kind";
    case DecodeStatus::kMalformed:
      return "malformed";
  }
  return "unknown";
}

void EncodeFrame(const WireFrame& frame, std::vector<std::uint8_t>& out) {
  const std::size_t frame_at = out.size();
  const std::size_t frame_bytes = FrameBytes(frame);
  out.resize(frame_at + frame_bytes);
  std::uint8_t* const header = out.data() + frame_at;
  std::uint8_t* const payload = header + kFrameHeaderBytes;
  const auto payload_len =
      static_cast<std::uint32_t>(frame_bytes - kFrameHeaderBytes);

  Writer w{payload};
  w.U32(frame.from);
  w.U32(frame.to);
  w.U8(static_cast<std::uint8_t>(frame.msg.kind));
  w.U64(frame.msg.op);
  w.U64(frame.msg.version);
  w.U64(static_cast<std::uint64_t>(frame.msg.value));
  w.U64(frame.msg.generation);
  w.U32(frame.msg.config_id);
  w.String(frame.msg.key);
  w.U32(static_cast<std::uint32_t>(frame.msg.batch.size()));
  for (const BatchEntry& e : frame.msg.batch) {
    w.U64(e.op);
    w.U64(e.version);
    w.U64(static_cast<std::uint64_t>(e.value));
    w.String(e.key);
  }
  w.U8(frame.msg.config.has_value() ? 1 : 0);
  if (frame.msg.config) {
    const runtime::ConfigPayload& c = *frame.msg.config;
    w.U8(static_cast<std::uint8_t>(c.descriptor.kind));
    w.U32(c.descriptor.a);
    w.U32(c.descriptor.b);
    w.U32(c.descriptor.read_threshold);
    w.U32(c.descriptor.write_threshold);
    w.U32(static_cast<std::uint32_t>(c.descriptor.votes.size()));
    for (std::uint32_t v : c.descriptor.votes) w.U32(v);
    w.U32(static_cast<std::uint32_t>(c.members.size()));
    for (NodeId m : c.members) w.U32(m);
  }

  Writer h{header};
  h.U32(kFrameMagic);
  h.U8(kWireVersion);
  h.U32(payload_len);
  h.U32(storage::Crc32(payload, payload_len));
}

std::size_t EncodedFrameBytes(const std::uint8_t* header) {
  return kFrameHeaderBytes + ReadHeaderU32(header + 5);
}

DecodeResult DecodeFrame(const std::uint8_t* data, std::size_t size,
                         std::size_t max_frame_bytes) {
  DecodeResult r;
  if (size < kFrameHeaderBytes) {
    // Whatever bytes are present, validate them as far as they go: a
    // stream that opens with a wrong magic is corrupt now, not after
    // more bytes arrive.
    for (std::size_t i = 0; i < size && i < 4; ++i) {
      if (data[i] != static_cast<std::uint8_t>(kFrameMagic >> (8 * i))) {
        r.status = DecodeStatus::kBadMagic;
        return r;
      }
    }
    if (size >= 5 && data[4] != kWireVersion) {
      r.status = DecodeStatus::kBadVersion;
      return r;
    }
    r.status = DecodeStatus::kNeedMore;
    return r;
  }
  if (ReadHeaderU32(data) != kFrameMagic) {
    r.status = DecodeStatus::kBadMagic;
    return r;
  }
  if (data[4] != kWireVersion) {
    r.status = DecodeStatus::kBadVersion;
    return r;
  }
  const std::uint32_t payload_len = ReadHeaderU32(data + 5);
  if (payload_len > max_frame_bytes) {
    r.status = DecodeStatus::kOversized;
    return r;
  }
  if (size < kFrameHeaderBytes + payload_len) {
    r.status = DecodeStatus::kNeedMore;
    return r;
  }
  const std::uint32_t want_crc = ReadHeaderU32(data + 9);
  const std::uint8_t* payload = data + kFrameHeaderBytes;
  if (storage::Crc32(payload, payload_len) != want_crc) {
    r.status = DecodeStatus::kCrcMismatch;
    return r;
  }

  Reader in{payload, payload_len};
  r.frame.from = in.U32();
  r.frame.to = in.U32();
  const std::uint8_t kind = in.U8();
  if (in.ok && kind > kMaxKind) {
    r.status = DecodeStatus::kUnknownKind;
    return r;
  }
  r.frame.msg.kind = static_cast<RtMessage::Kind>(kind);
  r.frame.msg.op = in.U64();
  r.frame.msg.version = in.U64();
  r.frame.msg.value = static_cast<std::int64_t>(in.U64());
  r.frame.msg.generation = in.U64();
  r.frame.msg.config_id = in.U32();
  r.frame.msg.key = in.String();
  const std::uint32_t batch_count = in.U32();
  // Entries are ≥ 28 bytes each; bounding the reserve by what the payload
  // could actually hold keeps a corrupt count from allocating gigabytes.
  if (in.ok && batch_count <= in.left / 28) {
    r.frame.msg.batch.reserve(batch_count);
  }
  for (std::uint32_t i = 0; in.ok && i < batch_count; ++i) {
    BatchEntry e;
    e.op = in.U64();
    e.version = in.U64();
    e.value = static_cast<std::int64_t>(in.U64());
    e.key = in.String();
    r.frame.msg.batch.push_back(std::move(e));
  }
  const std::uint8_t has_config = in.U8();
  if (in.ok && has_config > 1) {
    r.status = DecodeStatus::kMalformed;
    r.frame = WireFrame{};
    return r;
  }
  if (in.ok && has_config == 1) {
    runtime::ConfigPayload c;
    const std::uint8_t strategy_kind = in.U8();
    // CRC already proved the bytes intact: an out-of-range kind is
    // version skew or hostile, and guessing a quorum system risks
    // non-intersecting quorums. Reject the frame.
    if (in.ok && strategy_kind > quorum::kMaxStrategyKind) {
      r.status = DecodeStatus::kMalformed;
      r.frame = WireFrame{};
      return r;
    }
    c.descriptor.kind = static_cast<quorum::StrategyKind>(strategy_kind);
    c.descriptor.a = in.U32();
    c.descriptor.b = in.U32();
    c.descriptor.read_threshold = in.U32();
    c.descriptor.write_threshold = in.U32();
    const std::uint32_t vote_count = in.U32();
    // 4 bytes per vote: a hostile count larger than the remaining
    // payload could hold must not allocate.
    if (!in.ok || vote_count > in.left / 4) {
      r.status = DecodeStatus::kMalformed;
      r.frame = WireFrame{};
      return r;
    }
    c.descriptor.votes.reserve(vote_count);
    for (std::uint32_t i = 0; in.ok && i < vote_count; ++i) {
      c.descriptor.votes.push_back(in.U32());
    }
    const std::uint32_t member_count = in.U32();
    if (!in.ok || member_count > in.left / 4) {
      r.status = DecodeStatus::kMalformed;
      r.frame = WireFrame{};
      return r;
    }
    c.members.reserve(member_count);
    for (std::uint32_t i = 0; in.ok && i < member_count; ++i) {
      c.members.push_back(in.U32());
    }
    r.frame.msg.config = std::move(c);
  }
  if (!in.ok || in.left != 0) {
    r.status = DecodeStatus::kMalformed;
    r.frame = WireFrame{};
    return r;
  }
  r.status = DecodeStatus::kOk;
  r.consumed = kFrameHeaderBytes + payload_len;
  return r;
}

}  // namespace qcnt::net
