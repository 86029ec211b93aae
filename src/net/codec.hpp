// Binary wire codec for runtime messages.
//
// Frame layout (all integers little-endian):
//
//   ┌─────────┬─────────┬─────────────┬─────────┬──────────────────┐
//   │ magic   │ version │ payload_len │ crc32   │ payload          │
//   │ u32     │ u8      │ u32         │ u32     │ payload_len bytes│
//   └─────────┴─────────┴─────────────┴─────────┴──────────────────┘
//
//   payload := from u32 · to u32 · kind u8 · op u64 · version u64
//            · value u64 (two's complement) · generation u64
//            · config_id u32 · key (u32 len · bytes)
//            · batch_count u32 · batch_count × entry
//            · has_config u8 · [config]
//   entry   := op u64 · version u64 · value u64 · key (u32 len · bytes)
//   config  := strategy_kind u8 · a u32 · b u32
//            · read_threshold u32 · write_threshold u32
//            · vote_count u32 · vote_count × u32
//            · member_count u32 · member_count × u32
//
// has_config must be 0 or 1 (anything else is kMalformed); when 1, the
// config section describes the configuration `config_id` names — member
// node ids plus the quorum strategy over them — so a process that never
// saw the coordinator's ConfigTable::Append can still install it. A
// strategy_kind beyond kMaxStrategyKind is kMalformed: the CRC proves
// the bytes arrived intact, so an unknown kind is a version skew or an
// attack, and guessing a quorum system is how split-brain starts.
//
// The CRC covers the payload only; magic/version/length are validated
// structurally. A frame is self-delimiting, so a TCP byte stream is
// decoded by repeatedly calling DecodeFrame on the unconsumed prefix:
// kNeedMore means "wait for more bytes", every other non-kOk status is a
// protocol violation and the caller must drop the connection (there is no
// way to resynchronize a corrupt length-prefixed stream).
//
// Versioning: kWireVersion bumps whenever the payload layout changes;
// a decoder rejects frames from a different version (kBadVersion) rather
// than guessing. Oversized frames (payload_len > max) are rejected before
// any allocation, so a corrupt or hostile length cannot balloon memory.
#pragma once

#include <cstdint>
#include <vector>

#include "runtime/message.hpp"

namespace qcnt::net {

using runtime::NodeId;
using runtime::RtMessage;

inline constexpr std::uint32_t kFrameMagic = 0x544E4351u;  // "QCNT"
/// v2: membership-change kinds joined the kind space. Field layout is
/// unchanged, but a v1 decoder would mis-reject the new kinds, so the
/// version bumped. Two of them (numbers 14 and 15, a joiner-driven pull)
/// were later retired without a bump, since the layout did not change:
/// kCatchupReq/kCatchupChunk remain, and 14 and 15 decode as
/// kUnknownKind.
/// v3: trailing has_config u8 + optional config section (member list +
/// strategy descriptor) — config writes and fence NACKs are
/// self-describing across processes.
inline constexpr std::uint8_t kWireVersion = 3;
/// magic(4) + version(1) + payload_len(4) + crc32(4).
inline constexpr std::size_t kFrameHeaderBytes = 13;
/// Default ceiling on payload_len. Generous: the largest legitimate frame
/// is a batch of max_batch ops with long keys, a few KiB.
inline constexpr std::size_t kDefaultMaxFrameBytes = 16u << 20;

enum class DecodeStatus : std::uint8_t {
  kOk,
  /// The buffer holds a valid prefix of a frame; read more bytes.
  kNeedMore,
  kBadMagic,
  kBadVersion,
  /// payload_len exceeds the caller's ceiling.
  kOversized,
  kCrcMismatch,
  /// Payload CRC is valid but the kind byte names no known message.
  kUnknownKind,
  /// Payload CRC is valid but the field structure is inconsistent
  /// (a length runs past the payload, or trailing bytes remain).
  kMalformed,
};

const char* ToString(DecodeStatus status);

/// One routed message as it crosses the wire: the envelope sender plus
/// the destination node (a TCP connection is shared by every node pair
/// between two processes, so frames carry their own routing).
struct WireFrame {
  NodeId from = 0;
  NodeId to = 0;
  RtMessage msg;
};

/// Append the encoded frame to `out`, growing it once by the frame's exact
/// size. `out` is not cleared — TcpTransport::Send encodes straight onto a
/// peer's pending write buffer, and a caller reusing one vector across
/// frames amortizes allocation.
void EncodeFrame(const WireFrame& frame, std::vector<std::uint8_t>& out);

/// Size (header plus payload) of the frame EncodeFrame wrote at `header`,
/// read back from its payload_len field: how a sender walks the frames
/// of its own write queue. Bytes from the wire go through DecodeFrame.
std::size_t EncodedFrameBytes(const std::uint8_t* header);

struct DecodeResult {
  DecodeStatus status = DecodeStatus::kNeedMore;
  /// Bytes consumed from the buffer; nonzero only when status == kOk.
  std::size_t consumed = 0;
  /// Valid only when status == kOk.
  WireFrame frame;
};

/// Decode one frame from the front of `data`. Never throws, never reads
/// past `size`, never allocates more than the decoded frame itself.
DecodeResult DecodeFrame(const std::uint8_t* data, std::size_t size,
                         std::size_t max_frame_bytes = kDefaultMaxFrameBytes);

}  // namespace qcnt::net
