// The multiplexed agent wire protocol: many logical transfers, one TCP
// connection.
//
// A sequential wire (one frame, one delivery ack, the sender parked for the
// round trip) carries one transfer at a time per connection, and a large
// frame head-of-line blocks everything behind it. The mux protocol carries
// streams instead:
//
//  * Every logical transfer is a *stream*, identified by a connection-local
//    u32 id the sender allocates. A stream opens (kOpen, carrying the
//    routing metadata: function name, correlation token, body length),
//    moves its body as interleaved chunk frames (kData, at most
//    kMuxMaxChunk each, so a 64 MiB transfer cannot monopolize the wire
//    against a 4 KiB one), and
//    ends with the agent's kCompletion frame reporting the *invocation*
//    outcome — not just delivery. A remote handler failure therefore fails
//    the sender's edge immediately instead of waiting out a deadline.
//  * Flow control is per-stream: a stream may have at most
//    kMuxInitialWindow un-granted body bytes on the wire; the agent extends
//    the window with kWindowUpdate frames as it consumes. A sender that
//    exhausts its window stalls that one stream (counted) and keeps serving
//    the others.
//
// ## Connection preamble
//
// Every connection to a NodeAgent opens with this fixed preamble; the agent
// drops a connection whose first bytes are anything else:
//
//   [u16 LE 0xFFFF][u8 version = 1][u8 reserved = 0]
//
// ## Frame layout (both directions, 16-byte header)
//
//   [u8 type][u8 flags][u16 LE reserved][u32 LE stream_id]
//   [u32 LE payload_length][u32 LE aux]
//
//   kOpen          sender -> agent   payload: [u64 LE token]
//                                             [u64 LE body_length]
//                                             [u16 LE name length][name]
//                                             [u64 trace_id][u64 parent_span]
//                                               (present iff kMuxFlagTrace)
//   kData          sender -> agent   payload: body chunk (<= kMuxMaxChunk)
//   kWindowUpdate  agent -> sender   aux: credit bytes granted
//   kCompletion    agent -> sender   aux: StatusCode; payload: detail string
//   kCancel        sender -> agent   abandons the stream (deadline expiry)
//
// Frames for an unknown stream id are tolerated silently (a kData racing a
// kCancel, a kCompletion racing a sender-side deadline); malformed frames —
// unknown type, per-type length-cap violations, kData overrunning the
// declared body — are connection-fatal, because the byte stream past them
// cannot be re-framed.
#pragma once

#include <cstdint>

#include "common/bytes.h"
#include "common/status.h"

namespace rr::core {

// Preamble magic: the first two bytes of every agent connection.
inline constexpr uint16_t kMuxPreambleMagic = 0xFFFF;
inline constexpr uint8_t kMuxVersion = 1;
inline constexpr size_t kMuxPreambleBytes = 4;

inline constexpr size_t kMuxFrameHeaderBytes = 16;

// Frame types.
inline constexpr uint8_t kMuxFrameOpen = 1;
inline constexpr uint8_t kMuxFrameData = 2;
inline constexpr uint8_t kMuxFrameWindowUpdate = 3;
inline constexpr uint8_t kMuxFrameCompletion = 4;
inline constexpr uint8_t kMuxFrameCancel = 5;

// kOpen flags.
inline constexpr uint8_t kMuxFlagTrace = 0x01;

// Scheduling quantum: the largest body chunk one kData frame may carry. One
// quantum is one round-robin turn, so the latency a small stream pays behind
// N busy streams is bounded by N quanta, not by anyone's body size.
inline constexpr size_t kMuxMaxChunk = 64 * 1024;

// A stream's initial flow-control window. The agent grants more as it
// consumes; a sender may never have more un-granted body bytes in flight.
inline constexpr size_t kMuxInitialWindow = 256 * 1024;

// The agent re-grants consumed window once at least this much accumulated
// (half a window: updates amortize without ever letting the window drain).
inline constexpr size_t kMuxWindowUpdateThreshold = kMuxInitialWindow / 2;

// The largest body a kOpen may declare: a body lands in one region of 32-bit
// guest memory. A larger declaration is connection-fatal.
inline constexpr uint64_t kMuxMaxBodyBytes = UINT32_MAX;

// Per-type payload caps: violations are connection-fatal.
inline constexpr size_t kMuxMaxOpenPayload = 2 * 1024;
inline constexpr size_t kMuxMaxCompletionDetail = 512;

struct MuxFrameHeader {
  uint8_t type = 0;
  uint8_t flags = 0;
  uint32_t stream_id = 0;
  uint32_t payload_length = 0;
  uint32_t aux = 0;
};

inline void EncodeMuxFrameHeader(const MuxFrameHeader& h, uint8_t* out) {
  out[0] = h.type;
  out[1] = h.flags;
  StoreLE<uint16_t>(out + 2, 0);
  StoreLE<uint32_t>(out + 4, h.stream_id);
  StoreLE<uint32_t>(out + 8, h.payload_length);
  StoreLE<uint32_t>(out + 12, h.aux);
}

inline MuxFrameHeader DecodeMuxFrameHeader(const uint8_t* in) {
  MuxFrameHeader h;
  h.type = in[0];
  h.flags = in[1];
  h.stream_id = LoadLE<uint32_t>(in + 4);
  h.payload_length = LoadLE<uint32_t>(in + 8);
  h.aux = LoadLE<uint32_t>(in + 12);
  return h;
}

// Validates a decoded header's type and per-type payload cap. kData's
// body-overrun check needs stream state and stays with the caller.
inline Status ValidateMuxFrameHeader(const MuxFrameHeader& h,
                                     bool receiver_is_agent) {
  switch (h.type) {
    case kMuxFrameOpen:
      if (!receiver_is_agent) break;
      if (h.payload_length == 0 || h.payload_length > kMuxMaxOpenPayload) {
        return DataLossError("mux: implausible open-frame length");
      }
      return Status::Ok();
    case kMuxFrameData:
      if (!receiver_is_agent) break;
      if (h.payload_length == 0 || h.payload_length > kMuxMaxChunk) {
        return DataLossError("mux: data chunk exceeds the frame quantum");
      }
      return Status::Ok();
    case kMuxFrameCancel:
      if (!receiver_is_agent) break;
      if (h.payload_length != 0) {
        return DataLossError("mux: cancel frame carries a payload");
      }
      return Status::Ok();
    case kMuxFrameWindowUpdate:
      if (receiver_is_agent) break;
      if (h.payload_length != 0) {
        return DataLossError("mux: window update carries a payload");
      }
      return Status::Ok();
    case kMuxFrameCompletion:
      if (receiver_is_agent) break;
      if (h.payload_length > kMuxMaxCompletionDetail) {
        return DataLossError("mux: implausible completion detail length");
      }
      return Status::Ok();
    default:
      break;
  }
  return DataLossError("mux: unexpected frame type " +
                       std::to_string(static_cast<int>(h.type)));
}

}  // namespace rr::core
