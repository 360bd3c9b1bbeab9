// Length-prefixed framing over stream connections.
//
// The kernel-space channel (§4.2) exchanges frames over a Unix socket: an
// 8-byte little-endian length followed by the payload, with no content
// transformation — the "serialization-free" wire format.
#pragma once

#include <functional>
#include <initializer_list>

#include "common/bytes.h"
#include "common/status.h"
#include "osal/socket.h"

namespace rr::serde {

// Hard upper bound on a frame, to fail fast on corrupted streams.
inline constexpr uint64_t kMaxFrameBytes = uint64_t{4} * 1024 * 1024 * 1024;

Status WriteFrame(osal::Connection& conn, ByteSpan payload);

// Writes a frame whose payload is the concatenation of `parts` (scatter
// write without assembling an intermediate buffer).
Status WriteFrameParts(osal::Connection& conn, std::initializer_list<ByteSpan> parts);

Result<Bytes> ReadFrame(osal::Connection& conn);

// Reads a frame's length, then hands the caller the exact-size destination
// decision (e.g. a guest memory region). `place` receives the payload length
// and must return a writable span of exactly that size, or fail. On failure
// the body is read and discarded before the error returns, so the stream
// stays at a frame boundary.
Status ReadFrameInto(
    osal::Connection& conn,
    const std::function<Result<MutableByteSpan>(uint64_t length)>& place);

}  // namespace rr::serde
