#include "serde/framing.h"

#include <algorithm>

namespace rr::serde {

namespace {

Status DrainBody(osal::Connection& conn, uint64_t length) {
  uint8_t scratch[64 * 1024];
  while (length > 0) {
    const size_t want =
        static_cast<size_t>(std::min<uint64_t>(sizeof(scratch), length));
    RR_RETURN_IF_ERROR(conn.Receive(MutableByteSpan(scratch, want)));
    length -= want;
  }
  return Status::Ok();
}

}  // namespace

Status WriteFrame(osal::Connection& conn, ByteSpan payload) {
  return WriteFrameParts(conn, {payload});
}

Status WriteFrameParts(osal::Connection& conn,
                       std::initializer_list<ByteSpan> parts) {
  uint64_t total = 0;
  for (const ByteSpan part : parts) total += part.size();
  if (total > kMaxFrameBytes) {
    return InvalidArgumentError("frame exceeds maximum size");
  }
  uint8_t header[8];
  StoreLE<uint64_t>(header, total);
  RR_RETURN_IF_ERROR(conn.Send(ByteSpan(header, 8)));
  for (const ByteSpan part : parts) {
    if (!part.empty()) RR_RETURN_IF_ERROR(conn.Send(part));
  }
  return Status::Ok();
}

Result<Bytes> ReadFrame(osal::Connection& conn) {
  uint8_t header[8];
  RR_RETURN_IF_ERROR(conn.Receive(MutableByteSpan(header, 8)));
  const uint64_t length = LoadLE<uint64_t>(header);
  if (length > kMaxFrameBytes) {
    return DataLossError("frame header announces implausible size");
  }
  Bytes payload(length);
  if (length > 0) RR_RETURN_IF_ERROR(conn.Receive(payload));
  return payload;
}

Status ReadFrameInto(
    osal::Connection& conn,
    const std::function<Result<MutableByteSpan>(uint64_t length)>& place) {
  uint8_t header[8];
  RR_RETURN_IF_ERROR(conn.Receive(MutableByteSpan(header, 8)));
  const uint64_t length = LoadLE<uint64_t>(header);
  if (length > kMaxFrameBytes) {
    return DataLossError("frame header announces implausible size");
  }
  Result<MutableByteSpan> dest = place(length);
  if (dest.ok() && dest->size() != length) {
    dest = InternalError("placement returned wrong-size destination");
  }
  if (!dest.ok()) {
    // The body is still on the wire: consume it so the stream stays at a
    // frame boundary for the next read. A failed drain leaves the stream
    // dead either way; the placement error is the cause worth reporting.
    (void)DrainBody(conn, length);
    return dest.status();
  }
  if (length > 0) RR_RETURN_IF_ERROR(conn.Receive(*dest));
  return Status::Ok();
}

}  // namespace rr::serde
