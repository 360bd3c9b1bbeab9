// The structured payload exchanged by the evaluation workloads.
//
// §6.1: "chained serverless workflows consisting of two I/O-bound functions
// a and b, which exchange serialized strings ... payloads reflect structured
// data commonly exchanged between serverless functions". Record is that
// structured payload: routing metadata plus a bulk body.
//
// Two codecs are provided:
//  * JSON text (SerializeRecord/DeserializeRecord) — what the HTTP baselines
//    pay for on every transfer.
//  * Length-prefixed binary (EncodeRecordBinary/DecodeRecordBinary) — the
//    raw-bytes framing Roadrunner uses for its header-only metadata; the
//    body is never transformed.
#pragma once

#include <cstdint>
#include <string>

#include "common/bytes.h"
#include "common/status.h"
#include "serde/json.h"

namespace rr::serde {

struct Record {
  uint64_t id = 0;
  std::string source;       // producing function
  std::string destination;  // target function
  uint64_t timestamp_ns = 0;
  std::string content_type = "application/octet-stream";
  std::string body;         // bulk payload

  bool operator==(const Record& other) const = default;

  size_t ApproximateSize() const {
    return sizeof(Record) + source.size() + destination.size() +
           content_type.size() + body.size();
  }
};

JsonValue RecordToJson(const Record& record);
Result<Record> RecordFromJson(const JsonValue& value);

// JSON text codec (the baselines' serialization cost).
std::string SerializeRecord(const Record& record);
Result<Record> DeserializeRecord(std::string_view text);

// Length-prefixed binary codec: fixed header + raw field bytes.
Bytes EncodeRecordBinary(const Record& record);
Result<Record> DecodeRecordBinary(ByteSpan data);

// Binary header describing a Record whose body travels out-of-band. This is
// all Roadrunner serializes: O(metadata), not O(body).
Bytes EncodeRecordHeader(const Record& record);
struct RecordHeader {
  uint64_t id = 0;
  uint64_t timestamp_ns = 0;
  uint64_t body_length = 0;
  std::string source;
  std::string destination;
  std::string content_type;
};
Result<RecordHeader> DecodeRecordHeader(ByteSpan data);

}  // namespace rr::serde
