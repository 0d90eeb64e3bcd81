#include "store/wal.h"

#include <bit>

#include "util/byte_io.h"
#include "util/crc32.h"
#include "util/strings.h"

namespace apichecker::store {

std::vector<uint8_t> EncodeRecord(const VerdictRecord& record) {
  util::ByteWriter payload;
  payload.PutString(record.digest);
  payload.PutU64(record.seq);
  payload.PutU32(record.model_version);
  payload.PutU32(record.flags);
  payload.PutU8(record.malicious ? 1 : 0);
  payload.PutU64(std::bit_cast<uint64_t>(record.score));
  payload.PutU64(record.timestamp_ms);

  util::ByteWriter frame;
  frame.PutU32(kRecordMagic);
  frame.PutU32(static_cast<uint32_t>(payload.size()));
  frame.PutBytes(payload.bytes());
  frame.PutU32(util::Crc32(payload.bytes()));
  return frame.TakeBytes();
}

namespace {

// Decodes the payload of one frame. Returns false on any structural problem
// or a score outside [0, 1] (the CRC already passed, so this fires on a
// format-version skew or on a record written with a bad score).
bool DecodePayload(std::span<const uint8_t> payload, VerdictRecord& out) {
  util::ByteReader reader(payload);
  auto digest = reader.ReadString();
  auto seq = reader.ReadU64();
  auto version = reader.ReadU32();
  auto flags = reader.ReadU32();
  auto malicious = reader.ReadU8();
  auto score_bits = reader.ReadU64();
  auto timestamp = reader.ReadU64();
  if (!digest.ok() || !seq.ok() || !version.ok() || !flags.ok() ||
      !malicious.ok() || !score_bits.ok() || !timestamp.ok() || !reader.AtEnd()) {
    return false;
  }
  out.digest = std::move(*digest);
  out.seq = *seq;
  out.model_version = *version;
  out.flags = *flags;
  out.malicious = *malicious != 0;
  out.score = std::bit_cast<double>(*score_bits);
  out.timestamp_ms = *timestamp;
  // A score is a malice probability; anything else (NaN included) must not
  // replay into the verdict cache.
  return out.score >= 0.0 && out.score <= 1.0;
}

}  // namespace

SegmentScan ScanSegment(std::span<const uint8_t> bytes) {
  SegmentScan scan;
  util::ByteReader reader(bytes);
  for (;;) {
    if (reader.AtEnd()) {
      scan.clean = true;
      return scan;
    }
    const size_t frame_start = reader.position();
    auto magic = reader.ReadU32();
    if (!magic.ok() || *magic != kRecordMagic) {
      scan.error = util::StrFormat("bad magic at offset %zu", frame_start);
      scan.valid_bytes = frame_start;
      return scan;
    }
    auto payload_len = reader.ReadU32();
    if (!payload_len.ok() || *payload_len > kMaxPayloadBytes ||
        *payload_len + 4 > reader.remaining()) {
      scan.error = util::StrFormat("truncated frame at offset %zu", frame_start);
      scan.valid_bytes = frame_start;
      return scan;
    }
    auto payload = reader.ReadBytes(*payload_len);
    auto crc = reader.ReadU32();
    if (!payload.ok() || !crc.ok() || util::Crc32(*payload) != *crc) {
      scan.error = util::StrFormat("CRC mismatch at offset %zu", frame_start);
      scan.valid_bytes = frame_start;
      return scan;
    }
    VerdictRecord record;
    if (!DecodePayload(*payload, record)) {
      scan.error = util::StrFormat("undecodable payload at offset %zu", frame_start);
      scan.valid_bytes = frame_start;
      return scan;
    }
    scan.records.push_back(std::move(record));
    scan.valid_bytes = reader.position();
  }
}

}  // namespace apichecker::store
