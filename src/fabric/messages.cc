#include "fabric/messages.h"

#include <bit>
#include <cmath>

#include "util/byte_io.h"

namespace apichecker::fabric {

namespace {

// Doubles cross the wire as their IEEE-754 bit pattern. Both ends of the
// fabric are the same binary family (x86-64 Linux), so bit-exactness holds —
// which the local/remote parity tests rely on. No field carries a NaN or an
// infinity, so the reader rejects them before they reach a histogram or a
// float-to-integer cast.
void PutF64(util::ByteWriter& out, double v) { out.PutU64(std::bit_cast<uint64_t>(v)); }

util::Result<double> ReadF64(util::ByteReader& in) {
  auto bits = in.ReadU64();
  if (!bits.ok()) return util::Err(bits.error());
  const double value = std::bit_cast<double>(*bits);
  if (!std::isfinite(value)) return util::Err("non-finite float field");
  return value;
}

// Reads a u32 element count that is about to drive a decode loop. The count
// itself is untrusted: it is only accepted when the remaining payload could
// plausibly hold that many elements at `min_element_bytes` apiece, so a
// hostile count cannot drive a giant reserve() before the per-element reads
// start failing.
util::Result<uint32_t> ReadCount(util::ByteReader& in, size_t min_element_bytes) {
  auto count = in.ReadU32();
  if (!count.ok()) return util::Err(count.error());
  if (min_element_bytes == 0) min_element_bytes = 1;
  if (*count > in.remaining() / min_element_bytes) {
    return util::Err("element count exceeds payload");
  }
  return *count;
}

void PutStringVec(util::ByteWriter& out, const std::vector<std::string>& v) {
  out.PutU32(static_cast<uint32_t>(v.size()));
  for (const auto& s : v) out.PutString(s);
}

util::Result<std::vector<std::string>> ReadStringVec(util::ByteReader& in) {
  auto count = ReadCount(in, 1);
  if (!count.ok()) return util::Err(count.error());
  std::vector<std::string> v;
  v.reserve(*count);
  for (uint32_t i = 0; i < *count; ++i) {
    auto s = in.ReadString();
    if (!s.ok()) return util::Err(s.error());
    v.push_back(std::move(*s));
  }
  return v;
}

void PutU32Vec(util::ByteWriter& out, const std::vector<uint32_t>& v) {
  out.PutU32(static_cast<uint32_t>(v.size()));
  for (uint32_t x : v) out.PutU32(x);
}

util::Result<std::vector<uint32_t>> ReadU32Vec(util::ByteReader& in) {
  auto count = ReadCount(in, 4);
  if (!count.ok()) return util::Err(count.error());
  std::vector<uint32_t> v;
  v.reserve(*count);
  for (uint32_t i = 0; i < *count; ++i) {
    auto x = in.ReadU32();
    if (!x.ok()) return util::Err(x.error());
    v.push_back(*x);
  }
  return v;
}

void PutBlob(util::ByteWriter& out, std::span<const uint8_t> blob) {
  out.PutU32(static_cast<uint32_t>(blob.size()));
  out.PutBytes(blob);
}

util::Result<std::vector<uint8_t>> ReadBlob(util::ByteReader& in) {
  auto len = in.ReadU32();
  if (!len.ok()) return util::Err(len.error());
  if (*len > in.remaining()) return util::Err("blob length exceeds payload");
  return in.ReadBytes(*len);
}

void PutReport(util::ByteWriter& out, const emu::EmulationReport& report) {
  PutU32Vec(out, report.observed_apis);
  PutU32Vec(out, report.observed_api_counts);
  out.PutU32(static_cast<uint32_t>(report.observed_intents.size()));
  for (const auto& intent : report.observed_intents) {
    out.PutString(intent.action);
    out.PutU32(intent.carrier);
  }
  PutStringVec(out, report.requested_permissions);
  PutStringVec(out, report.manifest_intent_filters);
  out.PutU64(report.total_invocations);
  out.PutU64(report.tracked_invocations);
  PutF64(out, report.emulation_minutes);
  PutF64(out, report.rac);
  out.PutU32(report.distinct_apis_invoked);
  uint8_t flags = 0;
  if (report.emulator_detected) flags |= 1u << 0;
  if (report.crashed) flags |= 1u << 1;
  if (report.retried) flags |= 1u << 2;
  if (report.fell_back) flags |= 1u << 3;
  out.PutU8(flags);
}

util::Result<emu::EmulationReport> ReadReport(util::ByteReader& in) {
  emu::EmulationReport report;
  auto apis = ReadU32Vec(in);
  if (!apis.ok()) return util::Err(apis.error());
  report.observed_apis = std::move(*apis);
  auto counts = ReadU32Vec(in);
  if (!counts.ok()) return util::Err(counts.error());
  report.observed_api_counts = std::move(*counts);
  auto intent_count = ReadCount(in, 1);
  if (!intent_count.ok()) return util::Err(intent_count.error());
  report.observed_intents.reserve(*intent_count);
  for (uint32_t i = 0; i < *intent_count; ++i) {
    emu::ObservedIntent intent;
    auto action = in.ReadString();
    if (!action.ok()) return util::Err(action.error());
    intent.action = std::move(*action);
    auto carrier = in.ReadU32();
    if (!carrier.ok()) return util::Err(carrier.error());
    intent.carrier = *carrier;
    report.observed_intents.push_back(std::move(intent));
  }
  auto permissions = ReadStringVec(in);
  if (!permissions.ok()) return util::Err(permissions.error());
  report.requested_permissions = std::move(*permissions);
  auto filters = ReadStringVec(in);
  if (!filters.ok()) return util::Err(filters.error());
  report.manifest_intent_filters = std::move(*filters);
  auto total = in.ReadU64();
  if (!total.ok()) return util::Err(total.error());
  report.total_invocations = *total;
  auto tracked = in.ReadU64();
  if (!tracked.ok()) return util::Err(tracked.error());
  report.tracked_invocations = *tracked;
  auto minutes = ReadF64(in);
  if (!minutes.ok()) return util::Err(minutes.error());
  report.emulation_minutes = *minutes;
  auto rac = ReadF64(in);
  if (!rac.ok()) return util::Err(rac.error());
  report.rac = *rac;
  auto distinct = in.ReadU32();
  if (!distinct.ok()) return util::Err(distinct.error());
  report.distinct_apis_invoked = *distinct;
  auto flags = in.ReadU8();
  if (!flags.ok()) return util::Err(flags.error());
  report.emulator_detected = (*flags & (1u << 0)) != 0;
  report.crashed = (*flags & (1u << 1)) != 0;
  report.retried = (*flags & (1u << 2)) != 0;
  report.fell_back = (*flags & (1u << 3)) != 0;
  return report;
}

}  // namespace

std::vector<uint8_t> EncodeHello(const Hello& msg) {
  util::ByteWriter out;
  out.PutU8(static_cast<uint8_t>(msg.channel));
  out.PutU32(msg.farm_id);
  out.PutU64(msg.universe_checksum);
  out.PutString(msg.client_name);
  return std::move(out).TakeBytes();
}

util::Result<Hello> DecodeHello(std::span<const uint8_t> payload) {
  util::ByteReader in(payload);
  Hello msg;
  auto channel = in.ReadU8();
  if (!channel.ok()) return util::Err(channel.error());
  if (*channel > static_cast<uint8_t>(Channel::kHeartbeat)) {
    return util::Err("unknown channel");
  }
  msg.channel = static_cast<Channel>(*channel);
  auto farm_id = in.ReadU32();
  if (!farm_id.ok()) return util::Err(farm_id.error());
  msg.farm_id = *farm_id;
  auto checksum = in.ReadU64();
  if (!checksum.ok()) return util::Err(checksum.error());
  msg.universe_checksum = *checksum;
  auto name = in.ReadString();
  if (!name.ok()) return util::Err(name.error());
  msg.client_name = std::move(*name);
  return msg;
}

std::vector<uint8_t> EncodeHelloAck(const HelloAck& msg) {
  util::ByteWriter out;
  out.PutU32(msg.worker_id);
  out.PutU32(msg.pid);
  out.PutU64(msg.universe_checksum);
  return std::move(out).TakeBytes();
}

util::Result<HelloAck> DecodeHelloAck(std::span<const uint8_t> payload) {
  util::ByteReader in(payload);
  HelloAck msg;
  auto worker_id = in.ReadU32();
  if (!worker_id.ok()) return util::Err(worker_id.error());
  msg.worker_id = *worker_id;
  auto pid = in.ReadU32();
  if (!pid.ok()) return util::Err(pid.error());
  msg.pid = *pid;
  auto checksum = in.ReadU64();
  if (!checksum.ok()) return util::Err(checksum.error());
  msg.universe_checksum = *checksum;
  return msg;
}

std::vector<uint8_t> EncodePing(const Ping& msg) {
  util::ByteWriter out;
  out.PutU64(msg.seq);
  return std::move(out).TakeBytes();
}

util::Result<Ping> DecodePing(std::span<const uint8_t> payload) {
  util::ByteReader in(payload);
  auto seq = in.ReadU64();
  if (!seq.ok()) return util::Err(seq.error());
  return Ping{.seq = *seq};
}

std::vector<uint8_t> EncodeSetModel(const SetModel& msg) {
  util::ByteWriter out;
  out.PutU32(msg.model_version);
  PutBlob(out, msg.blob);
  return std::move(out).TakeBytes();
}

util::Result<SetModel> DecodeSetModel(std::span<const uint8_t> payload) {
  util::ByteReader in(payload);
  SetModel msg;
  auto version = in.ReadU32();
  if (!version.ok()) return util::Err(version.error());
  msg.model_version = *version;
  auto blob = ReadBlob(in);
  if (!blob.ok()) return util::Err(blob.error());
  msg.blob = std::move(*blob);
  return msg;
}

std::vector<uint8_t> EncodeSetModelAck(const SetModelAck& msg) {
  util::ByteWriter out;
  out.PutU32(msg.model_version);
  out.PutU32(msg.tracked_count);
  return std::move(out).TakeBytes();
}

util::Result<SetModelAck> DecodeSetModelAck(std::span<const uint8_t> payload) {
  util::ByteReader in(payload);
  SetModelAck msg;
  auto version = in.ReadU32();
  if (!version.ok()) return util::Err(version.error());
  msg.model_version = *version;
  auto tracked = in.ReadU32();
  if (!tracked.ok()) return util::Err(tracked.error());
  msg.tracked_count = *tracked;
  return msg;
}

std::vector<uint8_t> EncodeRunBatch(const RunBatchRequest& msg) {
  util::ByteWriter out;
  out.PutU32(msg.model_version);
  out.PutU32(static_cast<uint32_t>(msg.apks.size()));
  for (const auto& apk : msg.apks) PutBlob(out, apk);
  return std::move(out).TakeBytes();
}

util::Result<RunBatchRequest> DecodeRunBatch(std::span<const uint8_t> payload) {
  util::ByteReader in(payload);
  RunBatchRequest msg;
  auto version = in.ReadU32();
  if (!version.ok()) return util::Err(version.error());
  msg.model_version = *version;
  auto count = ReadCount(in, 4);
  if (!count.ok()) return util::Err(count.error());
  msg.apks.reserve(*count);
  for (uint32_t i = 0; i < *count; ++i) {
    auto blob = ReadBlob(in);
    if (!blob.ok()) return util::Err(blob.error());
    msg.apks.push_back(std::move(*blob));
  }
  return msg;
}

std::vector<uint8_t> EncodeBatchResult(const emu::BatchResult& result) {
  util::ByteWriter out;
  out.PutU32(static_cast<uint32_t>(result.reports.size()));
  for (const auto& report : result.reports) PutReport(out, report);
  PutF64(out, result.makespan_minutes);
  PutF64(out, result.total_emulation_minutes);
  out.PutU64(result.crashes);
  out.PutU64(result.fallbacks);
  uint8_t flags = 0;
  if (result.farm_fault) flags |= 1u << 0;
  if (result.transport_fault) flags |= 1u << 1;
  out.PutU8(flags);
  out.PutString(result.fault_reason);
  return std::move(out).TakeBytes();
}

util::Result<emu::BatchResult> DecodeBatchResult(std::span<const uint8_t> payload) {
  util::ByteReader in(payload);
  emu::BatchResult result;
  auto count = ReadCount(in, 1);
  if (!count.ok()) return util::Err(count.error());
  result.reports.reserve(*count);
  for (uint32_t i = 0; i < *count; ++i) {
    auto report = ReadReport(in);
    if (!report.ok()) return util::Err(report.error());
    result.reports.push_back(std::move(*report));
  }
  auto makespan = ReadF64(in);
  if (!makespan.ok()) return util::Err(makespan.error());
  result.makespan_minutes = *makespan;
  auto total = ReadF64(in);
  if (!total.ok()) return util::Err(total.error());
  result.total_emulation_minutes = *total;
  auto crashes = in.ReadU64();
  if (!crashes.ok()) return util::Err(crashes.error());
  result.crashes = static_cast<size_t>(*crashes);
  auto fallbacks = in.ReadU64();
  if (!fallbacks.ok()) return util::Err(fallbacks.error());
  result.fallbacks = static_cast<size_t>(*fallbacks);
  auto flags = in.ReadU8();
  if (!flags.ok()) return util::Err(flags.error());
  result.farm_fault = (*flags & (1u << 0)) != 0;
  result.transport_fault = (*flags & (1u << 1)) != 0;
  auto reason = in.ReadString();
  if (!reason.ok()) return util::Err(reason.error());
  result.fault_reason = std::move(*reason);
  return result;
}

std::vector<uint8_t> EncodeError(const ErrorMsg& msg) {
  util::ByteWriter out;
  out.PutString(msg.message);
  return std::move(out).TakeBytes();
}

util::Result<ErrorMsg> DecodeError(std::span<const uint8_t> payload) {
  util::ByteReader in(payload);
  auto message = in.ReadString();
  if (!message.ok()) return util::Err(message.error());
  return ErrorMsg{.message = std::move(*message)};
}

std::vector<uint8_t> EncodeUploadOpen(const UploadOpen& msg) {
  util::ByteWriter out;
  out.PutU64(msg.declared_length);
  out.PutString(msg.digest_hint);
  out.PutU8(msg.priority);
  out.PutString(msg.client_name);
  return std::move(out).TakeBytes();
}

util::Result<UploadOpen> DecodeUploadOpen(std::span<const uint8_t> payload) {
  util::ByteReader in(payload);
  UploadOpen msg;
  auto length = in.ReadU64();
  if (!length.ok()) return util::Err(length.error());
  msg.declared_length = *length;
  auto digest = in.ReadString();
  if (!digest.ok()) return util::Err(digest.error());
  msg.digest_hint = std::move(*digest);
  auto priority = in.ReadU8();
  if (!priority.ok()) return util::Err(priority.error());
  msg.priority = *priority;
  auto name = in.ReadString();
  if (!name.ok()) return util::Err(name.error());
  msg.client_name = std::move(*name);
  return msg;
}

namespace {

void PutUploadVerdict(util::ByteWriter& out, const UploadVerdictMsg& msg) {
  out.PutU8(msg.status);
  uint8_t flags = 0;
  if (msg.malicious) flags |= 1u << 0;
  if (msg.from_cache) flags |= 1u << 1;
  out.PutU8(flags);
  PutF64(out, msg.score);
  out.PutU32(msg.model_version);
  out.PutString(msg.error);
}

util::Result<UploadVerdictMsg> ReadUploadVerdict(util::ByteReader& in) {
  UploadVerdictMsg msg;
  auto status = in.ReadU8();
  if (!status.ok()) return util::Err(status.error());
  msg.status = *status;
  auto flags = in.ReadU8();
  if (!flags.ok()) return util::Err(flags.error());
  msg.malicious = (*flags & (1u << 0)) != 0;
  msg.from_cache = (*flags & (1u << 1)) != 0;
  auto score = ReadF64(in);
  if (!score.ok()) return util::Err(score.error());
  msg.score = *score;
  auto version = in.ReadU32();
  if (!version.ok()) return util::Err(version.error());
  msg.model_version = *version;
  auto error = in.ReadString();
  if (!error.ok()) return util::Err(error.error());
  msg.error = std::move(*error);
  return msg;
}

}  // namespace

std::vector<uint8_t> EncodeUploadAck(const UploadAck& msg) {
  util::ByteWriter out;
  out.PutU8(static_cast<uint8_t>(msg.decision));
  out.PutU64(msg.max_chunk_bytes);
  PutUploadVerdict(out, msg.verdict);
  return std::move(out).TakeBytes();
}

util::Result<UploadAck> DecodeUploadAck(std::span<const uint8_t> payload) {
  util::ByteReader in(payload);
  UploadAck msg;
  auto decision = in.ReadU8();
  if (!decision.ok()) return util::Err(decision.error());
  if (*decision > static_cast<uint8_t>(UploadDecision::kVerdict)) {
    return util::Err("unknown upload decision");
  }
  msg.decision = static_cast<UploadDecision>(*decision);
  auto chunk = in.ReadU64();
  if (!chunk.ok()) return util::Err(chunk.error());
  msg.max_chunk_bytes = *chunk;
  auto verdict = ReadUploadVerdict(in);
  if (!verdict.ok()) return util::Err(verdict.error());
  msg.verdict = std::move(*verdict);
  return msg;
}

std::vector<uint8_t> EncodeUploadChunk(const UploadChunk& msg) {
  util::ByteWriter out;
  out.PutU32(msg.seq);
  PutBlob(out, msg.bytes);
  return std::move(out).TakeBytes();
}

util::Result<UploadChunk> DecodeUploadChunk(std::span<const uint8_t> payload) {
  util::ByteReader in(payload);
  UploadChunk msg;
  auto seq = in.ReadU32();
  if (!seq.ok()) return util::Err(seq.error());
  msg.seq = *seq;
  auto bytes = ReadBlob(in);
  if (!bytes.ok()) return util::Err(bytes.error());
  msg.bytes = std::move(*bytes);
  return msg;
}

std::vector<uint8_t> EncodeUploadEnd(const UploadEnd& msg) {
  util::ByteWriter out;
  out.PutU64(msg.sent_length);
  return std::move(out).TakeBytes();
}

util::Result<UploadEnd> DecodeUploadEnd(std::span<const uint8_t> payload) {
  util::ByteReader in(payload);
  auto length = in.ReadU64();
  if (!length.ok()) return util::Err(length.error());
  return UploadEnd{.sent_length = *length};
}

std::vector<uint8_t> EncodeUploadVerdict(const UploadVerdictMsg& msg) {
  util::ByteWriter out;
  PutUploadVerdict(out, msg);
  return std::move(out).TakeBytes();
}

util::Result<UploadVerdictMsg> DecodeUploadVerdict(std::span<const uint8_t> payload) {
  util::ByteReader in(payload);
  return ReadUploadVerdict(in);
}

}  // namespace apichecker::fabric
