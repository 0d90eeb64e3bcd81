#include "apk/dex.h"

#include <algorithm>
#include <bit>

#include "util/byte_io.h"

namespace apichecker::apk {

namespace {
constexpr uint32_t kDexMagic = 0x4c584544;  // "DEXL" little-endian.
constexpr uint16_t kDexVersion = 1;
constexpr uint64_t kMaxTableEntries = 10'000'000;
// A table count must also fit in the bytes still unread, so a forged count is
// rejected before reserve() allocates for entries that are not there. A
// string or an index takes at least one ULEB byte; a behaviour record at
// least 8 (ULEB method, u32 rate, u8 activity, u8 flags, ULEB intent).
constexpr uint64_t kMinBehaviorBytes = 8;
}  // namespace

uint32_t DexFile::InternString(std::string_view s) {
  for (uint32_t i = 0; i < strings.size(); ++i) {
    if (strings[i] == s) {
      return i;
    }
  }
  strings.emplace_back(s);
  return static_cast<uint32_t>(strings.size() - 1);
}

std::vector<uint8_t> EncodeDex(const DexFile& dex) {
  util::ByteWriter writer;
  writer.PutU32(kDexMagic);
  writer.PutU16(kDexVersion);
  writer.PutU8(dex.runtime_flags);
  writer.PutU8(dex.crash_prob_q8);
  writer.PutU64(dex.behavior_seed);

  writer.PutUleb128(dex.strings.size());
  for (const std::string& s : dex.strings) {
    writer.PutString(s);
  }
  writer.PutUleb128(dex.method_name_idx.size());
  for (uint32_t idx : dex.method_name_idx) {
    writer.PutUleb128(idx);
  }
  writer.PutUleb128(dex.activity_class_idx.size());
  for (uint32_t idx : dex.activity_class_idx) {
    writer.PutUleb128(idx);
  }
  writer.PutUleb128(dex.behaviors.size());
  for (const DexBehavior& b : dex.behaviors) {
    writer.PutUleb128(b.method_idx);
    writer.PutU32(std::bit_cast<uint32_t>(b.invocations_per_kevent));
    writer.PutU8(b.activity);
    writer.PutU8(b.flags);
    // Intent index is stored +1 so "none" encodes as a single 0 byte.
    writer.PutUleb128(b.intent_string_idx == DexFile::kNoIntent
                          ? 0
                          : static_cast<uint64_t>(b.intent_string_idx) + 1);
  }
  return writer.TakeBytes();
}

util::Result<DexFile> ParseDex(std::span<const uint8_t> bytes) {
  util::ByteReader reader(bytes);
  auto magic = reader.ReadU32();
  if (!magic.ok() || *magic != kDexMagic) {
    return util::Err("bad dex magic");
  }
  auto version = reader.ReadU16();
  if (!version.ok() || *version != kDexVersion) {
    return util::Err("unsupported dex version");
  }
  DexFile dex;
  auto flags = reader.ReadU8();
  auto crash = reader.ReadU8();
  auto seed = reader.ReadU64();
  if (!flags.ok() || !crash.ok() || !seed.ok()) {
    return util::Err("truncated dex header");
  }
  dex.runtime_flags = *flags;
  dex.crash_prob_q8 = *crash;
  dex.behavior_seed = *seed;

  auto string_count = reader.ReadUleb128();
  if (!string_count.ok() ||
      *string_count > std::min<uint64_t>(kMaxTableEntries, reader.remaining())) {
    return util::Err("bad dex string pool size");
  }
  dex.strings.reserve(static_cast<size_t>(*string_count));
  for (uint64_t i = 0; i < *string_count; ++i) {
    auto s = reader.ReadString();
    if (!s.ok()) {
      return util::Err("truncated dex string pool");
    }
    dex.strings.push_back(std::move(*s));
  }

  auto read_index_list = [&](std::vector<uint32_t>& out, const char* what)
      -> util::Result<bool> {
    auto count = reader.ReadUleb128();
    if (!count.ok() || *count > std::min<uint64_t>(kMaxTableEntries, reader.remaining())) {
      return util::Err(std::string("bad dex table size: ") + what);
    }
    out.reserve(static_cast<size_t>(*count));
    for (uint64_t i = 0; i < *count; ++i) {
      auto idx = reader.ReadUleb128();
      if (!idx.ok()) {
        return util::Err(std::string("truncated dex table: ") + what);
      }
      if (*idx >= dex.strings.size()) {
        return util::Err(std::string("dex index out of range: ") + what);
      }
      out.push_back(static_cast<uint32_t>(*idx));
    }
    return true;
  };

  if (auto r = read_index_list(dex.method_name_idx, "methods"); !r.ok()) {
    return util::Err(r.error());
  }
  if (auto r = read_index_list(dex.activity_class_idx, "activities"); !r.ok()) {
    return util::Err(r.error());
  }

  auto behavior_count = reader.ReadUleb128();
  if (!behavior_count.ok() ||
      *behavior_count >
          std::min<uint64_t>(kMaxTableEntries, reader.remaining() / kMinBehaviorBytes)) {
    return util::Err("bad dex behavior table size");
  }
  dex.behaviors.reserve(static_cast<size_t>(*behavior_count));
  for (uint64_t i = 0; i < *behavior_count; ++i) {
    DexBehavior b;
    auto method_idx = reader.ReadUleb128();
    auto ipk = reader.ReadU32();
    auto activity = reader.ReadU8();
    auto flags = reader.ReadU8();
    auto intent = reader.ReadUleb128();
    if (!method_idx.ok() || !ipk.ok() || !activity.ok() || !flags.ok() || !intent.ok()) {
      return util::Err("truncated dex behavior record");
    }
    if (*method_idx >= dex.method_name_idx.size()) {
      return util::Err("dex behavior references unknown method");
    }
    if (*intent != 0 && *intent - 1 >= dex.strings.size()) {
      return util::Err("dex behavior references unknown intent string");
    }
    const float rate = std::bit_cast<float>(*ipk);
    // Written so that NaN fails too.
    if (!(rate >= 0.0f && rate <= DexBehavior::kMaxInvocationsPerKevent)) {
      return util::Err("dex behavior invocation rate out of range");
    }
    b.method_idx = static_cast<uint32_t>(*method_idx);
    b.invocations_per_kevent = rate;
    b.activity = *activity;
    b.flags = *flags;
    b.intent_string_idx =
        *intent == 0 ? DexFile::kNoIntent : static_cast<uint32_t>(*intent - 1);
    dex.behaviors.push_back(b);
  }
  return dex;
}

}  // namespace apichecker::apk
