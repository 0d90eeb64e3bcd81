// Unit tests for src/apk: the ZIP container codec, manifest and dex codecs,
// APK assembly/parsing, and tamper detection.

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "android/api_universe.h"
#include "apk/apk.h"
#include "apk/dex.h"
#include "apk/manifest.h"
#include "apk/zip.h"
#include "emu/engine.h"
#include "market/review_pipeline.h"
#include "util/byte_io.h"
#include "util/rng.h"

namespace apichecker::apk {
namespace {

std::vector<uint8_t> Bytes(const std::string& s) {
  return std::vector<uint8_t>(s.begin(), s.end());
}

TEST(Zip, RoundTripsEntries) {
  ZipWriter writer;
  writer.AddEntry("a.txt", Bytes("hello"));
  writer.AddEntry("dir/b.bin", Bytes(std::string(1000, 'x')));
  writer.AddEntry("empty", {});
  const auto archive = writer.Finish();

  auto reader = ZipReader::Parse(archive);
  ASSERT_TRUE(reader.ok()) << reader.error();
  EXPECT_EQ(reader->entries().size(), 3u);
  ASSERT_NE(reader->Find("a.txt"), nullptr);
  EXPECT_EQ(*reader->Find("a.txt"), Bytes("hello"));
  EXPECT_EQ(reader->Find("dir/b.bin")->size(), 1000u);
  EXPECT_TRUE(reader->Find("empty")->empty());
  EXPECT_EQ(reader->Find("missing"), nullptr);
}

class ZipManyEntries : public ::testing::TestWithParam<size_t> {};

TEST_P(ZipManyEntries, RoundTripsNEntries) {
  ZipWriter writer;
  for (size_t i = 0; i < GetParam(); ++i) {
    writer.AddEntry("entry" + std::to_string(i), Bytes(std::string(i % 50, 'a' + i % 26)));
  }
  const auto archive = writer.Finish();
  auto reader = ZipReader::Parse(archive);
  ASSERT_TRUE(reader.ok()) << reader.error();
  EXPECT_EQ(reader->entries().size(), GetParam());
}

INSTANTIATE_TEST_SUITE_P(Sizes, ZipManyEntries, ::testing::Values(1, 2, 17, 100));

TEST(Zip, DetectsCrcCorruption) {
  ZipWriter writer;
  writer.AddEntry("a", Bytes("payload-payload"));
  auto archive = writer.Finish();
  // Flip one payload byte (local header is 30 bytes + 1 name byte).
  archive[35] ^= 0xFF;
  const auto reader = ZipReader::Parse(archive);
  ASSERT_FALSE(reader.ok());
  EXPECT_NE(reader.error().find("CRC"), std::string::npos);
}

TEST(Zip, RejectsTruncatedAndGarbage) {
  EXPECT_FALSE(ZipReader::Parse({}).ok());
  const auto garbage = Bytes(std::string(64, 'z'));
  EXPECT_FALSE(ZipReader::Parse(garbage).ok());
  ZipWriter writer;
  writer.AddEntry("a", Bytes("x"));
  auto archive = writer.Finish();
  archive.resize(archive.size() - 4);  // Chop the EOCD tail.
  EXPECT_FALSE(ZipReader::Parse(archive).ok());
}

// --- Hostile-input suite: attacker-shaped archives must come back as Result
// errors, never crashes or out-of-range reads (ci.sh runs these under ASan).

// Overwrites the little-endian u32 at `offset`.
void PutU32At(std::vector<uint8_t>& bytes, size_t offset, uint32_t value) {
  ASSERT_LE(offset + 4, bytes.size());
  bytes[offset] = static_cast<uint8_t>(value & 0xFF);
  bytes[offset + 1] = static_cast<uint8_t>((value >> 8) & 0xFF);
  bytes[offset + 2] = static_cast<uint8_t>((value >> 16) & 0xFF);
  bytes[offset + 3] = static_cast<uint8_t>((value >> 24) & 0xFF);
}

// One-entry archive plus the offsets an attacker would aim at. The EOCD is the
// last 22 bytes (no comment); its central_size/central_offset u32s sit at
// EOCD+12 and EOCD+16. The entry's central record starts at central_offset;
// its uncompressed-size field is 24 bytes in.
struct HostileArchive {
  std::vector<uint8_t> bytes;
  size_t eocd;
  size_t central;

  static HostileArchive Make() {
    ZipWriter writer;
    writer.AddEntry("a.txt", Bytes("attack surface payload"));
    HostileArchive archive;
    archive.bytes = writer.Finish();
    archive.eocd = archive.bytes.size() - 22;
    archive.central = archive.eocd - 46 - 5;  // One record + "a.txt".
    return archive;
  }
};

TEST(ZipHostile, ZeroEntryArchiveRejected) {
  ZipWriter writer;
  const auto archive = writer.Finish();  // Structurally valid, zero entries.
  const auto reader = ZipReader::Parse(archive);
  ASSERT_FALSE(reader.ok());
  EXPECT_NE(reader.error().find("zero-entry"), std::string::npos);
}

TEST(ZipHostile, TruncatedCentralDirectoryRejected) {
  // Shrinking the advertised central size truncates the record mid-field.
  HostileArchive archive = HostileArchive::Make();
  PutU32At(archive.bytes, archive.eocd + 12, 10);
  EXPECT_FALSE(ZipReader::Parse(archive.bytes).ok());

  // Growing it past the archive end must be caught by the bounds check.
  HostileArchive oversized = HostileArchive::Make();
  PutU32At(oversized.bytes, oversized.eocd + 12, 1u << 20);
  const auto reader = ZipReader::Parse(oversized.bytes);
  ASSERT_FALSE(reader.ok());
  EXPECT_NE(reader.error().find("out of bounds"), std::string::npos);
}

TEST(ZipHostile, Eocd32BitWrapDoesNotBypassBoundsCheck) {
  // offset + size wraps past 2^32 to a small number: with 32-bit arithmetic
  // the bounds check would pass and the subspan would read out of range.
  HostileArchive archive = HostileArchive::Make();
  PutU32At(archive.bytes, archive.eocd + 16, 0xFFFFFFF0u);  // central_offset
  PutU32At(archive.bytes, archive.eocd + 12, 0x20u);        // central_size
  const auto reader = ZipReader::Parse(archive.bytes);
  ASSERT_FALSE(reader.ok());
  EXPECT_NE(reader.error().find("out of bounds"), std::string::npos);
}

TEST(ZipHostile, TornLocalHeaderRejected) {
  // Corrupt the local header signature the central record points at.
  HostileArchive torn = HostileArchive::Make();
  torn.bytes[0] ^= 0xFF;
  auto reader = ZipReader::Parse(torn.bytes);
  ASSERT_FALSE(reader.ok());
  EXPECT_NE(reader.error().find("local header"), std::string::npos);

  // Point the central record's local-header offset past the archive.
  HostileArchive wild = HostileArchive::Make();
  PutU32At(wild.bytes, wild.central + 42, 1u << 24);
  reader = ZipReader::Parse(wild.bytes);
  ASSERT_FALSE(reader.ok());
  EXPECT_NE(reader.error().find("offset out of bounds"), std::string::npos);
}

TEST(ZipHostile, EntrySizeOverrunRejected) {
  // Inflate the uncompressed size so extraction would run past the payload
  // into the central directory and beyond.
  HostileArchive archive = HostileArchive::Make();
  PutU32At(archive.bytes, archive.central + 24, 1u << 16);
  const auto reader = ZipReader::Parse(archive.bytes);
  ASSERT_FALSE(reader.ok());
  // Either the data read or the CRC cross-check trips — both are clean errors.
}

TEST(ZipHostile, CrcMismatchNamesTheEntry) {
  HostileArchive archive = HostileArchive::Make();
  // Flip one payload byte (30-byte local header + 5-byte name).
  archive.bytes[35] ^= 0xFF;
  const auto reader = ZipReader::Parse(archive.bytes);
  ASSERT_FALSE(reader.ok());
  EXPECT_NE(reader.error().find("CRC mismatch"), std::string::npos);
  EXPECT_NE(reader.error().find("a.txt"), std::string::npos);
}

TEST(Manifest, RoundTrips) {
  Manifest m;
  m.package_name = "com.example.app";
  m.version_code = 42;
  m.min_sdk = 21;
  m.target_sdk = 27;
  m.permissions = {"android.permission.SEND_SMS", "android.permission.INTERNET"};
  m.activities = {"com.example.app.ui.Activity0", "com.example.app.ui.Activity1"};
  m.intent_filters = {"android.provider.Telephony.SMS_RECEIVED"};
  const auto bytes = EncodeManifest(m);
  auto parsed = ParseManifest(bytes);
  ASSERT_TRUE(parsed.ok()) << parsed.error();
  EXPECT_EQ(*parsed, m);
}

TEST(Manifest, EmptyListsRoundTrip) {
  Manifest m;
  m.package_name = "a";
  auto parsed = ParseManifest(EncodeManifest(m));
  ASSERT_TRUE(parsed.ok());
  EXPECT_TRUE(parsed->permissions.empty());
  EXPECT_TRUE(parsed->activities.empty());
}

TEST(Manifest, RejectsBadMagicAndTruncation) {
  EXPECT_FALSE(ParseManifest(Bytes("not a manifest")).ok());
  Manifest m;
  m.package_name = "com.x";
  m.permissions = {"p1", "p2"};
  auto bytes = EncodeManifest(m);
  bytes.resize(bytes.size() - 1);
  EXPECT_FALSE(ParseManifest(bytes).ok());
}

DexFile MakeDex() {
  DexFile dex;
  dex.behavior_seed = 0xfeed;
  dex.crash_prob_q8 = 12;
  dex.runtime_flags = DexFile::kFlagDetectsEmulator | DexFile::kFlagNativeCode;
  const uint32_t s_api = dex.InternString("android.telephony.SmsManager.sendTextMessage");
  const uint32_t s_cls = dex.InternString("com.x.ui.Activity0");
  const uint32_t s_intent = dex.InternString("android.intent.action.SENDTO");
  dex.method_name_idx.push_back(s_api);
  dex.activity_class_idx.push_back(s_cls);
  DexBehavior b;
  b.method_idx = 0;
  b.invocations_per_kevent = 6.5f;
  b.activity = 0;
  b.flags = DexBehavior::kFlagGuarded;
  b.intent_string_idx = s_intent;
  dex.behaviors.push_back(b);
  DexBehavior b2;
  b2.method_idx = 0;
  b2.invocations_per_kevent = 1.0f;
  dex.behaviors.push_back(b2);
  return dex;
}

TEST(Dex, RoundTrips) {
  const DexFile dex = MakeDex();
  auto parsed = ParseDex(EncodeDex(dex));
  ASSERT_TRUE(parsed.ok()) << parsed.error();
  EXPECT_EQ(parsed->strings, dex.strings);
  EXPECT_EQ(parsed->method_name_idx, dex.method_name_idx);
  EXPECT_EQ(parsed->activity_class_idx, dex.activity_class_idx);
  ASSERT_EQ(parsed->behaviors.size(), 2u);
  EXPECT_EQ(parsed->behaviors[0].intent_string_idx, dex.behaviors[0].intent_string_idx);
  EXPECT_TRUE(parsed->behaviors[0].guarded());
  EXPECT_FALSE(parsed->behaviors[0].sensor_gated());
  EXPECT_EQ(parsed->behaviors[1].intent_string_idx, DexFile::kNoIntent);
  EXPECT_FLOAT_EQ(parsed->behaviors[0].invocations_per_kevent, 6.5f);
  EXPECT_TRUE(parsed->detects_emulator());
  EXPECT_TRUE(parsed->has_native_code());
  EXPECT_FALSE(parsed->needs_real_sensors());
  EXPECT_NEAR(parsed->crash_probability(), 12.0 / 255.0, 1e-9);
  EXPECT_EQ(parsed->MethodName(0), "android.telephony.SmsManager.sendTextMessage");
}

TEST(Dex, InternStringDeduplicates) {
  DexFile dex;
  const uint32_t a = dex.InternString("x");
  const uint32_t b = dex.InternString("y");
  const uint32_t c = dex.InternString("x");
  EXPECT_EQ(a, c);
  EXPECT_NE(a, b);
  EXPECT_EQ(dex.strings.size(), 2u);
}

TEST(Dex, RejectsOutOfRangeIndices) {
  DexFile dex = MakeDex();
  dex.method_name_idx.push_back(99);  // Points past the string pool.
  EXPECT_FALSE(ParseDex(EncodeDex(dex)).ok());

  DexFile dex2 = MakeDex();
  dex2.behaviors[0].method_idx = 5;  // Points past the method table.
  EXPECT_FALSE(ParseDex(EncodeDex(dex2)).ok());

  DexFile dex3 = MakeDex();
  dex3.behaviors[0].intent_string_idx = 1000;  // Unknown intent string.
  EXPECT_FALSE(ParseDex(EncodeDex(dex3)).ok());
}

TEST(Dex, RejectsBadMagic) {
  EXPECT_FALSE(ParseDex(Bytes("DEXBAD")).ok());
}

// Hand-encoded dex: a valid header, the given table counts in file order
// (strings, methods, activities, behaviours), then `tail` zero bytes.
std::vector<uint8_t> DexWithCounts(const std::vector<uint64_t>& counts, size_t tail) {
  util::ByteWriter writer;
  writer.PutU32(0x4c584544);  // "DEXL"
  writer.PutU16(1);
  writer.PutU16(0);  // Runtime flags, crash probability.
  writer.PutU64(0);  // Behaviour seed.
  for (uint64_t count : counts) {
    writer.PutUleb128(count);
  }
  for (size_t i = 0; i < tail; ++i) {
    writer.PutU8(0);
  }
  return writer.TakeBytes();
}

TEST(Dex, RejectsTableCountsBeyondTheBytesLeft) {
  // 10M entries declared a few bytes before the end: each table is refused
  // by its size check, before anything is reserved for it.
  constexpr uint64_t kTenMillion = 10'000'000;
  const struct {
    std::vector<uint64_t> counts;
    const char* error;
  } cases[] = {
      {{kTenMillion}, "bad dex string pool size"},
      {{0, kTenMillion}, "bad dex table size: methods"},
      {{0, 0, kTenMillion}, "bad dex table size: activities"},
      {{0, 0, 0, kTenMillion}, "bad dex behavior table size"},
  };
  for (const auto& c : cases) {
    auto parsed = ParseDex(DexWithCounts(c.counts, 64));
    ASSERT_FALSE(parsed.ok()) << c.error;
    EXPECT_EQ(parsed.error(), c.error);
  }
  // The bound is the bytes left: 64 empty strings fit in 64 bytes (plus the
  // three empty tables after them), 68 do not fit in 67.
  auto fits = ParseDex(DexWithCounts({64}, 64 + 3));
  ASSERT_TRUE(fits.ok()) << fits.error();
  EXPECT_EQ(fits->strings.size(), 64u);
  auto overflows = ParseDex(DexWithCounts({68}, 67));
  ASSERT_FALSE(overflows.ok());
  EXPECT_EQ(overflows.error(), "bad dex string pool size");
}

TEST(Apk, RoundTripsWithNativeLib) {
  Manifest m;
  m.package_name = "com.x";
  m.version_code = 3;
  m.permissions = {"android.permission.INTERNET"};
  const DexFile dex = MakeDex();

  const auto bytes = BuildApk(m, dex, /*include_native_lib=*/true);
  auto apk = ParseApk(bytes);
  ASSERT_TRUE(apk.ok()) << apk.error();
  EXPECT_EQ(apk->manifest, m);
  EXPECT_EQ(apk->dex.strings, dex.strings);
  EXPECT_TRUE(apk->has_native_lib);
  EXPECT_EQ(apk->digest.size(), 32u);
}

TEST(Apk, OmitsNativeLibWhenNotRequested) {
  Manifest m;
  m.package_name = "com.x";
  auto apk = ParseApk(BuildApk(m, MakeDex(), false));
  ASSERT_TRUE(apk.ok());
  EXPECT_FALSE(apk->has_native_lib);
}

TEST(Apk, DigestChangesWithContent) {
  Manifest m;
  m.package_name = "com.x";
  m.version_code = 1;
  const DexFile dex = MakeDex();
  auto apk1 = ParseApk(BuildApk(m, dex, false));
  m.version_code = 2;  // Same code, bumped version: different APK identity.
  auto apk2 = ParseApk(BuildApk(m, dex, false));
  ASSERT_TRUE(apk1.ok());
  ASSERT_TRUE(apk2.ok());
  EXPECT_NE(apk1->digest, apk2->digest);
}

TEST(Apk, DetectsTamperedDex) {
  Manifest m;
  m.package_name = "com.x";
  auto bytes = BuildApk(m, MakeDex(), false);
  // Re-assemble the archive with a modified dex but the old signature entry.
  auto reader = ZipReader::Parse(bytes);
  ASSERT_TRUE(reader.ok());
  DexFile tampered = MakeDex();
  tampered.crash_prob_q8 = 200;
  ZipWriter writer;
  for (const ZipEntry& entry : reader->entries()) {
    if (entry.name == kDexEntry) {
      writer.AddEntry(entry.name, EncodeDex(tampered));
    } else {
      writer.AddEntry(entry.name, entry.data);
    }
  }
  const auto result = ParseApk(writer.Finish());
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.error().find("digest"), std::string::npos);
}

TEST(Apk, PadApkGrowsToTargetAndStillParses) {
  Manifest m;
  m.package_name = "com.x";
  const auto original = BuildApk(m, MakeDex(), /*include_native_lib=*/false);
  ASSERT_LT(original.size(), 64u * 1024);

  auto padded = PadApk(original, 64 * 1024, /*seed=*/9);
  ASSERT_TRUE(padded.ok()) << padded.error();
  EXPECT_GE(padded->size(), 63u * 1024);  // Within the entry-overhead slack.
  EXPECT_LE(padded->size(), 65u * 1024);

  // The signature digest covers only manifest+dex, so padding never breaks
  // parsing — and the parsed identity digest is unchanged.
  auto before = ParseApk(original);
  auto after = ParseApk(*padded);
  ASSERT_TRUE(before.ok());
  ASSERT_TRUE(after.ok()) << after.error();
  EXPECT_EQ(before->digest, after->digest);
  EXPECT_EQ(after->manifest, m);

  // Deterministic: same seed, same bytes; the filler entry is present.
  auto again = PadApk(original, 64 * 1024, /*seed=*/9);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(*padded, *again);
  auto zip = ZipReader::Parse(*padded);
  ASSERT_TRUE(zip.ok());
  EXPECT_NE(zip->Find("assets/padding.bin"), nullptr);
}

TEST(Apk, PadApkIsANoOpAtOrAboveTarget) {
  Manifest m;
  m.package_name = "com.x";
  const auto original = BuildApk(m, MakeDex(), false);
  auto padded = PadApk(original, original.size() / 2, 1);
  ASSERT_TRUE(padded.ok());
  EXPECT_EQ(*padded, original);  // Already large enough: bytes unchanged.
  EXPECT_FALSE(PadApk(Bytes("not a zip"), 4096, 1).ok());
}

TEST(Apk, RejectsOutOfRangeInvocationRates) {
  // Each rate is signed into a valid package, so only the dex range check
  // stands between it and the engine's float->int casts.
  Manifest m;
  m.package_name = "com.x";
  const float cap = DexBehavior::kMaxInvocationsPerKevent;
  const float inf = std::numeric_limits<float>::infinity();
  for (float rate : {std::numeric_limits<float>::quiet_NaN(), inf, -inf, -1.0f, 3e38f,
                     std::nextafter(cap, inf), 0.0f, cap}) {
    DexFile dex = MakeDex();
    dex.behaviors[1].invocations_per_kevent = rate;
    auto apk = ParseApk(BuildApk(m, dex, false));
    const bool in_range = rate == 0.0f || rate == cap;
    ASSERT_EQ(apk.ok(), in_range) << "rate " << rate;
    if (!in_range) {
      EXPECT_EQ(apk.error(), "apk dex: dex behavior invocation rate out of range");
    }
  }
}

TEST(Apk, MissingEntriesRejected) {
  ZipWriter writer;
  writer.AddEntry("random.txt", Bytes("x"));
  EXPECT_FALSE(ParseApk(writer.Finish()).ok());
}

// Property test: random single-byte corruptions of a valid APK must never
// crash the parser — every mutation either still parses (rare; e.g. a flip
// in the unused date fields) or returns a structured error.
class ApkMutationRobustness : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ApkMutationRobustness, ParserNeverCrashes) {
  Manifest m;
  m.package_name = "com.fuzz.target";
  m.permissions = {"android.permission.INTERNET", "android.permission.SEND_SMS"};
  m.activities = {"com.fuzz.target.ui.Activity0"};
  const auto pristine = BuildApk(m, MakeDex(), true);

  util::Rng rng(GetParam());
  for (int trial = 0; trial < 300; ++trial) {
    auto mutated = pristine;
    const size_t flips = 1 + rng.NextBounded(4);
    for (size_t f = 0; f < flips; ++f) {
      mutated[rng.NextBounded(mutated.size())] ^=
          static_cast<uint8_t>(1u << rng.NextBounded(8));
    }
    const auto result = ParseApk(mutated);  // Must not crash or hang.
    if (result.ok()) {
      EXPECT_FALSE(result->manifest.package_name.empty());
    } else {
      EXPECT_FALSE(result.error().empty());
    }
  }
  // Truncations at every prefix length are equally survivable.
  for (size_t len = 0; len < pristine.size(); len += 97) {
    const std::vector<uint8_t> prefix(pristine.begin(),
                                      pristine.begin() + static_cast<ptrdiff_t>(len));
    (void)ParseApk(prefix);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ApkMutationRobustness, ::testing::Values(1, 2, 3, 4, 5));

// Wraps a manifest and a (possibly mutated) dex into a correctly signed
// package: fresh ZIP CRCs and a recomputed content digest.
std::vector<uint8_t> ResignApk(std::span<const uint8_t> manifest_bytes,
                               std::span<const uint8_t> dex_bytes) {
  std::vector<uint8_t> digest_input(manifest_bytes.begin(), manifest_bytes.end());
  digest_input.insert(digest_input.end(), dex_bytes.begin(), dex_bytes.end());
  ZipWriter writer;
  writer.AddEntry(kManifestEntry, manifest_bytes);
  writer.AddEntry(kDexEntry, dex_bytes);
  writer.AddEntry(kSignatureEntry, Bytes(ContentDigest(digest_input)));
  return writer.Finish();
}

// The same property past the checksums: each mutated dex is re-signed, so it
// reaches ParseDex, and whatever parses is run through the engine and the
// fingerprint. Half the mutations give a behaviour a hostile rate; a UBSan
// build stops on any out-of-range cast.
class ApkResignedMutationRobustness : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ApkResignedMutationRobustness, ParsedPackagesStayInRangeDownstream) {
  static const android::ApiUniverse universe =
      android::ApiUniverse::Generate({.num_apis = 2'000});
  const emu::DynamicAnalysisEngine engine(universe, emu::EngineConfig{});
  const emu::TrackedApiSet tracked = emu::TrackedApiSet::All(universe.num_apis());

  Manifest m;
  m.package_name = "com.fuzz.target";
  const std::vector<uint8_t> manifest_bytes = EncodeManifest(m);
  const float inf = std::numeric_limits<float>::infinity();
  const float hostile_rates[] = {inf, -inf, std::numeric_limits<float>::quiet_NaN(),
                                 3e38f, -1.0f, 2e9f};

  util::Rng rng(GetParam());
  size_t parsed = 0, rejected = 0;
  for (int trial = 0; trial < 300; ++trial) {
    DexFile dex = MakeDex();
    if (rng.Bernoulli(0.5)) {
      dex.behaviors[rng.NextBounded(dex.behaviors.size())].invocations_per_kevent =
          hostile_rates[rng.NextBounded(std::size(hostile_rates))];
    }
    std::vector<uint8_t> mutated = EncodeDex(dex);
    const size_t flips = rng.NextBounded(4);
    for (size_t f = 0; f < flips; ++f) {
      mutated[rng.NextBounded(mutated.size())] ^= static_cast<uint8_t>(1u << rng.NextBounded(8));
    }
    const auto result = ParseApk(ResignApk(manifest_bytes, mutated));
    if (!result.ok()) {
      EXPECT_FALSE(result.error().empty());
      ++rejected;
      continue;
    }
    ++parsed;
    for (const DexBehavior& b : result->dex.behaviors) {
      EXPECT_TRUE(b.invocations_per_kevent >= 0.0f &&
                  b.invocations_per_kevent <= DexBehavior::kMaxInvocationsPerKevent)
          << "parsed rate " << b.invocations_per_kevent;
    }
    (void)engine.Run(*result, tracked);
    (void)market::CodeFingerprint(result->dex);
  }
  EXPECT_GT(parsed, 0u);
  EXPECT_GT(rejected, 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ApkResignedMutationRobustness,
                         ::testing::Values(1, 2, 3, 4, 5));

TEST(Apk, ContentDigestIsStableAndSensitive) {
  const auto a = ContentDigest(Bytes("abc"));
  const auto b = ContentDigest(Bytes("abc"));
  const auto c = ContentDigest(Bytes("abd"));
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  EXPECT_EQ(a.size(), 32u);
}

// The two-span form digests its parts as if they were concatenated, wherever
// the split falls.
TEST(Apk, TwoSpanDigestEqualsDigestOfTheConcatenation) {
  const std::vector<uint8_t> whole = Bytes("AndroidManifest then classes.dex");
  const std::string want = ContentDigest(whole);
  for (size_t split = 0; split <= whole.size(); ++split) {
    const std::span<const uint8_t> bytes(whole);
    EXPECT_EQ(ContentDigest(bytes.first(split), bytes.subspan(split)), want) << split;
  }
}

// ParseApk reads the archive in place, so nothing it returns may point back
// into the input: the parsed file must stay whole after its bytes are
// overwritten and freed (under ASan an escaped view reads freed memory).
TEST(Apk, ParsedFileOutlivesItsBytes) {
  Manifest m;
  m.package_name = "com.outlives";
  m.permissions = {"android.permission.INTERNET", "android.permission.SEND_SMS"};
  m.activities = {"com.outlives.Main", "com.outlives.Settings"};
  m.intent_filters = {"android.intent.action.BOOT_COMPLETED"};
  const DexFile dex = MakeDex();
  const std::vector<uint8_t> built = BuildApk(m, dex, /*include_native_lib=*/true);

  auto heap = std::make_unique<uint8_t[]>(built.size());
  std::copy(built.begin(), built.end(), heap.get());
  auto apk = ParseApk(std::span<const uint8_t>(heap.get(), built.size()));
  ASSERT_TRUE(apk.ok()) << apk.error();
  std::fill(heap.get(), heap.get() + built.size(), uint8_t{0xa5});
  heap.reset();

  EXPECT_EQ(apk->manifest, m);
  EXPECT_EQ(apk->dex.strings, dex.strings);
  for (uint32_t i = 0; i < apk->dex.method_name_idx.size(); ++i) {
    EXPECT_EQ(apk->dex.MethodName(i), dex.MethodName(i));
  }
  EXPECT_TRUE(apk->has_native_lib);
  EXPECT_EQ(apk->digest, ContentDigest(EncodeManifest(m), EncodeDex(dex)));
}

}  // namespace
}  // namespace apichecker::apk
