// High-level APK assembly and parsing: an APK is a ZIP archive holding
// AndroidManifest.xml (binary manifest), classes.dex, an optional native
// library, and a META-INF signature entry carrying a content digest (the
// MD5-hash role from the paper §4.1: same package name + different digest
// counts as a different app).

#ifndef APICHECKER_APK_APK_H_
#define APICHECKER_APK_APK_H_

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "apk/dex.h"
#include "apk/manifest.h"
#include "util/result.h"

namespace apichecker::apk {

inline constexpr char kManifestEntry[] = "AndroidManifest.xml";
inline constexpr char kDexEntry[] = "classes.dex";
inline constexpr char kNativeLibEntry[] = "lib/armeabi-v7a/libnative.so";
inline constexpr char kSignatureEntry[] = "META-INF/CERT.SF";

struct ApkFile {
  Manifest manifest;
  DexFile dex;
  bool has_native_lib = false;
  std::string digest;  // Hex content digest from the signature entry.
};

// 128-bit content digest rendered as 32 hex chars.
std::string ContentDigest(std::span<const uint8_t> bytes);
// The digest of `first` followed by `second`, without concatenating them: an
// APK's signature digest covers its manifest then its dex.
std::string ContentDigest(std::span<const uint8_t> first, std::span<const uint8_t> second);

// Serializes the package into APK (ZIP) bytes. When `include_native_lib` is
// set a small ARM-flavoured stub library is embedded (its presence is what
// the pipeline's native-code handling keys on).
std::vector<uint8_t> BuildApk(const Manifest& manifest, const DexFile& dex,
                              bool include_native_lib);

// Parses, validating container structure, entry CRCs, the manifest/dex
// codecs, and the signature digest.
util::Result<ApkFile> ParseApk(std::span<const uint8_t> bytes);

// Rewrites a valid APK with an extra `assets/padding.bin` entry so the
// archive grows to roughly `target_bytes` (deterministic filler seeded by
// `seed`). The signature digest covers only manifest+dex, so the padded APK
// still parses; only its byte-level SHA-1 changes. Used to synthesize
// market-realistic large APKs for ingest benchmarks and the ci.sh
// admission-latency smoke. No-op (returns the original bytes) when the APK
// is already at least `target_bytes`.
util::Result<std::vector<uint8_t>> PadApk(std::span<const uint8_t> bytes,
                                          size_t target_bytes, uint64_t seed = 1);

}  // namespace apichecker::apk

#endif  // APICHECKER_APK_APK_H_
