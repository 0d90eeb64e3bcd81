// classes.dex analogue. Like real DEX, the file carries a string pool and a
// method-reference table; framework API references are strings resolved by
// the consumer. On top of that, the code section carries *behaviour records*:
// the ground-truth runtime behaviour that the emulation simulator interprets
// (which API a call site invokes, how often per 1K Monkey events, which
// Activity must be reached to trigger it, and which Intent action — if any —
// the invocation passes as a parameter).
//
// Reflection-based evasion (paper §4.5) is represented by *absence*: an app
// that triggers functionality through hidden/internal APIs has no behaviour
// record and no method-table entry for it — only the prerequisite permission
// in its manifest, exactly the blind spot the paper closes with auxiliary
// features.

#ifndef APICHECKER_APK_DEX_H_
#define APICHECKER_APK_DEX_H_

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "util/result.h"

namespace apichecker::apk {

struct DexBehavior {
  static constexpr uint8_t kFlagGuarded = 0x01;      // Wrapped in an emulator check.
  static constexpr uint8_t kFlagSensorGated = 0x02;  // Requires live sensor input.
  // Largest invocation rate ParseDex accepts. It keeps the engine's
  // rate * events / 1000 (events a uint32_t) and CodeFingerprint's rate * 16
  // casts to uint64_t in range, and sits over 100x above any synthetic rate.
  static constexpr float kMaxInvocationsPerKevent = 1e9f;

  uint32_t method_idx = 0;             // Index into DexFile::method_name_idx.
  float invocations_per_kevent = 0.0f;
  uint8_t activity = 0xFF;             // Gating activity ordinal; 0xFF = app-level.
  uint8_t flags = 0;
  uint32_t intent_string_idx = 0xFFFFFFFF;  // String-pool index or kNoIntent.

  bool guarded() const { return flags & kFlagGuarded; }
  bool sensor_gated() const { return flags & kFlagSensorGated; }
};

struct DexFile {
  static constexpr uint32_t kNoIntent = 0xFFFFFFFF;
  static constexpr uint8_t kAppLevelActivity = 0xFF;
  static constexpr uint8_t kFlagDetectsEmulator = 0x01;
  static constexpr uint8_t kFlagNativeCode = 0x02;
  static constexpr uint8_t kFlagNeedsRealSensors = 0x04;

  std::vector<std::string> strings;           // String pool.
  std::vector<uint32_t> method_name_idx;      // Referenced framework methods.
  std::vector<uint32_t> activity_class_idx;   // Code-referenced activity classes.
  std::vector<DexBehavior> behaviors;
  uint8_t runtime_flags = 0;
  uint8_t crash_prob_q8 = 0;                  // Crash probability * 255.
  uint64_t behavior_seed = 0;                 // Per-app runtime noise seed.

  // Interns a string, returning its pool index (deduplicating).
  uint32_t InternString(std::string_view s);

  const std::string& MethodName(uint32_t method_idx) const {
    return strings.at(method_name_idx.at(method_idx));
  }

  bool detects_emulator() const { return runtime_flags & kFlagDetectsEmulator; }
  bool has_native_code() const { return runtime_flags & kFlagNativeCode; }
  bool needs_real_sensors() const { return runtime_flags & kFlagNeedsRealSensors; }
  double crash_probability() const { return crash_prob_q8 / 255.0; }
};

std::vector<uint8_t> EncodeDex(const DexFile& dex);

// Parses and structurally validates: all indices in range, every table
// count within what the remaining bytes can hold, and every invocation rate
// finite, non-negative and at most DexBehavior::kMaxInvocationsPerKevent.
util::Result<DexFile> ParseDex(std::span<const uint8_t> bytes);

}  // namespace apichecker::apk

#endif  // APICHECKER_APK_DEX_H_
