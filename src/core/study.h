// The "collaborative study" pipeline of §4: run every corpus app through the
// dynamic-analysis engine with ALL framework APIs hooked, and keep a compact
// per-app observation record. Any smaller tracked set's feature vectors are
// then projections of these records, so the expensive emulation pass runs
// once per corpus.

#ifndef APICHECKER_CORE_STUDY_H_
#define APICHECKER_CORE_STUDY_H_

#include <cstdint>
#include <unordered_map>
#include <string>
#include <vector>

#include "android/api_universe.h"
#include "core/feature_schema.h"
#include "emu/engine.h"
#include "ml/dataset.h"
#include "synth/corpus.h"

namespace apichecker::core {

struct StudyRecord {
  std::vector<android::ApiId> observed_apis;  // Sorted; fired under track-all.
  std::vector<uint32_t> observed_api_counts;  // Parallel invocation counts.
  // Framework APIs referenced in the DEX method table (static view — what a
  // static analyzer extracts without running the app). Superset of
  // observed_apis except for reflection-hidden calls, which appear in
  // neither.
  std::vector<android::ApiId> static_apis;
  std::vector<android::PermissionId> permissions;
  std::vector<android::IntentId> manifest_intents;
  // Runtime intents with the API that carried them (visible in a projection
  // only when the carrier API is tracked).
  std::vector<std::pair<android::IntentId, android::ApiId>> runtime_intents;
  uint8_t label = 0;  // 1 = malicious ground truth.
  uint8_t is_update = 0;
  uint64_t total_invocations = 0;
  float rac = 0.0f;
  float base_minutes = 0.0f;  // Emulation time net of hook overhead.
  std::string package_name;
};

struct StudyDataset {
  std::vector<StudyRecord> records;

  size_t size() const { return records.size(); }
  size_t NumPositive() const;
};

struct StudyConfig {
  size_t num_apps = 20'000;
  emu::EngineConfig engine;  // Defaults: Google emulator, enhanced, 5K events.
};

// Builds StudyRecords from (apk, report) pairs: resolves manifest strings
// against the catalogues and extracts the static API view. Reusable by both
// the offline study and the market simulator's retraining sampler.
class StudyRecorder {
 public:
  StudyRecorder(const android::ApiUniverse& universe, const emu::EngineConfig& engine_config);

  StudyRecord BuildRecord(const apk::ApkFile& apk, const emu::EmulationReport& report) const;

 private:
  const android::ApiUniverse& universe_;
  double hook_minutes_per_invocation_ = 0.0;
  std::unordered_map<std::string, android::PermissionId> permission_ids_;
  std::unordered_map<std::string, android::IntentId> intent_ids_;
};

// Streams `config.num_apps` submissions from the generator through APK
// materialization -> parsing -> emulation (track-all) and collects records.
// The generator advances; calling again continues the submission stream.
StudyDataset RunStudy(const android::ApiUniverse& universe, synth::CorpusGenerator& generator,
                      const StudyConfig& config);

// Builds an ML dataset by projecting study records onto a schema. Runtime
// intents are included only when their carrier API is in the schema's
// tracked set (the §4.5 collection rule); manifest data is always visible.
ml::Dataset BuildDataset(const StudyDataset& study, const FeatureSchema& schema,
                         const android::ApiUniverse& universe);

}  // namespace apichecker::core

#endif  // APICHECKER_CORE_STUDY_H_
