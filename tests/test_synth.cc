// Unit tests for src/synth: behaviour templates, the corpus generator
// (determinism, lineages, evasion mechanics), and APK materialization.

#include <algorithm>
#include <map>
#include <set>

#include <gtest/gtest.h>

#include "android/api_universe.h"
#include "apk/apk.h"
#include "apk/dex.h"
#include "synth/behavior_templates.h"
#include "synth/corpus.h"

namespace apichecker::synth {
namespace {

const android::ApiUniverse& TestUniverse() {
  static const android::ApiUniverse universe = [] {
    android::UniverseConfig config;
    config.num_apis = 6'000;
    return android::ApiUniverse::Generate(config);
  }();
  return universe;
}

TEST(BehaviorTemplates, BenignArchetypesAreBenign) {
  const auto archetypes = BuildBenignArchetypes(TestUniverse(), 1);
  EXPECT_EQ(archetypes.size(), 12u);
  for (const auto& t : archetypes) {
    EXPECT_FALSE(t.malicious);
    EXPECT_FALSE(t.name.empty());
    EXPECT_GT(t.mean_activities, 0.0);
  }
}

TEST(BehaviorTemplates, MalwareFamiliesCarrySignal) {
  const auto families = BuildMalwareFamilies(TestUniverse(), 1);
  EXPECT_EQ(families.size(), 16u);
  for (const auto& t : families) {
    EXPECT_TRUE(t.malicious);
    EXPECT_FALSE(t.characteristic_apis.empty());
    EXPECT_LT(t.common_op_scale, 1.0);  // Malware underuses common plumbing.
  }
}

TEST(BehaviorTemplates, FamiliesAreDistinct) {
  const auto families = BuildMalwareFamilies(TestUniverse(), 1);
  std::set<android::ApiId> apis_a, apis_b;
  for (const auto& wa : families[0].characteristic_apis) {
    apis_a.insert(wa.api);
  }
  for (const auto& wa : families[1].characteristic_apis) {
    apis_b.insert(wa.api);
  }
  std::vector<android::ApiId> symmetric_difference;
  std::set_symmetric_difference(apis_a.begin(), apis_a.end(), apis_b.begin(), apis_b.end(),
                                std::back_inserter(symmetric_difference));
  EXPECT_GT(symmetric_difference.size(), 20u);
}

TEST(BehaviorTemplates, GraywareDilutesParent) {
  const auto families = BuildMalwareFamilies(TestUniverse(), 1);
  const BehaviorTemplate gray = MakeGraywareArchetype(families[6], 3);
  EXPECT_FALSE(gray.malicious);
  EXPECT_LT(gray.population_weight, 1.0);
  ASSERT_EQ(gray.characteristic_apis.size(), families[6].characteristic_apis.size());
  for (size_t i = 0; i < gray.characteristic_apis.size(); ++i) {
    EXPECT_LT(gray.characteristic_apis[i].use_probability,
              families[6].characteristic_apis[i].use_probability);
  }
}

TEST(CorpusGenerator, DeterministicStream) {
  CorpusConfig config;
  config.seed = 99;
  CorpusGenerator a(TestUniverse(), config);
  CorpusGenerator b(TestUniverse(), config);
  for (int i = 0; i < 50; ++i) {
    const AppProfile pa = a.Next();
    const AppProfile pb = b.Next();
    EXPECT_EQ(pa.package_name, pb.package_name);
    EXPECT_EQ(pa.malicious, pb.malicious);
    EXPECT_EQ(pa.usage.size(), pb.usage.size());
    EXPECT_EQ(pa.behavior_seed, pb.behavior_seed);
  }
}

TEST(CorpusGenerator, MaliciousFractionApproximatesConfig) {
  CorpusConfig config;
  config.num_apps = 3'000;
  CorpusGenerator gen(TestUniverse(), config);
  size_t malicious = 0;
  for (const AppProfile& p : gen.GenerateAll()) {
    malicious += p.malicious;
  }
  EXPECT_NEAR(static_cast<double>(malicious) / 3'000.0, config.malicious_fraction, 0.02);
}

TEST(CorpusGenerator, UpdatesShareLineage) {
  CorpusConfig config;
  config.update_fraction = 0.9;
  CorpusGenerator gen(TestUniverse(), config);
  std::map<std::string, uint32_t> last_version;
  std::map<std::string, bool> label;
  int updates = 0;
  for (int i = 0; i < 400; ++i) {
    const AppProfile p = gen.Next();
    if (p.is_update) {
      ++updates;
      ASSERT_TRUE(last_version.count(p.package_name));
      EXPECT_GT(p.version_code, last_version[p.package_name]);
      // Updates never flip the ground-truth label of a lineage.
      EXPECT_EQ(label[p.package_name], p.malicious);
    }
    last_version[p.package_name] = p.version_code;
    label[p.package_name] = p.malicious;
  }
  EXPECT_GT(updates, 250);
}

TEST(CorpusGenerator, ActivitiesReferencedSubsetDeclared) {
  CorpusConfig config;
  CorpusGenerator gen(TestUniverse(), config);
  for (int i = 0; i < 200; ++i) {
    const AppProfile p = gen.Next();
    EXPECT_GE(p.num_activities, 1);
    EXPECT_GE(p.num_referenced_activities, 1);
    EXPECT_LE(p.num_referenced_activities, p.num_activities);
    for (const ApiUsage& usage : p.usage) {
      if (usage.activity != 0xFF) {
        EXPECT_LT(usage.activity, p.num_referenced_activities);
      }
    }
  }
}

TEST(CorpusGenerator, ReflectionHiddenUsageKeepsPermissions) {
  CorpusConfig config;
  CorpusGenerator gen(TestUniverse(), config);
  bool found_evader = false;
  for (int i = 0; i < 4'000 && !found_evader; ++i) {
    const AppProfile p = gen.Next();
    if (!p.malicious) {
      continue;
    }
    for (const ApiUsage& usage : p.usage) {
      if (!usage.via_reflection) {
        continue;
      }
      const auto& info = TestUniverse().api(usage.api);
      if (info.permission >= 0) {
        // The permission prerequisite must appear in the manifest even
        // though the API call is hidden (§4.5).
        EXPECT_TRUE(std::find(p.permissions.begin(), p.permissions.end(),
                              static_cast<android::PermissionId>(info.permission)) !=
                    p.permissions.end());
        found_evader = true;
      }
    }
  }
  EXPECT_TRUE(found_evader);
}

TEST(BuildDex, OmitsReflectionUsage) {
  AppProfile p;
  p.package_name = "com.test.app";
  p.behavior_seed = 1;
  p.num_activities = 2;
  p.num_referenced_activities = 2;
  ApiUsage visible;
  visible.api = 0;
  visible.invocations_per_kevent = 5.0f;
  ApiUsage hidden;
  hidden.api = 1;
  hidden.invocations_per_kevent = 5.0f;
  hidden.via_reflection = true;
  p.usage = {visible, hidden};

  const apk::DexFile dex = BuildDex(p, TestUniverse());
  EXPECT_EQ(dex.behaviors.size(), 1u);
  EXPECT_EQ(dex.method_name_idx.size(), 1u);
  EXPECT_EQ(dex.MethodName(0), TestUniverse().api(0).name);
}

TEST(BuildDex, EncodesRuntimeFlagsAndGuards) {
  AppProfile p;
  p.package_name = "com.test.app";
  p.behavior_seed = 2;
  p.num_activities = 1;
  p.num_referenced_activities = 1;
  p.emulator_sensitivity = EmulatorSensitivity::kDetectsConfiguration;
  p.has_native_code = true;
  ApiUsage guarded;
  guarded.api = 3;
  guarded.invocations_per_kevent = 2.0f;
  guarded.guarded = true;
  ApiUsage gated;
  gated.api = 4;
  gated.invocations_per_kevent = 2.0f;
  gated.sensor_gated = true;
  p.usage = {guarded, gated};

  const apk::DexFile dex = BuildDex(p, TestUniverse());
  EXPECT_TRUE(dex.detects_emulator());
  EXPECT_TRUE(dex.has_native_code());
  ASSERT_EQ(dex.behaviors.size(), 2u);
  EXPECT_TRUE(dex.behaviors[0].guarded());
  EXPECT_TRUE(dex.behaviors[1].sensor_gated());
}

TEST(BuildManifest, ResolvesCatalogueNames) {
  CorpusConfig config;
  CorpusGenerator gen(TestUniverse(), config);
  const AppProfile p = gen.Next();
  const apk::Manifest manifest = BuildManifest(p, TestUniverse());
  EXPECT_EQ(manifest.package_name, p.package_name);
  EXPECT_EQ(manifest.permissions.size(), p.permissions.size());
  EXPECT_EQ(manifest.activities.size(), p.num_activities);
  for (const std::string& perm : manifest.permissions) {
    EXPECT_TRUE(perm.rfind("android.permission.", 0) == 0) << perm;
  }
}

TEST(BuildApkBytes, ParsesBackIdentically) {
  CorpusConfig config;
  CorpusGenerator gen(TestUniverse(), config);
  for (int i = 0; i < 20; ++i) {
    const AppProfile p = gen.Next();
    const auto bytes = BuildApkBytes(p, TestUniverse());
    auto apk = apk::ParseApk(bytes);
    ASSERT_TRUE(apk.ok()) << apk.error();
    EXPECT_EQ(apk->manifest.package_name, p.package_name);
    EXPECT_EQ(apk->manifest.version_code, p.version_code);
    EXPECT_EQ(apk->has_native_lib, p.has_native_code);
    EXPECT_EQ(apk->dex.behavior_seed, p.behavior_seed);
    size_t visible = 0;
    for (const ApiUsage& usage : p.usage) {
      visible += usage.via_reflection ? 0 : 1;
    }
    EXPECT_EQ(apk->dex.behaviors.size(), visible);
  }
}

// ParseDex's rate cap (DexBehavior::kMaxInvocationsPerKevent) must sit far
// above anything the generator emits, or seeded corpora would stop parsing.
TEST(BuildDex, InvocationRatesSitFarBelowTheParserCap) {
  CorpusConfig config;
  config.num_apps = 3'000;
  config.seed = 7;
  CorpusGenerator gen(TestUniverse(), config);
  float max_rate = 0.0f;
  for (const AppProfile& p : gen.GenerateAll()) {
    for (const apk::DexBehavior& b : BuildDex(p, TestUniverse()).behaviors) {
      max_rate = std::max(max_rate, b.invocations_per_kevent);
    }
  }
  EXPECT_GT(max_rate, 0.0f);
  EXPECT_LT(max_rate, apk::DexBehavior::kMaxInvocationsPerKevent / 100.0f);
}

TEST(CorpusGenerator, CloneUpdatesShareBehaviour) {
  CorpusConfig config;
  config.update_fraction = 0.95;
  config.exact_clone_fraction = 1.0;  // Every update is an exact clone.
  CorpusGenerator gen(TestUniverse(), config);
  std::map<std::string, std::vector<ApiUsage>> first_usage;
  int clones_checked = 0;
  for (int i = 0; i < 200; ++i) {
    const AppProfile p = gen.Next();
    auto it = first_usage.find(p.package_name);
    if (it == first_usage.end()) {
      first_usage.emplace(p.package_name, p.usage);
    } else if (p.is_update) {
      ASSERT_EQ(p.usage.size(), it->second.size());
      for (size_t u = 0; u < p.usage.size(); ++u) {
        EXPECT_EQ(p.usage[u].api, it->second[u].api);
      }
      ++clones_checked;
    }
  }
  EXPECT_GT(clones_checked, 50);
}

TEST(CorpusGenerator, UpdateAttacksCompromiseBenignLineages) {
  CorpusConfig config;
  config.update_fraction = 0.9;
  config.malicious_fraction = 0.0;  // Every lineage starts benign.
  config.update_attack_rate = 0.25;
  CorpusGenerator gen(TestUniverse(), config);
  std::map<std::string, bool> compromised;
  int attacks = 0, post_attack_updates = 0;
  for (int i = 0; i < 600; ++i) {
    const AppProfile p = gen.Next();
    if (p.is_update_attack) {
      ++attacks;
      EXPECT_TRUE(p.malicious);
      EXPECT_TRUE(p.is_update);
      EXPECT_FALSE(compromised[p.package_name]);  // First compromise only.
      compromised[p.package_name] = true;
      // The payload is visible in the profile: attacker-useful APIs present.
      size_t useful = 0;
      for (const ApiUsage& usage : p.usage) {
        useful += TestUniverse().api(usage.api).attacker_useful ? 1 : 0;
      }
      EXPECT_GT(useful, 10u);
    } else if (p.is_update && compromised[p.package_name]) {
      // Once compromised, the lineage stays malicious.
      EXPECT_TRUE(p.malicious);
      ++post_attack_updates;
    }
  }
  EXPECT_GT(attacks, 20);
  EXPECT_GT(post_attack_updates, 5);
}

TEST(CorpusGenerator, UpdateAttackEvadesFingerprintButNotManifest) {
  CorpusConfig config;
  config.update_fraction = 1.0;  // Only the first app creates a lineage.
  config.malicious_fraction = 0.0;
  config.update_attack_rate = 1.0;  // First update is always the attack.
  CorpusGenerator gen(TestUniverse(), config);
  const AppProfile v1 = gen.Next();
  AppProfile v2 = gen.Next();
  ASSERT_TRUE(v2.is_update_attack);
  // The attacked version's code differs from every prior version, so a
  // fingerprint database of v1 cannot match it.
  const apk::DexFile dex1 = BuildDex(v1, TestUniverse());
  const apk::DexFile dex2 = BuildDex(v2, TestUniverse());
  EXPECT_NE(dex1.behaviors.size(), dex2.behaviors.size());
  // But the manifest now requests the payload's permissions.
  EXPECT_GT(v2.permissions.size(), v1.permissions.size());
}

TEST(CorpusGenerator, RefreshTemplatesAdoptsNewUniverse) {
  android::UniverseConfig universe_config;
  universe_config.num_apis = 6'000;
  android::ApiUniverse universe = android::ApiUniverse::Generate(universe_config);
  CorpusConfig config;
  CorpusGenerator gen(universe, config);
  const size_t benign_before = gen.benign_templates().size();
  universe.AddSdkLevel(28, 500, 5);
  gen.RefreshTemplates(7);
  EXPECT_EQ(gen.benign_templates().size(), benign_before);
  // New-SDK attacker-useful APIs may now appear in family vocabularies.
  bool uses_new_api = false;
  for (const auto& family : gen.malware_templates()) {
    for (const auto& wa : family.characteristic_apis) {
      uses_new_api |= universe.api(wa.api).sdk_level == 28;
    }
  }
  EXPECT_TRUE(uses_new_api);
}

}  // namespace
}  // namespace apichecker::synth
