// Unit tests for src/android: the API universe generator, catalogues,
// permission maps, dependency closure, and SDK evolution.

#include <bit>
#include <cstdint>
#include <set>
#include <unordered_set>

#include <gtest/gtest.h>

#include "android/api_universe.h"
#include "android/catalogues.h"

namespace apichecker::android {
namespace {

UniverseConfig SmallConfig() {
  UniverseConfig config;
  config.num_apis = 5'000;
  return config;
}

TEST(Catalogues, ContainFigure13Names) {
  const auto permissions = BuiltinPermissions();
  const auto intents = BuiltinIntents();
  auto has_permission = [&](const std::string& name) {
    for (const auto& p : permissions) {
      if (p.name == name) {
        return true;
      }
    }
    return false;
  };
  auto has_intent = [&](const std::string& name) {
    for (const auto& i : intents) {
      if (i == name) {
        return true;
      }
    }
    return false;
  };
  // Every permission/intent named in the paper's Fig. 13 must exist.
  EXPECT_TRUE(has_permission("android.permission.SEND_SMS"));
  EXPECT_TRUE(has_permission("android.permission.RECEIVE_SMS"));
  EXPECT_TRUE(has_permission("android.permission.RECEIVE_MMS"));
  EXPECT_TRUE(has_permission("android.permission.RECEIVE_WAP_PUSH"));
  EXPECT_TRUE(has_permission("android.permission.READ_SMS"));
  EXPECT_TRUE(has_permission("android.permission.ACCESS_NETWORK_STATE"));
  EXPECT_TRUE(has_permission("android.permission.SYSTEM_ALERT_WINDOW"));
  EXPECT_TRUE(has_permission("android.permission.RECEIVE_BOOT_COMPLETED"));
  EXPECT_TRUE(has_intent("android.provider.Telephony.SMS_RECEIVED"));
  EXPECT_TRUE(has_intent("android.net.wifi.STATE_CHANGE"));
  EXPECT_TRUE(has_intent("android.app.action.DEVICE_ADMIN_ENABLED"));
  EXPECT_TRUE(has_intent("android.bluetooth.adapter.action.STATE_CHANGED"));
  EXPECT_TRUE(has_intent("android.intent.action.ACTION_BATTERY_OKAY"));
}

TEST(Catalogues, ProtectionLevelsSpanAllThree) {
  int normal = 0, dangerous = 0, signature = 0;
  for (const auto& p : BuiltinPermissions()) {
    switch (p.level) {
      case Protection::kNormal:
        ++normal;
        break;
      case Protection::kDangerous:
        ++dangerous;
        break;
      case Protection::kSignature:
        ++signature;
        break;
      default:
        ADD_FAILURE() << "unexpected level";
    }
  }
  EXPECT_GT(normal, 10);
  EXPECT_GT(dangerous, 15);
  EXPECT_GT(signature, 8);
}

TEST(ApiUniverse, GeneratesConfiguredCounts) {
  const ApiUniverse universe = ApiUniverse::Generate(SmallConfig());
  EXPECT_EQ(universe.num_apis(), 5'000u);
  EXPECT_EQ(universe.RestrictivePermissionApis().size(), 112u);
  EXPECT_EQ(universe.SensitiveOperationApis().size(), 70u);
  EXPECT_EQ(universe.AttackerUsefulApis().size(),
            universe.config().num_attacker_useful);
  EXPECT_EQ(universe.CommonOpApis().size(), 13u);  // Fig 4's frequent negatives.
  EXPECT_EQ(universe.sdk_level(), 27);
}

TEST(ApiUniverse, NamesAreUnique) {
  const ApiUniverse universe = ApiUniverse::Generate(SmallConfig());
  std::unordered_set<std::string> names;
  for (ApiId id = 0; id < universe.num_apis(); ++id) {
    EXPECT_TRUE(names.insert(universe.api(id).name).second)
        << "duplicate: " << universe.api(id).name;
  }
}

TEST(ApiUniverse, AnchorsResolvableByName) {
  const ApiUniverse universe = ApiUniverse::Generate(SmallConfig());
  const auto sms = universe.FindByName("android.telephony.SmsManager.sendTextMessage");
  ASSERT_TRUE(sms.has_value());
  const ApiInfo& info = universe.api(*sms);
  EXPECT_EQ(info.protection, Protection::kDangerous);
  EXPECT_TRUE(info.attacker_useful);
  ASSERT_GE(info.permission, 0);
  EXPECT_EQ(universe.permissions()[static_cast<size_t>(info.permission)].name,
            "android.permission.SEND_SMS");
  EXPECT_FALSE(universe.FindByName("does.not.Exist.method").has_value());
}

TEST(ApiUniverse, RestrictiveApisCarryRestrictivePermissions) {
  const ApiUniverse universe = ApiUniverse::Generate(SmallConfig());
  for (ApiId id : universe.RestrictivePermissionApis()) {
    const ApiInfo& info = universe.api(id);
    ASSERT_GE(info.permission, 0);
    EXPECT_TRUE(IsRestrictive(universe.permissions()[static_cast<size_t>(info.permission)].level));
    EXPECT_TRUE(IsRestrictive(info.protection));
  }
}

TEST(ApiUniverse, IntentRelatedApisAreSensitive) {
  const ApiUniverse universe = ApiUniverse::Generate(SmallConfig());
  size_t intent_related = 0;
  for (ApiId id = 0; id < universe.num_apis(); ++id) {
    if (universe.api(id).intent_related) {
      ++intent_related;
      EXPECT_NE(universe.api(id).sensitive, SensitiveOp::kNone)
          << universe.api(id).name << " carries intents but is not in Set-S";
    }
  }
  EXPECT_GE(intent_related, 4u);  // startActivity / sendBroadcast / ...
}

TEST(ApiUniverse, DeterministicForSameSeed) {
  const ApiUniverse a = ApiUniverse::Generate(SmallConfig());
  const ApiUniverse b = ApiUniverse::Generate(SmallConfig());
  ASSERT_EQ(a.num_apis(), b.num_apis());
  for (ApiId id = 0; id < a.num_apis(); ++id) {
    EXPECT_EQ(a.api(id).name, b.api(id).name);
    EXPECT_EQ(a.api(id).popularity, b.api(id).popularity);
    EXPECT_EQ(a.api(id).implemented_via, b.api(id).implemented_via);
  }
}

// FNV-1a over every ApiInfo field of every API, in id order. Floats enter by
// bit pattern, so any change to a generated rate or popularity shows.
uint64_t UniverseDigest(const ApiUniverse& universe) {
  uint64_t h = 0xcbf29ce484222325ull;
  auto mix = [&h](uint64_t value) {
    for (int byte = 0; byte < 8; ++byte) {
      h = (h ^ ((value >> (8 * byte)) & 0xff)) * 0x100000001b3ull;
    }
  };
  for (ApiId id = 0; id < universe.num_apis(); ++id) {
    const ApiInfo& info = universe.api(id);
    mix(info.name.size());
    for (char c : info.name) {
      mix(static_cast<uint8_t>(c));
    }
    mix(static_cast<uint64_t>(info.protection));
    mix(static_cast<uint64_t>(static_cast<int64_t>(info.permission)));
    mix(static_cast<uint64_t>(info.sensitive));
    mix(info.intent_related);
    mix(info.attacker_useful);
    mix(info.common_op);
    mix(info.sdk_level);
    mix(std::bit_cast<uint32_t>(info.popularity));
    mix(std::bit_cast<uint32_t>(info.invocations_per_kevent));
    mix(static_cast<uint64_t>(static_cast<int64_t>(info.implemented_via)));
  }
  return h;
}

// The default 50K universe (and an SDK level on top of it, whose names carry
// numeric suffixes) is pinned field for field: every seeded paper output
// derives from it, so a generator change must leave it bit-identical.
TEST(ApiUniverse, DefaultUniverseMatchesPinnedDigest) {
  ApiUniverse universe = ApiUniverse::Generate(UniverseConfig{});
  ASSERT_EQ(universe.num_apis(), 50'000u);
  EXPECT_EQ(UniverseDigest(universe), 0x30e40dc86e5bc9b6ull);
  universe.AddSdkLevel(28, 2'000, 77);
  EXPECT_EQ(UniverseDigest(universe), 0xfcae941389931feaull);
  for (ApiId id = 0; id < universe.num_apis(); ++id) {
    const auto found = universe.FindByName(universe.api(id).name);
    ASSERT_TRUE(found.has_value()) << universe.api(id).name;
    EXPECT_EQ(*found, id);
  }
}

TEST(ApiUniverse, InvocationRatesNormalizedToTarget) {
  const ApiUniverse universe = ApiUniverse::Generate(SmallConfig());
  double per_kevent = 0.0;
  for (ApiId id = 0; id < universe.num_apis(); ++id) {
    per_kevent += static_cast<double>(universe.api(id).popularity) *
                  universe.api(id).invocations_per_kevent;
  }
  // One Monkey event should trigger roughly the configured invocation count
  // for a typical app (paper: ~8,460 per event).
  EXPECT_NEAR(per_kevent / 1000.0, universe.config().invocations_per_event,
              universe.config().invocations_per_event * 0.01);
}

TEST(ApiUniverse, DependencyEdgesPointAtSpecialPools) {
  const ApiUniverse universe = ApiUniverse::Generate(SmallConfig());
  size_t with_dependency = 0;
  for (ApiId id = 0; id < universe.num_apis(); ++id) {
    const int32_t via = universe.api(id).implemented_via;
    if (via < 0) {
      continue;
    }
    ++with_dependency;
    const ApiInfo& target = universe.api(static_cast<ApiId>(via));
    EXPECT_TRUE(IsRestrictive(target.protection) || target.sensitive != SensitiveOp::kNone ||
                target.attacker_useful);
    EXPECT_LT(static_cast<ApiId>(via), id);  // Edges point at older APIs.
  }
  // ~9.6% of APIs delegate (§5.4).
  EXPECT_NEAR(static_cast<double>(with_dependency) / universe.num_apis(), 0.096, 0.02);
}

TEST(ApiUniverse, TransitiveDependentsMatchDirectEdges) {
  const ApiUniverse universe = ApiUniverse::Generate(SmallConfig());
  const std::vector<ApiId> roots = universe.RestrictivePermissionApis();
  const std::vector<ApiId> dependents = universe.TransitiveDependents(roots);
  std::set<ApiId> root_set(roots.begin(), roots.end());
  for (ApiId id : dependents) {
    EXPECT_EQ(root_set.count(id), 0u);  // Roots are excluded.
  }
  // Every direct dependent of a root must be found.
  for (ApiId id = 0; id < universe.num_apis(); ++id) {
    const int32_t via = universe.api(id).implemented_via;
    if (via >= 0 && root_set.count(static_cast<ApiId>(via)) != 0) {
      EXPECT_TRUE(std::find(dependents.begin(), dependents.end(), id) != dependents.end());
    }
  }
}

TEST(ApiUniverse, AddSdkLevelAppendsApis) {
  ApiUniverse universe = ApiUniverse::Generate(SmallConfig());
  const size_t before = universe.num_apis();
  const auto added = universe.AddSdkLevel(28, 200, 77);
  EXPECT_EQ(added.size(), 200u);
  EXPECT_EQ(universe.num_apis(), before + 200);
  EXPECT_EQ(universe.sdk_level(), 28);
  for (ApiId id : added) {
    EXPECT_GE(id, before);
    EXPECT_EQ(universe.api(id).sdk_level, 28);
  }
}

TEST(ApiUniverse, NewSdkApisIncludeSpecialKinds) {
  ApiUniverse universe = ApiUniverse::Generate(SmallConfig());
  const auto added = universe.AddSdkLevel(28, 2'000, 77);
  size_t restrictive = 0, sensitive = 0, useful = 0;
  for (ApiId id : added) {
    const ApiInfo& info = universe.api(id);
    restrictive += IsRestrictive(info.protection) ? 1 : 0;
    sensitive += info.sensitive != SensitiveOp::kNone ? 1 : 0;
    useful += info.attacker_useful ? 1 : 0;
  }
  EXPECT_GT(restrictive, 0u);
  EXPECT_GT(sensitive, 0u);
  EXPECT_GT(useful, 0u);
}

TEST(Types, NamesAreStable) {
  EXPECT_STREQ(SensitiveOpName(SensitiveOp::kCrypto), "crypto");
  EXPECT_STREQ(SensitiveOpName(SensitiveOp::kDynamicCode), "dynamic-code");
  EXPECT_STREQ(ProtectionName(Protection::kDangerous), "dangerous");
  EXPECT_TRUE(IsRestrictive(Protection::kSignature));
  EXPECT_FALSE(IsRestrictive(Protection::kNormal));
}

}  // namespace
}  // namespace apichecker::android
