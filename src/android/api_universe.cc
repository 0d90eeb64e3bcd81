#include "android/api_universe.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <numeric>
#include <string>
#include <string_view>

#include "util/rng.h"

namespace apichecker::android {

namespace {

const char* const kPackages[] = {
    "android.app",      "android.content",  "android.view",     "android.widget",
    "android.net",      "android.os",       "android.telephony", "android.database",
    "android.media",    "android.graphics", "android.location", "android.bluetooth",
    "android.hardware", "android.util",     "java.io",          "java.net",
    "java.lang",        "java.util",        "javax.crypto",     "android.webkit",
    "android.provider", "android.accounts", "android.nfc",      "android.print",
};

const char* const kClassPrefixes[] = {
    "Activity", "Package", "Window",  "Media",   "Sensor",  "Telephony", "Storage",
    "Account",  "Display", "Input",   "Network", "Power",   "Sync",      "Download",
    "Backup",   "Print",   "Usb",     "Wallpaper", "Clipboard", "Search",
};

const char* const kClassSuffixes[] = {
    "Manager", "Service", "Provider", "Helper", "Session",
    "Controller", "Monitor", "Adapter", "Client", "Registry",
};

const char* const kMethodVerbs[] = {
    "get",  "set",     "query",  "update",     "open",   "close",  "start",
    "stop", "register", "unregister", "create", "delete", "send",  "read",
    "write", "request", "bind",   "notify",     "load",   "apply",
};

const char* const kMethodNouns[] = {
    "State", "Info",   "Config", "Data",   "Event", "Session", "Task",
    "Record", "Buffer", "Handle", "Status", "Value", "List",    "Item",
    "Channel", "Token", "Policy", "Cache",  "Stream", "Lock",
};

// Unique framework-looking name for bulk API number `i` (mixed radix over
// the name pools; capacity 24*20*10*20*20 = 1.92M >> 50K).
std::string SynthesizeName(uint64_t i) {
  const uint64_t pkg = i % std::size(kPackages);
  i /= std::size(kPackages);
  const uint64_t cls_prefix = i % std::size(kClassPrefixes);
  i /= std::size(kClassPrefixes);
  const uint64_t cls_suffix = i % std::size(kClassSuffixes);
  i /= std::size(kClassSuffixes);
  const uint64_t verb = i % std::size(kMethodVerbs);
  i /= std::size(kMethodVerbs);
  const uint64_t noun = i % std::size(kMethodNouns);
  i /= std::size(kMethodNouns);
  // Sized exactly, then appended: Generate makes ~50K of these, and a
  // printf-style format per name was most of its cost.
  const std::string number = i > 0 ? std::to_string(i) : std::string();
  const std::string_view parts[] = {kPackages[pkg], ".", kClassPrefixes[cls_prefix],
                                    kClassSuffixes[cls_suffix], ".", kMethodVerbs[verb],
                                    kMethodNouns[noun], number};
  std::string name;
  name.reserve(std::accumulate(std::begin(parts), std::end(parts), size_t{0},
                               [](size_t n, std::string_view part) { return n + part.size(); }));
  for (std::string_view part : parts) {
    name += part;
  }
  return name;
}

struct AnchorSpec {
  const char* name;
  const char* permission;  // nullptr = none.
  SensitiveOp sensitive;
  bool intent_related;
  bool attacker_useful;
  bool common_op;
  float popularity;
  float invocations_per_kevent;
};

// The seven key APIs named in the paper's Fig. 13 plus the intent-carrying
// framework entry points tracked for auxiliary intent features (§4.5).
constexpr AnchorSpec kKeyAnchors[] = {
    {"android.telephony.SmsManager.sendTextMessage", "android.permission.SEND_SMS",
     SensitiveOp::kNone, false, true, false, 0.015f, 6.0f},
    {"android.telephony.TelephonyManager.getLine1Number", "android.permission.READ_PHONE_STATE",
     SensitiveOp::kNone, false, true, false, 0.03f, 10.0f},
    {"android.net.wifi.WifiInfo.getMacAddress", nullptr, SensitiveOp::kDataAccess, false, true,
     false, 0.04f, 14.0f},
    {"android.view.View.setBackgroundColor", nullptr, SensitiveOp::kComponentOp, false, true,
     false, 0.30f, 900.0f},
    {"android.database.sqlite.SQLiteDatabase.insertWithOnConflict", nullptr,
     SensitiveOp::kDataAccess, false, true, false, 0.10f, 220.0f},
    {"java.net.HttpURLConnection.connect", nullptr, SensitiveOp::kDataAccess, false, true, false,
     0.45f, 120.0f},
    {"android.app.ActivityManager.getRunningTasks", nullptr, SensitiveOp::kDataAccess, false,
     true, false, 0.05f, 25.0f},
    // Intent-carrying APIs: hooking them exposes used intents (Set-S, §4.5).
    {"android.content.Context.startActivity", nullptr, SensitiveOp::kComponentOp, true, false,
     false, 0.92f, 60.0f},
    {"android.content.Context.sendBroadcast", nullptr, SensitiveOp::kComponentOp, true, true,
     false, 0.35f, 40.0f},
    {"android.content.Context.registerReceiver", nullptr, SensitiveOp::kComponentOp, true, true,
     false, 0.55f, 18.0f},
    {"android.content.Context.startService", nullptr, SensitiveOp::kComponentOp, true, false,
     false, 0.40f, 22.0f},
    {"android.content.Context.bindService", nullptr, SensitiveOp::kComponentOp, true, false,
     false, 0.30f, 16.0f},
    {"android.content.Intent.setAction", nullptr, SensitiveOp::kComponentOp, true, false, false,
     0.80f, 85.0f},
    // Dynamic code loading / privilege escalation / crypto exemplars.
    {"java.lang.Runtime.exec", nullptr, SensitiveOp::kPrivilegeEscalation, false, true, false,
     0.02f, 4.0f},
    {"dalvik.system.DexClassLoader.loadClass", nullptr, SensitiveOp::kDynamicCode, false, true,
     false, 0.015f, 8.0f},
    {"javax.crypto.Cipher.doFinal", nullptr, SensitiveOp::kCrypto, false, true, false, 0.08f,
     45.0f},
    {"android.view.WindowManager.addView", "android.permission.SYSTEM_ALERT_WINDOW",
     SensitiveOp::kComponentOp, false, true, false, 0.06f, 12.0f},
};

// Ubiquitous benign plumbing: invoked by nearly every app, underused by
// (simple) malware — the "13 frequent APIs with SRC <= -0.2" cluster (§4.3).
constexpr AnchorSpec kCommonOpAnchors[] = {
    {"java.io.File.exists", nullptr, SensitiveOp::kNone, false, false, true, 0.97f, 73.0f},
    {"java.io.FileInputStream.read", nullptr, SensitiveOp::kNone, false, false, true, 0.95f,
     131.0f},
    {"java.io.FileOutputStream.write", nullptr, SensitiveOp::kNone, false, false, true, 0.94f,
     122.0f},
    {"java.lang.StringBuilder.append", nullptr, SensitiveOp::kNone, false, false, true, 0.99f,
     245.0f},
    {"java.util.HashMap.put", nullptr, SensitiveOp::kNone, false, false, true, 0.99f, 204.0f},
    {"android.util.Log.d", nullptr, SensitiveOp::kNone, false, false, true, 0.96f, 172.0f},
    {"android.content.SharedPreferences.getString", nullptr, SensitiveOp::kNone, false, false,
     true, 0.93f, 245.0f},
    {"android.os.Handler.post", nullptr, SensitiveOp::kNone, false, false, true, 0.97f, 106.0f},
    {"android.graphics.Canvas.drawRect", nullptr, SensitiveOp::kNone, false, false, true, 0.88f,
     98.0f},
    {"android.view.LayoutInflater.inflate", nullptr, SensitiveOp::kNone, false, false, true,
     0.98f, 326.0f},
    {"java.lang.Thread.start", nullptr, SensitiveOp::kNone, false, false, true, 0.98f, 49.0f},
    {"java.net.URL.openConnection", nullptr, SensitiveOp::kNone, false, false, true, 0.90f,
     25.0f},
    {"android.widget.TextView.setText", nullptr, SensitiveOp::kNone, false, false, true, 0.99f,
     155.0f},
};

constexpr SensitiveOp kSensitiveCategories[] = {
    SensitiveOp::kPrivilegeEscalation, SensitiveOp::kDataAccess, SensitiveOp::kComponentOp,
    SensitiveOp::kCrypto, SensitiveOp::kDynamicCode,
};

}  // namespace

const char* SensitiveOpName(SensitiveOp op) {
  switch (op) {
    case SensitiveOp::kNone:
      return "none";
    case SensitiveOp::kPrivilegeEscalation:
      return "privilege-escalation";
    case SensitiveOp::kDataAccess:
      return "data-access";
    case SensitiveOp::kComponentOp:
      return "component-op";
    case SensitiveOp::kCrypto:
      return "crypto";
    case SensitiveOp::kDynamicCode:
      return "dynamic-code";
  }
  return "?";
}

const char* ProtectionName(Protection p) {
  switch (p) {
    case Protection::kNone:
      return "none";
    case Protection::kNormal:
      return "normal";
    case Protection::kDangerous:
      return "dangerous";
    case Protection::kSignature:
      return "signature";
  }
  return "?";
}

ApiId ApiUniverse::AddApi(ApiInfo info) {
  const ApiId id = static_cast<ApiId>(apis_.size());
  name_index_.emplace(info.name, id);
  apis_.push_back(std::move(info));
  return id;
}

ApiUniverse ApiUniverse::Generate(const UniverseConfig& config) {
  ApiUniverse universe;
  universe.config_ = config;
  universe.sdk_level_ = config.base_sdk_level;
  universe.permissions_ = BuiltinPermissions();
  universe.intents_ = BuiltinIntents();
  universe.apis_.reserve(config.num_apis);
  universe.name_index_.reserve(config.num_apis);

  util::Rng rng(config.seed);

  auto permission_id = [&](const char* name) -> int32_t {
    if (name == nullptr) {
      return -1;
    }
    for (size_t i = 0; i < universe.permissions_.size(); ++i) {
      if (universe.permissions_[i].name == name) {
        return static_cast<int32_t>(i);
      }
    }
    assert(false && "unknown anchor permission");
    return -1;
  };
  auto protection_of = [&](int32_t perm) {
    return perm < 0 ? Protection::kNone
                    : universe.permissions_[static_cast<size_t>(perm)].level;
  };

  // 1. Curated anchors.
  auto add_anchor = [&](const AnchorSpec& spec) {
    ApiInfo info;
    info.name = spec.name;
    info.permission = permission_id(spec.permission);
    info.protection = protection_of(info.permission);
    info.sensitive = spec.sensitive;
    info.intent_related = spec.intent_related;
    info.attacker_useful = spec.attacker_useful;
    info.common_op = spec.common_op;
    info.sdk_level = 1;
    info.popularity = spec.popularity;
    info.invocations_per_kevent = spec.invocations_per_kevent;
    universe.AddApi(std::move(info));
  };
  for (const AnchorSpec& spec : kKeyAnchors) {
    add_anchor(spec);
  }
  for (const AnchorSpec& spec : kCommonOpAnchors) {
    add_anchor(spec);
  }

  // Count curated members of the special pools.
  size_t num_restrictive = 0, num_sensitive = 0, num_useful = 0;
  for (const ApiInfo& info : universe.apis_) {
    num_restrictive += IsRestrictive(info.protection) ? 1 : 0;
    num_sensitive += info.sensitive != SensitiveOp::kNone ? 1 : 0;
    num_useful += info.attacker_useful ? 1 : 0;
  }

  // Restrictive permissions available for assignment.
  std::vector<int32_t> restrictive_permissions;
  for (size_t i = 0; i < universe.permissions_.size(); ++i) {
    if (IsRestrictive(universe.permissions_[i].level)) {
      restrictive_permissions.push_back(static_cast<int32_t>(i));
    }
  }

  uint64_t name_counter = 1;  // Offsets bulk names away from anchor space.

  // 2. Sensitive-operation APIs up to the configured pool size. Two of them
  // also carry restrictive permissions (the paper's Set-P/Set-S overlap),
  // and a handful are attacker-useful (the Set-C overlap).
  size_t sensitive_with_permission = 0;
  size_t extra_useful_sensitive = 0;
  while (num_sensitive < config.num_sensitive_apis) {
    ApiInfo info;
    info.name = SynthesizeName(name_counter++);
    info.sensitive = kSensitiveCategories[num_sensitive % std::size(kSensitiveCategories)];
    if (sensitive_with_permission < 2) {
      info.permission =
          restrictive_permissions[rng.NextBounded(restrictive_permissions.size())];
      info.protection = protection_of(info.permission);
      ++sensitive_with_permission;
      ++num_restrictive;
    }
    // ~5 generated sensitive APIs malware visibly overuses (Set-C overlap).
    if (extra_useful_sensitive < 5 && rng.Bernoulli(0.1)) {
      info.attacker_useful = true;
      ++extra_useful_sensitive;
      ++num_useful;
    }
    info.sdk_level = 1;
    info.popularity = static_cast<float>(rng.Uniform(0.005, 0.12));
    info.invocations_per_kevent = static_cast<float>(rng.LogNormal(25.0, 1.0));
    universe.AddApi(std::move(info));
    ++num_sensitive;
  }

  // 3. Restrictive-permission APIs up to the configured pool size; ~9 total
  // restrictive APIs end up attacker-useful (Set-C/Set-P overlap).
  size_t useful_restrictive = 0;
  for (const ApiInfo& info : universe.apis_) {
    if (IsRestrictive(info.protection) && info.attacker_useful) {
      ++useful_restrictive;
    }
  }
  while (num_restrictive < config.num_restrictive_apis) {
    ApiInfo info;
    info.name = SynthesizeName(name_counter++);
    info.permission = restrictive_permissions[rng.NextBounded(restrictive_permissions.size())];
    info.protection = protection_of(info.permission);
    if (useful_restrictive < 9 && rng.Bernoulli(0.08)) {
      info.attacker_useful = true;
      ++useful_restrictive;
      ++num_useful;
    }
    info.sdk_level = 1;
    info.popularity = static_cast<float>(rng.Uniform(0.002, 0.08));
    info.invocations_per_kevent = static_cast<float>(rng.LogNormal(15.0, 1.0));
    universe.AddApi(std::move(info));
    ++num_restrictive;
  }

  // 4. Plain attacker-useful APIs (the bulk of the latent Set-C pool).
  while (num_useful < config.num_attacker_useful) {
    ApiInfo info;
    info.name = SynthesizeName(name_counter++);
    info.attacker_useful = true;
    info.sdk_level = 1;
    // Moderately popular: the paper's correlated APIs are invoked with
    // "moderate frequency" (§4.3), not from the rare tail.
    info.popularity = static_cast<float>(rng.Uniform(0.015, 0.08));
    info.invocations_per_kevent = static_cast<float>(rng.LogNormal(40.0, 0.8));
    universe.AddApi(std::move(info));
    ++num_useful;
  }

  // 5. Bulk framework APIs with Zipf-ranked popularity: a hot head (UI and
  // collection plumbing) and a long rare tail.
  size_t bulk_rank = 0;
  while (universe.apis_.size() < config.num_apis) {
    ApiInfo info;
    info.name = SynthesizeName(name_counter++);
    info.sdk_level = 1;
    const double pop =
        std::min(0.95, 2.8 / std::pow(static_cast<double>(bulk_rank) + 3.0, 0.55));
    info.popularity = static_cast<float>(pop * rng.Uniform(0.8, 1.2));
    // Invocation rate is decoupled from adoption except for the hot head
    // (UI/collection plumbing): an API most apps *use occasionally* is not
    // an API apps *hammer*.
    const double hot = std::max(0.0, static_cast<double>(info.popularity) - 0.55) / 0.45;
    info.invocations_per_kevent =
        static_cast<float>(rng.LogNormal(8.0 + 2600.0 * hot * hot, 0.9));
    universe.AddApi(std::move(info));
    ++bulk_rank;
  }

  // 6. Normalize invocation rates so a typical app triggers the configured
  // number of API invocations per Monkey event (paper: ~8,460).
  double expected_per_kevent = 0.0;
  for (const ApiInfo& info : universe.apis_) {
    expected_per_kevent +=
        static_cast<double>(info.popularity) * static_cast<double>(info.invocations_per_kevent);
  }
  const double target_per_kevent = config.invocations_per_event * 1000.0;
  if (expected_per_kevent > 0.0) {
    const double scale = target_per_kevent / expected_per_kevent;
    for (ApiInfo& info : universe.apis_) {
      info.invocations_per_kevent = static_cast<float>(info.invocations_per_kevent * scale);
    }
  }

  // 7. Intra-SDK dependencies: a slice of ordinary APIs is implemented via
  // the special pools (§5.4's 9.6% coverage amplification).
  std::vector<ApiId> special;
  for (ApiId id = 0; id < universe.apis_.size(); ++id) {
    const ApiInfo& info = universe.apis_[id];
    if (IsRestrictive(info.protection) || info.sensitive != SensitiveOp::kNone ||
        info.attacker_useful) {
      special.push_back(id);
    }
  }
  for (ApiId id = 0; id < universe.apis_.size(); ++id) {
    ApiInfo& info = universe.apis_[id];
    const bool is_special = IsRestrictive(info.protection) ||
                            info.sensitive != SensitiveOp::kNone || info.attacker_useful ||
                            info.common_op;
    if (!is_special && rng.Bernoulli(config.dependency_fraction)) {
      info.implemented_via = static_cast<int32_t>(special[rng.NextBounded(special.size())]);
    }
  }

  return universe;
}

std::vector<ApiId> ApiUniverse::RestrictivePermissionApis() const {
  std::vector<ApiId> ids;
  for (ApiId id = 0; id < apis_.size(); ++id) {
    if (IsRestrictive(apis_[id].protection)) {
      ids.push_back(id);
    }
  }
  return ids;
}

std::vector<ApiId> ApiUniverse::SensitiveOperationApis() const {
  std::vector<ApiId> ids;
  for (ApiId id = 0; id < apis_.size(); ++id) {
    if (apis_[id].sensitive != SensitiveOp::kNone) {
      ids.push_back(id);
    }
  }
  return ids;
}

std::vector<ApiId> ApiUniverse::AttackerUsefulApis() const {
  std::vector<ApiId> ids;
  for (ApiId id = 0; id < apis_.size(); ++id) {
    if (apis_[id].attacker_useful) {
      ids.push_back(id);
    }
  }
  return ids;
}

std::vector<ApiId> ApiUniverse::CommonOpApis() const {
  std::vector<ApiId> ids;
  for (ApiId id = 0; id < apis_.size(); ++id) {
    if (apis_[id].common_op) {
      ids.push_back(id);
    }
  }
  return ids;
}

std::vector<ApiId> ApiUniverse::TransitiveDependents(std::span<const ApiId> roots) const {
  std::vector<uint8_t> in_closure(apis_.size(), 0);
  for (ApiId id : roots) {
    in_closure.at(id) = 1;
  }
  // implemented_via edges always point at older (lower-id) APIs, so one
  // ascending pass reaches a fixed point.
  std::vector<ApiId> dependents;
  for (ApiId id = 0; id < apis_.size(); ++id) {
    const int32_t via = apis_[id].implemented_via;
    if (via >= 0 && in_closure[static_cast<size_t>(via)] && !in_closure[id]) {
      in_closure[id] = 1;
      dependents.push_back(id);
    }
  }
  return dependents;
}

std::optional<ApiId> ApiUniverse::FindByName(const std::string& name) const {
  const auto it = name_index_.find(name);
  if (it == name_index_.end()) {
    return std::nullopt;
  }
  return it->second;
}

std::vector<ApiId> ApiUniverse::AddSdkLevel(uint16_t level, size_t count, uint64_t seed) {
  assert(level > sdk_level_);
  sdk_level_ = level;
  util::Rng rng(seed);

  std::vector<int32_t> restrictive_permissions;
  for (size_t i = 0; i < permissions_.size(); ++i) {
    if (IsRestrictive(permissions_[i].level)) {
      restrictive_permissions.push_back(static_cast<int32_t>(i));
    }
  }

  std::vector<ApiId> added;
  added.reserve(count);
  const uint64_t name_base = 500'000ull * level;
  for (size_t i = 0; i < count; ++i) {
    ApiInfo info;
    info.name = SynthesizeName(name_base + i);
    info.sdk_level = level;
    if (rng.Bernoulli(0.02)) {
      info.permission =
          restrictive_permissions[rng.NextBounded(restrictive_permissions.size())];
      info.protection = permissions_[static_cast<size_t>(info.permission)].level;
    } else if (rng.Bernoulli(0.02)) {
      info.sensitive = kSensitiveCategories[rng.NextBounded(std::size(kSensitiveCategories))];
    }
    if (rng.Bernoulli(0.03)) {
      info.attacker_useful = true;
    }
    // New APIs start unpopular and gain adoption in the corpus generator.
    info.popularity = static_cast<float>(rng.Uniform(0.001, 0.02));
    info.invocations_per_kevent = static_cast<float>(rng.LogNormal(30.0, 1.0));
    added.push_back(AddApi(std::move(info)));
  }
  return added;
}

}  // namespace apichecker::android
