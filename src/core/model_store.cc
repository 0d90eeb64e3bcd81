#include "core/model_store.h"

#include <bit>
#include <fstream>

#include "util/byte_io.h"

namespace apichecker::core {

namespace {

constexpr uint32_t kModelStoreMagic = 0x314d4341;  // "ACM1"
constexpr uint16_t kModelStoreVersion = 1;

void PutIdList(util::ByteWriter& writer, const std::vector<android::ApiId>& ids) {
  writer.PutU32(static_cast<uint32_t>(ids.size()));
  for (android::ApiId id : ids) {
    writer.PutUleb128(id);
  }
}

util::Result<std::vector<android::ApiId>> ReadIdList(util::ByteReader& reader,
                                                     size_t universe_size) {
  auto count = reader.ReadU32();
  if (!count.ok()) {
    return util::Err("truncated id list header");
  }
  if (*count > universe_size) {
    return util::Err("implausible id list size");
  }
  std::vector<android::ApiId> ids;
  ids.reserve(*count);
  for (uint32_t i = 0; i < *count; ++i) {
    auto id = reader.ReadUleb128();
    if (!id.ok()) {
      return util::Err("truncated id list");
    }
    if (*id >= universe_size) {
      return util::Err("api id out of range for this universe");
    }
    ids.push_back(static_cast<android::ApiId>(*id));
  }
  return ids;
}

}  // namespace

std::vector<uint8_t> SerializeChecker(const ApiChecker& checker) {
  if (!checker.trained()) {
    return {};
  }
  util::ByteWriter writer;
  writer.PutU32(kModelStoreMagic);
  writer.PutU16(kModelStoreVersion);

  const FeatureOptions& options = checker.config().features;
  writer.PutU8(options.use_apis ? 1 : 0);
  writer.PutU8(options.use_permissions ? 1 : 0);
  writer.PutU8(options.use_intents ? 1 : 0);
  writer.PutU8(options.frequency_buckets);
  writer.PutU64(std::bit_cast<uint64_t>(checker.config().threshold));

  const KeyApiSelection& sel = checker.selection();
  PutIdList(writer, sel.set_c);
  PutIdList(writer, sel.set_p);
  PutIdList(writer, sel.set_s);
  PutIdList(writer, sel.key_apis);
  writer.PutU32(static_cast<uint32_t>(sel.overlap_cp));
  writer.PutU32(static_cast<uint32_t>(sel.overlap_cs));
  writer.PutU32(static_cast<uint32_t>(sel.overlap_ps));
  writer.PutU32(static_cast<uint32_t>(sel.overlap_cps));

  const std::vector<uint8_t> forest = checker.model().Serialize();
  writer.PutU32(static_cast<uint32_t>(forest.size()));
  writer.PutBytes(forest);
  return writer.TakeBytes();
}

util::Result<ApiChecker> DeserializeChecker(const android::ApiUniverse& universe,
                                            std::span<const uint8_t> bytes) {
  util::ByteReader reader(bytes);
  auto magic = reader.ReadU32();
  if (!magic.ok() || *magic != kModelStoreMagic) {
    return util::Err("bad model-store magic");
  }
  auto version = reader.ReadU16();
  if (!version.ok() || *version != kModelStoreVersion) {
    return util::Err("unsupported model-store version");
  }

  auto use_apis = reader.ReadU8();
  auto use_permissions = reader.ReadU8();
  auto use_intents = reader.ReadU8();
  auto buckets = reader.ReadU8();
  auto threshold_bits = reader.ReadU64();
  if (!use_apis.ok() || !use_permissions.ok() || !use_intents.ok() || !buckets.ok() ||
      !threshold_bits.ok()) {
    return util::Err("truncated model-store header");
  }
  FeatureOptions options;
  options.use_apis = *use_apis != 0;
  options.use_permissions = *use_permissions != 0;
  options.use_intents = *use_intents != 0;
  options.frequency_buckets = *buckets;
  const double threshold = std::bit_cast<double>(*threshold_bits);
  // A NaN threshold compares false against every score (every verdict
  // benign); outside [0, 1] it makes one verdict for every app.
  if (!(threshold >= 0.0 && threshold <= 1.0)) {
    return util::Err("model threshold outside [0, 1]");
  }

  KeyApiSelection selection;
  for (auto* list : {&selection.set_c, &selection.set_p, &selection.set_s,
                     &selection.key_apis}) {
    auto ids = ReadIdList(reader, universe.num_apis());
    if (!ids.ok()) {
      return util::Err(ids.error());
    }
    *list = std::move(*ids);
  }
  auto cp = reader.ReadU32();
  auto cs = reader.ReadU32();
  auto ps = reader.ReadU32();
  auto cps = reader.ReadU32();
  if (!cp.ok() || !cs.ok() || !ps.ok() || !cps.ok()) {
    return util::Err("truncated overlap counts");
  }
  selection.overlap_cp = *cp;
  selection.overlap_cs = *cs;
  selection.overlap_ps = *ps;
  selection.overlap_cps = *cps;

  auto forest_size = reader.ReadU32();
  if (!forest_size.ok()) {
    return util::Err("truncated forest header");
  }
  auto forest_bytes = reader.ReadBytes(*forest_size);
  if (!forest_bytes.ok()) {
    return util::Err("truncated forest body");
  }
  auto forest = ml::RandomForest::Deserialize(*forest_bytes);
  if (!forest.ok()) {
    return util::Err("forest: " + forest.error());
  }

  ApiCheckerConfig config;
  config.features = options;
  config.threshold = threshold;
  ApiChecker checker(universe, config);
  checker.RestoreTrained(std::move(selection), options, threshold, std::move(*forest));
  return checker;
}

util::Result<bool> SaveCheckerToFile(const ApiChecker& checker, const std::string& path) {
  const std::vector<uint8_t> bytes = SerializeChecker(checker);
  if (bytes.empty()) {
    return util::Err("checker is not trained");
  }
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) {
    return util::Err("cannot open '" + path + "' for writing");
  }
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
  if (!out) {
    return util::Err("short write to '" + path + "'");
  }
  return true;
}

util::Result<ApiChecker> LoadCheckerFromFile(const android::ApiUniverse& universe,
                                             const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return util::Err("cannot open '" + path + "'");
  }
  std::vector<uint8_t> bytes((std::istreambuf_iterator<char>(in)),
                             std::istreambuf_iterator<char>());
  return DeserializeChecker(universe, bytes);
}

}  // namespace apichecker::core
