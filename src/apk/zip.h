// Minimal ZIP archive codec (store method only, CRC-32 validated), the
// container format of Android APKs. The writer emits local file headers, a
// central directory, and an end-of-central-directory record; the reader
// locates the EOCD from the tail, walks the central directory, and validates
// each entry's CRC — the same structural work a real APK parser performs.

#ifndef APICHECKER_APK_ZIP_H_
#define APICHECKER_APK_ZIP_H_

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "util/result.h"

namespace apichecker::apk {

class ZipWriter {
 public:
  // Entry names must be unique and non-empty. Data is stored uncompressed.
  void AddEntry(const std::string& name, std::span<const uint8_t> data);

  // Appends the central directory and EOCD; the writer is consumed.
  std::vector<uint8_t> Finish();

 private:
  struct EntryMeta {
    std::string name;
    uint32_t crc32 = 0;
    uint32_t size = 0;
    uint32_t local_header_offset = 0;
  };

  std::vector<uint8_t> payload_;
  std::vector<EntryMeta> entries_;
};

struct ZipEntry {
  std::string name;
  std::vector<uint8_t> data;
};

// One entry viewed in place: both fields point into the archive bytes and
// are valid only as long as those are.
struct ZipEntryView {
  std::string_view name;
  std::span<const uint8_t> data;
};

// Walks and validates the whole archive (EOCD, central directory, local
// headers, every entry's CRC) without copying an entry, and returns the
// entries in central-directory order. Every check the reader makes lives
// here; ZipReader::Parse copies out of it.
util::Result<std::vector<ZipEntryView>> ViewZipEntries(std::span<const uint8_t> bytes);

class ZipReader {
 public:
  // Parses and CRC-validates the whole archive, copying every entry.
  static util::Result<ZipReader> Parse(std::span<const uint8_t> bytes);

  const std::vector<ZipEntry>& entries() const { return entries_; }

  // Returns the entry's data or null if absent.
  const std::vector<uint8_t>* Find(const std::string& name) const;

 private:
  std::vector<ZipEntry> entries_;
};

}  // namespace apichecker::apk

#endif  // APICHECKER_APK_ZIP_H_
