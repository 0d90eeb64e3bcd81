// Unit and recovery tests for src/store: WAL framing, torn-tail truncation,
// corrupt-segment quarantine, seq-based last-writer-wins, fsync-policy and
// fault-injection semantics, compaction, and the serve-layer warm start
// (store -> digest cache, stale model versions skipped). The VerdictStoreSoak
// suite (kill-and-restart, compaction under concurrent appends) carries the
// "stress" ctest label and runs under TSan in CI.

#include <atomic>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <limits>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include <gtest/gtest.h>

#include <unistd.h>

#include "core/model_store.h"
#include "core/study.h"
#include "ingest/apk_blob.h"
#include "serve/service.h"
#include "store/io_fault.h"
#include "store/verdict_store.h"
#include "store/wal.h"
#include "synth/corpus.h"

namespace apichecker::store {
namespace {

namespace fs = std::filesystem;

// Fresh scratch directory per call; removed by the fixture-less tests
// themselves (recursively) when they finish, best-effort.
std::string ScratchDir() {
  static std::atomic<uint64_t> counter{0};
  const std::string dir =
      (fs::temp_directory_path() /
       ("apichecker_store_test_" + std::to_string(::getpid()) + "_" +
        std::to_string(counter.fetch_add(1))))
          .string();
  fs::remove_all(dir);
  return dir;
}

VerdictRecord MakeRecord(const std::string& digest, uint32_t version,
                         bool malicious, double score) {
  VerdictRecord record;
  record.digest = digest;
  record.model_version = version;
  record.malicious = malicious;
  record.score = score;
  record.timestamp_ms = 1'700'000'000'000ull;
  return record;
}

StoreConfig SmallStoreConfig(const std::string& dir) {
  StoreConfig config;
  config.dir = dir;
  config.fsync_policy = FsyncPolicy::kOsBuffered;  // Tests don't need real fsync.
  config.auto_compact_segments = 0;                // Explicit Compact() only.
  return config;
}

std::unordered_map<std::string, VerdictRecord> LiveMap(const VerdictStore& store) {
  std::unordered_map<std::string, VerdictRecord> live;
  store.ForEachLive([&](const VerdictRecord& r) { live.emplace(r.digest, r); });
  return live;
}

void AppendFileBytes(const std::string& path, const std::vector<uint8_t>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::app);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
}

// Path of the single *.wal segment in `dir` matching segment id `id`.
std::string SegmentFile(const std::string& dir, uint64_t id) {
  char name[64];
  std::snprintf(name, sizeof(name), "segment-%08llu.wal",
                static_cast<unsigned long long>(id));
  return dir + "/" + name;
}

TEST(Wal, RecordRoundTripsThroughScan) {
  VerdictRecord record = MakeRecord("abc123", 7, true, 0.875);
  record.seq = 42;
  record.flags = 3;
  const std::vector<uint8_t> frame = EncodeRecord(record);

  const SegmentScan scan = ScanSegment(frame);
  EXPECT_TRUE(scan.clean);
  EXPECT_EQ(scan.valid_bytes, frame.size());
  ASSERT_EQ(scan.records.size(), 1u);
  EXPECT_EQ(scan.records[0].digest, "abc123");
  EXPECT_EQ(scan.records[0].seq, 42u);
  EXPECT_EQ(scan.records[0].model_version, 7u);
  EXPECT_EQ(scan.records[0].flags, 3u);
  EXPECT_TRUE(scan.records[0].malicious);
  EXPECT_EQ(scan.records[0].score, 0.875);
}

// A score is a probability. A record whose CRC is valid but whose score is
// NaN, infinite or outside [0, 1] must stop the scan like any undecodable
// frame, so it never replays into the verdict cache.
TEST(Wal, ScanRejectsScoresOutsideUnitIntervalBehindAValidCrc) {
  for (double bad : {std::numeric_limits<double>::quiet_NaN(),
                     std::numeric_limits<double>::infinity(), -0.5, 1.5}) {
    std::vector<uint8_t> bytes = EncodeRecord(MakeRecord("good", 1, false, 0.25));
    const size_t good_bytes = bytes.size();
    const std::vector<uint8_t> hostile = EncodeRecord(MakeRecord("bad", 1, true, bad));
    bytes.insert(bytes.end(), hostile.begin(), hostile.end());

    const SegmentScan scan = ScanSegment(bytes);
    EXPECT_FALSE(scan.clean) << bad;
    EXPECT_EQ(scan.valid_bytes, good_bytes) << bad;
    ASSERT_EQ(scan.records.size(), 1u) << bad;
    EXPECT_EQ(scan.records[0].digest, "good");
  }
  for (double edge : {0.0, 1.0}) {
    const SegmentScan scan = ScanSegment(EncodeRecord(MakeRecord("edge", 1, false, edge)));
    EXPECT_TRUE(scan.clean) << edge;
    ASSERT_EQ(scan.records.size(), 1u);
    EXPECT_EQ(scan.records[0].score, edge);
  }
}

TEST(Wal, ScanStopsAtPartialTrailingFrame) {
  std::vector<uint8_t> bytes = EncodeRecord(MakeRecord("d1", 1, false, 0.1));
  const size_t first_frame = bytes.size();
  const std::vector<uint8_t> second = EncodeRecord(MakeRecord("d2", 1, true, 0.9));
  bytes.insert(bytes.end(), second.begin(), second.begin() + second.size() / 2);

  const SegmentScan scan = ScanSegment(bytes);
  EXPECT_FALSE(scan.clean);
  EXPECT_EQ(scan.valid_bytes, first_frame);
  ASSERT_EQ(scan.records.size(), 1u);
  EXPECT_EQ(scan.records[0].digest, "d1");
}

TEST(Wal, ScanStopsAtFlippedPayloadByte) {
  std::vector<uint8_t> bytes = EncodeRecord(MakeRecord("d1", 1, false, 0.1));
  bytes[bytes.size() / 2] ^= 0xFF;  // Corrupt mid-frame: CRC must catch it.
  const SegmentScan scan = ScanSegment(bytes);
  EXPECT_FALSE(scan.clean);
  EXPECT_EQ(scan.valid_bytes, 0u);
  EXPECT_TRUE(scan.records.empty());
}

TEST(IoFault, ScriptedOrdinalsFireExactlyOnce) {
  IoFaultPlan plan;
  plan.crash_at = {5};
  plan.short_write_at = {2, 3};
  plan.fsync_fail_at = {1};
  IoFaultInjector injector(plan);

  EXPECT_EQ(injector.OnAppend(1), AppendFault::kNone);
  EXPECT_EQ(injector.OnAppend(2), AppendFault::kShortWrite);
  EXPECT_EQ(injector.OnAppend(3), AppendFault::kShortWrite);
  EXPECT_EQ(injector.OnAppend(4), AppendFault::kNone);
  EXPECT_EQ(injector.OnAppend(5), AppendFault::kCrash);
  EXPECT_TRUE(injector.FsyncFails(1));
  EXPECT_FALSE(injector.FsyncFails(2));
}

TEST(IoFault, SeededRatesAreDeterministic) {
  IoFaultPlan plan;
  plan.seed = 99;
  plan.short_write_rate = 0.5;
  IoFaultInjector a(plan);
  IoFaultInjector b(plan);
  for (uint64_t i = 1; i <= 64; ++i) {
    EXPECT_EQ(a.OnAppend(i), b.OnAppend(i)) << "ordinal " << i;
  }
}

TEST(VerdictStore, OpenEmptyDirIsACleanColdStart) {
  const std::string dir = ScratchDir();
  auto store = VerdictStore::Open(SmallStoreConfig(dir));
  ASSERT_TRUE(store.ok()) << store.error();
  const StoreStats stats = (*store)->stats();
  EXPECT_EQ(stats.recovery.segments_scanned, 0u);
  EXPECT_EQ(stats.recovery.records_recovered, 0u);
  EXPECT_EQ(stats.live_records, 0u);
  EXPECT_EQ(stats.segments, 1u);  // Fresh active segment.
  EXPECT_TRUE((*store)->Append(MakeRecord("d", 1, false, 0.2)).ok());
  fs::remove_all(dir);
}

TEST(VerdictStore, AppendCloseReopenReplaysEverything) {
  const std::string dir = ScratchDir();
  {
    auto store = VerdictStore::Open(SmallStoreConfig(dir));
    ASSERT_TRUE(store.ok());
    for (int i = 0; i < 20; ++i) {
      ASSERT_TRUE((*store)
                      ->Append(MakeRecord("digest" + std::to_string(i), 1,
                                          i % 3 == 0, 0.01 * i))
                      .ok());
    }
  }
  auto reopened = VerdictStore::Open(SmallStoreConfig(dir));
  ASSERT_TRUE(reopened.ok());
  const StoreStats stats = (*reopened)->stats();
  EXPECT_EQ(stats.recovery.records_recovered, 20u);
  EXPECT_EQ(stats.recovery.tails_truncated, 0u);
  EXPECT_EQ(stats.live_records, 20u);
  const auto live = LiveMap(**reopened);
  ASSERT_TRUE(live.count("digest3"));
  EXPECT_TRUE(live.at("digest3").malicious);
  EXPECT_EQ(live.at("digest3").model_version, 1u);
  fs::remove_all(dir);
}

TEST(VerdictStore, DuplicateDigestsLastWriterWinsAcrossReopen) {
  const std::string dir = ScratchDir();
  {
    auto store = VerdictStore::Open(SmallStoreConfig(dir));
    ASSERT_TRUE(store.ok());
    ASSERT_TRUE((*store)->Append(MakeRecord("dup", 1, false, 0.1)).ok());
    ASSERT_TRUE((*store)->Append(MakeRecord("other", 1, false, 0.2)).ok());
    ASSERT_TRUE((*store)->Append(MakeRecord("dup", 1, true, 0.95)).ok());
    EXPECT_EQ((*store)->live_size(), 2u);
    EXPECT_EQ((*store)->stats().dead_records, 1u);
  }
  // Second process appends the digest again — seq keeps growing across
  // reopens, so this copy must win over both earlier ones.
  {
    auto store = VerdictStore::Open(SmallStoreConfig(dir));
    ASSERT_TRUE(store.ok());
    ASSERT_TRUE((*store)->Append(MakeRecord("dup", 2, false, 0.5)).ok());
  }
  auto reopened = VerdictStore::Open(SmallStoreConfig(dir));
  ASSERT_TRUE(reopened.ok());
  const auto live = LiveMap(**reopened);
  ASSERT_EQ(live.size(), 2u);
  EXPECT_FALSE(live.at("dup").malicious);
  EXPECT_EQ(live.at("dup").model_version, 2u);
  EXPECT_EQ(live.at("dup").score, 0.5);
  fs::remove_all(dir);
}

TEST(VerdictStore, TornTailTruncatedOnReopen) {
  const std::string dir = ScratchDir();
  uint64_t torn_segment = 0;
  {
    auto store = VerdictStore::Open(SmallStoreConfig(dir));
    ASSERT_TRUE(store.ok());
    ASSERT_TRUE((*store)->Append(MakeRecord("kept1", 1, false, 0.1)).ok());
    ASSERT_TRUE((*store)->Append(MakeRecord("kept2", 1, true, 0.8)).ok());
    torn_segment = (*store)->stats().segments;  // == active id here (1).
  }
  // Simulate a torn write the process never noticed: half a frame appended
  // to the segment after close.
  const std::vector<uint8_t> frame = EncodeRecord(MakeRecord("torn", 1, true, 1.0));
  AppendFileBytes(SegmentFile(dir, torn_segment),
                  {frame.begin(), frame.begin() + frame.size() / 2});

  auto reopened = VerdictStore::Open(SmallStoreConfig(dir));
  ASSERT_TRUE(reopened.ok());
  const StoreStats stats = (*reopened)->stats();
  EXPECT_EQ(stats.recovery.tails_truncated, 1u);
  EXPECT_GT(stats.recovery.bytes_truncated, 0u);
  EXPECT_EQ(stats.recovery.records_recovered, 2u);
  const auto live = LiveMap(**reopened);
  EXPECT_EQ(live.size(), 2u);
  EXPECT_EQ(live.count("torn"), 0u);
  fs::remove_all(dir);
}

// The ISSUE's acceptance scenario: a scripted crash-point mid-append leaves a
// partial frame on disk and kills the store; reopening the same directory
// truncates at the torn record and replays everything acknowledged before it.
TEST(VerdictStore, CrashPointMidAppendTruncatesOnReopenAndReplaysPrior) {
  const std::string dir = ScratchDir();
  StoreConfig config = SmallStoreConfig(dir);
  config.fault_plan.crash_at = {3};
  {
    auto store = VerdictStore::Open(config);
    ASSERT_TRUE(store.ok());
    ASSERT_TRUE((*store)->Append(MakeRecord("ack1", 1, false, 0.1)).ok());
    ASSERT_TRUE((*store)->Append(MakeRecord("ack2", 1, true, 0.9)).ok());
    auto crashed = (*store)->Append(MakeRecord("lost", 1, false, 0.3));
    ASSERT_FALSE(crashed.ok());
    EXPECT_NE(crashed.error().find("crash-point"), std::string::npos);
    // The store is dead until reopen: everything after the crash is rejected.
    EXPECT_FALSE((*store)->Append(MakeRecord("after", 1, false, 0.4)).ok());
    EXPECT_FALSE((*store)->Flush().ok());
    EXPECT_TRUE((*store)->stats().failed);
  }
  auto reopened = VerdictStore::Open(SmallStoreConfig(dir));
  ASSERT_TRUE(reopened.ok());
  const StoreStats stats = (*reopened)->stats();
  EXPECT_EQ(stats.recovery.tails_truncated, 1u);   // The partial "lost" frame.
  EXPECT_GT(stats.recovery.bytes_truncated, 0u);
  EXPECT_EQ(stats.recovery.records_recovered, 2u);
  EXPECT_FALSE(stats.failed);
  const auto live = LiveMap(**reopened);
  ASSERT_EQ(live.size(), 2u);
  EXPECT_FALSE(live.at("ack1").malicious);
  EXPECT_TRUE(live.at("ack2").malicious);
  EXPECT_EQ(live.count("lost"), 0u);
  // The reopened store keeps working.
  EXPECT_TRUE((*reopened)->Append(MakeRecord("fresh", 1, false, 0.5)).ok());
  fs::remove_all(dir);
}

TEST(VerdictStore, ShortWriteIsRepairedInPlaceAndReported) {
  const std::string dir = ScratchDir();
  StoreConfig config = SmallStoreConfig(dir);
  config.fault_plan.short_write_at = {2};
  auto store = VerdictStore::Open(config);
  ASSERT_TRUE(store.ok());
  ASSERT_TRUE((*store)->Append(MakeRecord("ok1", 1, false, 0.1)).ok());
  auto shorted = (*store)->Append(MakeRecord("dropped", 1, true, 0.7));
  ASSERT_FALSE(shorted.ok());
  EXPECT_NE(shorted.error().find("short write"), std::string::npos);
  // Unlike a crash-point the store stays alive; the torn bytes were truncated
  // away in place, so the next append lands on a clean tail.
  ASSERT_TRUE((*store)->Append(MakeRecord("ok2", 1, false, 0.2)).ok());
  EXPECT_FALSE((*store)->stats().failed);
  EXPECT_EQ((*store)->stats().injected_faults, 1u);
  store->reset();

  auto reopened = VerdictStore::Open(SmallStoreConfig(dir));
  ASSERT_TRUE(reopened.ok());
  const StoreStats stats = (*reopened)->stats();
  EXPECT_EQ(stats.recovery.tails_truncated, 0u);  // Repair left a clean file.
  EXPECT_EQ(stats.recovery.records_recovered, 2u);
  EXPECT_EQ(LiveMap(**reopened).count("dropped"), 0u);
  fs::remove_all(dir);
}

TEST(VerdictStore, FsyncFailureIsVisibleButNonFatal) {
  const std::string dir = ScratchDir();
  StoreConfig config = SmallStoreConfig(dir);
  config.fsync_policy = FsyncPolicy::kEveryRecord;
  config.fault_plan.fsync_fail_at = {2};
  auto store = VerdictStore::Open(config);
  ASSERT_TRUE(store.ok());
  ASSERT_TRUE((*store)->Append(MakeRecord("a", 1, false, 0.1)).ok());
  auto failed = (*store)->Append(MakeRecord("b", 1, false, 0.2));
  ASSERT_FALSE(failed.ok());
  EXPECT_NE(failed.error().find("fsync"), std::string::npos);
  // The record hit the file (only durability is uncertain) and the store is
  // not dead: the next append succeeds and re-fsyncs the tail.
  ASSERT_TRUE((*store)->Append(MakeRecord("c", 1, false, 0.3)).ok());
  EXPECT_EQ((*store)->live_size(), 3u);
  EXPECT_EQ((*store)->stats().fsync_failures, 1u);
  fs::remove_all(dir);
}

TEST(VerdictStore, CorruptSealedSegmentIsQuarantinedNotFatal) {
  const std::string dir = ScratchDir();
  StoreConfig config = SmallStoreConfig(dir);
  config.segment_max_bytes = 4096;  // Floor value: rotate every ~64 records.
  {
    auto store = VerdictStore::Open(config);
    ASSERT_TRUE(store.ok());
    for (int i = 0; i < 200; ++i) {
      ASSERT_TRUE((*store)
                      ->Append(MakeRecord("digest" + std::to_string(i), 1,
                                          false, 0.001 * i))
                      .ok());
    }
    ASSERT_GE((*store)->stats().segments, 3u) << "test needs >= 2 sealed segments";
  }
  // Flip one byte in the middle of the FIRST segment — a sealed file, so the
  // damage is corruption, not a torn tail, and recovery must quarantine it.
  const std::string victim = SegmentFile(dir, 1);
  {
    std::fstream f(victim, std::ios::binary | std::ios::in | std::ios::out);
    ASSERT_TRUE(f.good());
    f.seekp(100, std::ios::beg);
    char byte = 0;
    f.seekg(100, std::ios::beg);
    f.get(byte);
    byte = static_cast<char>(byte ^ 0xFF);
    f.seekp(100, std::ios::beg);
    f.put(byte);
  }

  auto reopened = VerdictStore::Open(SmallStoreConfig(dir));
  ASSERT_TRUE(reopened.ok());
  const StoreStats stats = (*reopened)->stats();
  EXPECT_EQ(stats.recovery.segments_quarantined, 1u);
  EXPECT_GT(stats.recovery.records_quarantined, 0u);
  EXPECT_LT(stats.live_records, 200u);  // The quarantined records are excluded…
  EXPECT_GT(stats.live_records, 0u);    // …but everything else survived.
  EXPECT_FALSE(fs::exists(victim));
  EXPECT_TRUE(fs::exists(victim.substr(0, victim.size() - 4) + ".quarantined"));
  // Serving continues: the store accepts appends after quarantining.
  EXPECT_TRUE((*reopened)->Append(MakeRecord("new", 1, false, 0.5)).ok());
  fs::remove_all(dir);
}

TEST(VerdictStore, CompactionDropsDeadRecordsAndSurvivesReopen) {
  const std::string dir = ScratchDir();
  StoreConfig config = SmallStoreConfig(dir);
  config.segment_max_bytes = 4096;
  auto store = VerdictStore::Open(config);
  ASSERT_TRUE(store.ok());
  // 40 digests overwritten 10 times each: lots of dead frames, many segments.
  for (int round = 0; round < 10; ++round) {
    for (int i = 0; i < 40; ++i) {
      ASSERT_TRUE((*store)
                      ->Append(MakeRecord("digest" + std::to_string(i), 1,
                                          round == 9, 0.1 * round))
                      .ok());
    }
  }
  const StoreStats before = (*store)->stats();
  EXPECT_EQ(before.live_records, 40u);
  EXPECT_GT(before.dead_records, 0u);
  EXPECT_GT(before.segments, 2u);

  ASSERT_TRUE((*store)->Compact().ok());
  const StoreStats after = (*store)->stats();
  EXPECT_EQ(after.live_records, 40u);
  EXPECT_EQ(after.compactions, 1u);
  EXPECT_LT(after.dead_records, before.dead_records);
  EXPECT_LE(after.segments, 2u);  // Compacted segment + active.
  store->reset();

  auto reopened = VerdictStore::Open(SmallStoreConfig(dir));
  ASSERT_TRUE(reopened.ok());
  const auto live = LiveMap(**reopened);
  ASSERT_EQ(live.size(), 40u);
  for (const auto& [digest, record] : live) {
    EXPECT_TRUE(record.malicious) << digest;  // Round-9 copies won everywhere.
    EXPECT_EQ(record.score, 0.9);
  }
  fs::remove_all(dir);
}

TEST(VerdictStore, AutoCompactionTriggersAtRotation) {
  const std::string dir = ScratchDir();
  StoreConfig config = SmallStoreConfig(dir);
  config.segment_max_bytes = 4096;
  config.auto_compact_segments = 2;
  auto store = VerdictStore::Open(config);
  ASSERT_TRUE(store.ok());
  for (int round = 0; round < 12; ++round) {
    for (int i = 0; i < 40; ++i) {
      ASSERT_TRUE(
          (*store)
              ->Append(MakeRecord("digest" + std::to_string(i), 1, false, 0.1))
              .ok());
    }
  }
  const StoreStats stats = (*store)->stats();
  EXPECT_GT(stats.compactions, 0u);
  EXPECT_EQ(stats.live_records, 40u);
  fs::remove_all(dir);
}

// Two stores that evolved independently assign overlapping seq numbers to
// different digests (and different verdicts to the same digest). A full
// round-trip exchange — A's export into B, B's export into A — must converge
// both live sets, with seq strictly-greater deciding the shared digest and
// ties keeping the local copy.
TEST(VerdictStoreExchange, RoundTripWithConflictingSeqsConverges) {
  const std::string dir_a = ScratchDir();
  const std::string dir_b = ScratchDir();
  const std::string export_a = ScratchDir();
  const std::string export_b = ScratchDir();

  auto store_a = VerdictStore::Open(SmallStoreConfig(dir_a));
  auto store_b = VerdictStore::Open(SmallStoreConfig(dir_b));
  ASSERT_TRUE(store_a.ok());
  ASSERT_TRUE(store_b.ok());

  // A: "shared" at seq 1, "a-only" at seq 2.
  ASSERT_TRUE((*store_a)->Append(MakeRecord("shared", 1, false, 0.10)).ok());
  ASSERT_TRUE((*store_a)->Append(MakeRecord("a-only", 1, false, 0.20)).ok());
  // B: "b-only" at seq 1, then a NEWER "shared" at seq 2 — same seq as A's
  // "a-only", greater than A's "shared".
  ASSERT_TRUE((*store_b)->Append(MakeRecord("b-only", 1, false, 0.30)).ok());
  ASSERT_TRUE((*store_b)->Append(MakeRecord("shared", 2, true, 0.95)).ok());

  auto exported_b = (*store_b)->ExportSegments(export_b);
  ASSERT_TRUE(exported_b.ok());
  EXPECT_GE(exported_b->segments, 1u);
  EXPECT_EQ(exported_b->records, 2u);

  // B -> A: both of B's records are newer or new, so both apply.
  auto into_a = (*store_a)->ImportSegments(export_b);
  ASSERT_TRUE(into_a.ok());
  EXPECT_EQ(into_a->records, 2u);
  EXPECT_EQ(into_a->superseded, 0u);

  // A -> B (export AFTER the merge, so it carries B's seq-2 "shared" back):
  // "a-only" applies, "shared" and "b-only" tie on seq and are superseded.
  auto exported_a = (*store_a)->ExportSegments(export_a);
  ASSERT_TRUE(exported_a.ok());
  auto into_b = (*store_b)->ImportSegments(export_a);
  ASSERT_TRUE(into_b.ok());
  EXPECT_EQ(into_b->records, 1u);
  EXPECT_EQ(into_b->superseded, 3u);

  const auto live_a = LiveMap(**store_a);
  const auto live_b = LiveMap(**store_b);
  ASSERT_EQ(live_a.size(), 3u);
  ASSERT_EQ(live_b.size(), 3u);
  for (const auto& [digest, record] : live_a) {
    ASSERT_TRUE(live_b.count(digest)) << digest;
    EXPECT_EQ(live_b.at(digest).seq, record.seq) << digest;
    EXPECT_EQ(live_b.at(digest).malicious, record.malicious) << digest;
    EXPECT_EQ(live_b.at(digest).score, record.score) << digest;
  }
  // The conflicting digest resolved to B's newer verdict on both sides.
  EXPECT_TRUE(live_a.at("shared").malicious);
  EXPECT_EQ(live_a.at("shared").model_version, 2u);

  // The merge is durable: a post-import append must outrank every imported
  // seq, and replay after reopen converges to the same live set.
  ASSERT_TRUE((*store_a)->Append(MakeRecord("shared", 3, false, 0.01)).ok());
  store_a->reset();
  auto reopened = VerdictStore::Open(SmallStoreConfig(dir_a));
  ASSERT_TRUE(reopened.ok());
  const auto live = LiveMap(**reopened);
  ASSERT_EQ(live.size(), 3u);
  EXPECT_FALSE(live.at("shared").malicious);
  EXPECT_EQ(live.at("shared").model_version, 3u);

  for (const auto& dir : {dir_a, dir_b, export_a, export_b}) {
    fs::remove_all(dir);
  }
}

TEST(VerdictStoreExchange, ReimportIsIdempotent) {
  const std::string dir_a = ScratchDir();
  const std::string dir_b = ScratchDir();
  const std::string export_dir = ScratchDir();
  auto store_a = VerdictStore::Open(SmallStoreConfig(dir_a));
  auto store_b = VerdictStore::Open(SmallStoreConfig(dir_b));
  ASSERT_TRUE(store_a.ok());
  ASSERT_TRUE(store_b.ok());
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(
        (*store_a)
            ->Append(MakeRecord("digest" + std::to_string(i), 1, false, 0.1))
            .ok());
  }
  ASSERT_TRUE((*store_a)->ExportSegments(export_dir).ok());

  auto first = (*store_b)->ImportSegments(export_dir);
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(first->records, 8u);
  // Same export again: every record ties on seq against the local copy.
  auto second = (*store_b)->ImportSegments(export_dir);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second->records, 0u);
  EXPECT_EQ(second->superseded, 8u);
  EXPECT_EQ((*store_b)->live_size(), 8u);

  // Self-exchange is rejected rather than looping records through itself.
  EXPECT_FALSE((*store_b)->ImportSegments((*store_b)->config().dir).ok());
  EXPECT_FALSE((*store_b)->ExportSegments((*store_b)->config().dir).ok());

  for (const auto& dir : {dir_a, dir_b, export_dir}) {
    fs::remove_all(dir);
  }
}

TEST(VerdictStoreExchange, CorruptTransferSegmentSkippedNeverPartiallyApplied) {
  const std::string dir_a = ScratchDir();
  const std::string dir_b = ScratchDir();
  const std::string export_dir = ScratchDir();
  auto store_a = VerdictStore::Open(SmallStoreConfig(dir_a));
  auto store_b = VerdictStore::Open(SmallStoreConfig(dir_b));
  ASSERT_TRUE(store_a.ok());
  ASSERT_TRUE(store_b.ok());
  for (int i = 0; i < 6; ++i) {
    ASSERT_TRUE(
        (*store_a)
            ->Append(MakeRecord("digest" + std::to_string(i), 1, false, 0.1))
            .ok());
  }
  ASSERT_TRUE((*store_a)->ExportSegments(export_dir).ok());

  // Flip one byte early in the only transferred segment: the scan fails, and
  // the importer must skip the file wholesale — applying the records before
  // the corruption would make the merge order-dependent.
  std::string segment;
  for (const auto& entry : fs::directory_iterator(export_dir)) {
    segment = entry.path().string();
  }
  ASSERT_FALSE(segment.empty());
  {
    std::fstream f(segment, std::ios::binary | std::ios::in | std::ios::out);
    f.seekp(10);
    f.put('\xff');
  }
  auto imported = (*store_b)->ImportSegments(export_dir);
  ASSERT_TRUE(imported.ok());
  EXPECT_EQ(imported->segments, 0u);
  EXPECT_EQ(imported->records, 0u);
  EXPECT_EQ(imported->skipped_unclean, 1u);
  EXPECT_EQ((*store_b)->live_size(), 0u);

  for (const auto& dir : {dir_a, dir_b, export_dir}) {
    fs::remove_all(dir);
  }
}

TEST(ParseFsyncPolicy, NamesRoundTrip) {
  for (FsyncPolicy policy : {FsyncPolicy::kEveryRecord, FsyncPolicy::kGroupCommit,
                             FsyncPolicy::kOsBuffered}) {
    auto parsed = ParseFsyncPolicy(FsyncPolicyName(policy));
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ(*parsed, policy);
  }
  EXPECT_FALSE(ParseFsyncPolicy("laissez-faire").ok());
}

}  // namespace
}  // namespace apichecker::store

// Serve-layer integration: warm start, stale-version filtering, and the
// kill-and-restart soak. Lives in the serve namespace for the test helpers.
namespace apichecker::serve {
namespace {

namespace fs = std::filesystem;

const android::ApiUniverse& TestUniverse() {
  static const android::ApiUniverse universe = [] {
    android::UniverseConfig config;
    config.num_apis = 6'000;
    return android::ApiUniverse::Generate(config);
  }();
  return universe;
}

const std::vector<uint8_t>& TrainedBlob() {
  static const std::vector<uint8_t> blob = [] {
    synth::CorpusConfig corpus_config;
    synth::CorpusGenerator generator(TestUniverse(), corpus_config);
    core::StudyConfig study_config;
    study_config.num_apps = 1'200;
    const core::StudyDataset study =
        core::RunStudy(TestUniverse(), generator, study_config);
    core::ApiChecker checker(TestUniverse(), {});
    checker.TrainFromStudy(study);
    return core::SerializeChecker(checker);
  }();
  return blob;
}

core::ApiChecker TrainedChecker() {
  auto checker = core::DeserializeChecker(TestUniverse(), TrainedBlob());
  EXPECT_TRUE(checker.ok());
  return std::move(*checker);
}

std::vector<std::vector<uint8_t>> MakeApks(size_t count, uint64_t seed) {
  synth::CorpusConfig config;
  config.seed = seed;
  config.update_fraction = 0.0;
  synth::CorpusGenerator generator(TestUniverse(), config);
  std::vector<std::vector<uint8_t>> apks;
  for (size_t i = 0; i < count; ++i) {
    apks.push_back(synth::BuildApkBytes(generator.Next(), TestUniverse()));
  }
  return apks;
}

ServiceConfig StoreServiceConfig(const std::string& dir) {
  ServiceConfig config;
  config.num_shards = 2;
  config.shard_capacity = 64;
  config.farm.num_emulators = 4;
  config.farm.worker_threads = 2;
  config.scheduler.batch_size = 4;
  config.scheduler.max_linger = std::chrono::milliseconds(5);
  config.store.dir = dir;
  config.store.fsync_policy = store::FsyncPolicy::kOsBuffered;
  return config;
}

// Runs `apks` through a fresh service instance on `dir` and returns its final
// stats. Every submission must resolve (the zero-lost invariant is asserted).
ServiceStats RunOnce(const std::string& dir,
                     const std::vector<std::vector<uint8_t>>& apks,
                     const store::IoFaultPlan& fault_plan = {}) {
  ServiceConfig config = StoreServiceConfig(dir);
  config.store.fault_plan = fault_plan;
  VettingService service(TestUniverse(), config, TrainedChecker());
  std::vector<std::future<VettingResult>> futures;
  for (const auto& apk : apks) {
    Submission submission;
    submission.blob = ingest::ApkBlob::FromBytes(apk);
    auto accepted = service.Submit(std::move(submission));
    if (accepted.ok()) {
      futures.push_back(std::move(*accepted));
    }
  }
  for (auto& future : futures) {
    future.get();
  }
  service.Shutdown();
  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.accepted, stats.resolved()) << "lost submissions";
  return stats;
}

TEST(VettingServiceStore, RestartWarmStartsCacheFromStore) {
  const std::string dir = store::ScratchDir();
  const auto apks = MakeApks(12, /*seed=*/7);

  const ServiceStats cold = RunOnce(dir, apks);
  EXPECT_EQ(cold.warm_start_hits, 0u);
  EXPECT_EQ(cold.completed, 12u);

  // Same trace against a new process on the same store dir: every digest was
  // persisted, so the whole trace resolves from the warm-started cache.
  const ServiceStats warm = RunOnce(dir, apks);
  EXPECT_EQ(warm.completed, 12u);
  EXPECT_GT(warm.warm_start_hits, 0u);
  EXPECT_EQ(warm.warm_start_hits, warm.cache_hits);
  fs::remove_all(dir);
}

TEST(VettingServiceStore, StaleModelVersionSkippedOnWarmStart) {
  const std::string dir = store::ScratchDir();
  {
    auto raw = store::VerdictStore::Open([&] {
      store::StoreConfig config;
      config.dir = dir;
      config.fsync_policy = store::FsyncPolicy::kOsBuffered;
      return config;
    }());
    ASSERT_TRUE(raw.ok());
    store::VerdictRecord current;
    current.digest = "digest-current";
    current.model_version = 1;  // A fresh service publishes its model as v1.
    current.malicious = true;
    ASSERT_TRUE((*raw)->Append(current).ok());
    store::VerdictRecord stale;
    stale.digest = "digest-stale";
    stale.model_version = 99;  // From a model this process will never serve.
    ASSERT_TRUE((*raw)->Append(stale).ok());
  }

  ServiceConfig config = StoreServiceConfig(dir);
  config.start_paused = true;  // No traffic needed; just inspect the cache.
  VettingService service(TestUniverse(), config, TrainedChecker());
  EXPECT_EQ(service.cache().size(), 1u);  // Only the version-1 record warmed.
  service.Shutdown();
  fs::remove_all(dir);
}

TEST(VettingServiceStore, ShutdownFlushesInFlightCompletionsToStore) {
  const std::string dir = store::ScratchDir();
  const auto apks = MakeApks(10, /*seed=*/21);
  // Submit and shut down immediately WITHOUT waiting on the futures: Shutdown
  // must drain the pool and flush every completion to the store before the
  // service tears down (the in-flight-completions ordering fix).
  {
    ServiceConfig config = StoreServiceConfig(dir);
    VettingService service(TestUniverse(), config, TrainedChecker());
    std::vector<std::future<VettingResult>> futures;
    for (const auto& apk : apks) {
      Submission submission;
      submission.blob = ingest::ApkBlob::FromBytes(apk);
      auto accepted = service.Submit(std::move(submission));
      ASSERT_TRUE(accepted.ok());
      futures.push_back(std::move(*accepted));
    }
    service.Shutdown();
    const ServiceStats stats = service.stats();
    ASSERT_EQ(stats.accepted, stats.resolved());
  }
  auto reopened = store::VerdictStore::Open([&] {
    store::StoreConfig config;
    config.dir = dir;
    return config;
  }());
  ASSERT_TRUE(reopened.ok());
  EXPECT_EQ((*reopened)->stats().recovery.records_recovered, 10u);
  fs::remove_all(dir);
}

// Stress suite (ctest label "stress"; runs under TSan in CI).

// Repeated service restarts on one store directory, with a store crash-point
// injected in some rounds: acknowledged verdicts survive every restart, no
// submission is ever lost, and from the second round on the warm-started
// cache demonstrably serves hits.
TEST(VerdictStoreSoak, KillAndRestartZeroLostVerdictsAndWarmHits) {
  const std::string dir = store::ScratchDir();
  const auto apks = MakeApks(16, /*seed=*/33);
  constexpr int kRounds = 6;
  uint64_t total_warm_hits = 0;
  for (int round = 0; round < kRounds; ++round) {
    store::IoFaultPlan fault_plan;
    if (round % 2 == 1) {
      // Kill the store partway through the round's appends; the service must
      // keep resolving submissions and the next round must recover cleanly.
      fault_plan.crash_at = {5};
    }
    const ServiceStats stats = RunOnce(dir, apks, fault_plan);
    EXPECT_EQ(stats.accepted, stats.resolved()) << "round " << round;
    if (round > 0) {
      EXPECT_GT(stats.warm_start_hits, 0u) << "round " << round;
    }
    total_warm_hits += stats.warm_start_hits;
  }
  EXPECT_GT(total_warm_hits, 0u);

  // Nothing acknowledged was lost: the final store holds only valid records
  // and recovery reports truncations, never an open failure.
  auto store = store::VerdictStore::Open([&] {
    store::StoreConfig config;
    config.dir = dir;
    return config;
  }());
  ASSERT_TRUE(store.ok()) << store.error();
  EXPECT_GT((*store)->live_size(), 0u);
  EXPECT_EQ((*store)->stats().recovery.segments_quarantined, 0u);
  fs::remove_all(dir);
}

// Store-level crash soak: with fsync-every-record, every append the store
// acknowledged must be present after a scripted crash + reopen — zero lost
// acknowledged verdicts, bit-for-bit.
TEST(VerdictStoreSoak, ScriptedCrashesNeverLoseAcknowledgedRecords) {
  const std::string dir = store::ScratchDir();
  std::unordered_map<std::string, double> acknowledged;
  uint64_t next_digest = 0;
  for (int round = 0; round < 10; ++round) {
    store::StoreConfig config;
    config.dir = dir;
    config.fsync_policy = store::FsyncPolicy::kEveryRecord;
    config.fault_plan.crash_at = {static_cast<uint64_t>(3 + round)};
    auto store = store::VerdictStore::Open(config);
    ASSERT_TRUE(store.ok()) << store.error();

    // Everything acknowledged in previous rounds must have been replayed.
    const auto live = store::LiveMap(**store);
    for (const auto& [digest, score] : acknowledged) {
      auto it = live.find(digest);
      ASSERT_NE(it, live.end()) << "lost acknowledged record " << digest;
      EXPECT_EQ(it->second.score, score) << digest;
    }

    for (int i = 0; i < 16; ++i) {
      const std::string digest = "soak" + std::to_string(next_digest++);
      const double score = 0.001 * static_cast<double>(next_digest);
      auto appended =
          (*store)->Append(store::MakeRecord(digest, 1, false, score));
      if (appended.ok()) {
        acknowledged.emplace(digest, score);
      } else {
        break;  // Crash-point fired; the store is dead for this round.
      }
    }
  }
  EXPECT_GT(acknowledged.size(), 0u);
  fs::remove_all(dir);
}

// Compaction runs while appenders hammer the store from multiple threads; the
// final live set must equal exactly what the appenders wrote last, both in
// memory and after a reopen.
TEST(VerdictStoreSoak, CompactionUnderConcurrentAppends) {
  const std::string dir = store::ScratchDir();
  store::StoreConfig config;
  config.dir = dir;
  config.fsync_policy = store::FsyncPolicy::kOsBuffered;
  config.segment_max_bytes = 4096;
  config.auto_compact_segments = 0;
  auto opened = store::VerdictStore::Open(config);
  ASSERT_TRUE(opened.ok());
  store::VerdictStore& store = **opened;

  constexpr int kThreads = 4;
  constexpr int kRounds = 50;
  constexpr int kDigestsPerThread = 8;
  std::vector<std::thread> appenders;
  std::atomic<bool> stop{false};
  for (int t = 0; t < kThreads; ++t) {
    appenders.emplace_back([&, t] {
      for (int round = 0; round < kRounds; ++round) {
        for (int i = 0; i < kDigestsPerThread; ++i) {
          const std::string digest =
              "t" + std::to_string(t) + "_d" + std::to_string(i);
          ASSERT_TRUE(
              store.Append(store::MakeRecord(digest, 1, round == kRounds - 1,
                                             0.01 * round))
                  .ok());
        }
      }
    });
  }
  std::thread compactor([&] {
    while (!stop.load(std::memory_order_acquire)) {
      ASSERT_TRUE(store.Compact().ok());
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });
  for (auto& thread : appenders) {
    thread.join();
  }
  stop.store(true, std::memory_order_release);
  compactor.join();
  ASSERT_TRUE(store.Compact().ok());

  const size_t expected_live = kThreads * kDigestsPerThread;
  EXPECT_EQ(store.live_size(), expected_live);
  auto live = store::LiveMap(store);
  for (const auto& [digest, record] : live) {
    EXPECT_TRUE(record.malicious) << digest;  // Last round won everywhere.
  }
  opened->reset();

  auto reopened = store::VerdictStore::Open(config);
  ASSERT_TRUE(reopened.ok());
  EXPECT_EQ((*reopened)->live_size(), expected_live);
  for (const auto& [digest, record] : store::LiveMap(**reopened)) {
    EXPECT_TRUE(record.malicious) << digest;
  }
  fs::remove_all(dir);
}

}  // namespace
}  // namespace apichecker::serve
