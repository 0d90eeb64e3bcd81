// Tests for src/gateway: the network ingest gateway and its hostile-client
// harness. Every failure mode is scripted through gateway::NetFaultPlan on
// the client side — slow-loris stalls, mid-stream disconnects, torn and
// corrupted frames, trickle throughput — and every test closes with the
// extended drain invariant: uploads_accepted == completed + aborted. The soak
// suite doubles as the TSan stress target (ctest -L stress).

#include <atomic>
#include <chrono>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/model_store.h"
#include "core/study.h"
#include "fabric/messages.h"
#include "fabric/transport.h"
#include "fabric/wire.h"
#include "gateway/client.h"
#include "gateway/gateway.h"
#include "gateway/net_fault.h"
#include "obs/labels.h"
#include "obs/metrics.h"
#include "obs/names.h"
#include "serve/service.h"
#include "serve/types.h"
#include "synth/corpus.h"
#include "util/sha1.h"

namespace apichecker::gateway {
namespace {

namespace fs = std::filesystem;
using std::chrono::milliseconds;

const android::ApiUniverse& TestUniverse() {
  static const android::ApiUniverse universe = [] {
    android::UniverseConfig config;
    config.num_apis = 6'000;
    return android::ApiUniverse::Generate(config);
  }();
  return universe;
}

core::ApiChecker TrainedChecker() {
  static const std::vector<uint8_t> blob = [] {
    synth::CorpusConfig corpus_config;
    synth::CorpusGenerator generator(TestUniverse(), corpus_config);
    core::StudyConfig study_config;
    study_config.num_apps = 1'000;
    const core::StudyDataset study =
        core::RunStudy(TestUniverse(), generator, study_config);
    core::ApiChecker checker(TestUniverse(), {});
    checker.TrainFromStudy(study);
    return core::SerializeChecker(checker);
  }();
  auto checker = core::DeserializeChecker(TestUniverse(), blob);
  EXPECT_TRUE(checker.ok());
  return std::move(*checker);
}

std::vector<uint8_t> MakeApkBytes(uint64_t seed) {
  synth::CorpusConfig config;
  config.seed = seed;
  config.update_fraction = 0.0;  // Fresh packages only: distinct bytes.
  synth::CorpusGenerator generator(TestUniverse(), config);
  return synth::BuildApkBytes(generator.Next(), TestUniverse());
}

// Fresh unix-socket path per call, under the system temp dir (socket paths
// have a ~100-char limit, so no deep scratch trees).
std::string ScratchSocket() {
  static std::atomic<uint64_t> counter{0};
  return (fs::temp_directory_path() /
          ("apichecker_gw_" + std::to_string(::getpid()) + "_" +
           std::to_string(counter.fetch_add(1)) + ".sock"))
      .string();
}

serve::ServiceConfig SmallServiceConfig() {
  serve::ServiceConfig config;
  config.num_shards = 2;
  config.shard_capacity = 64;
  config.farm.num_emulators = 4;
  config.scheduler.batch_size = 4;
  config.scheduler.max_linger = milliseconds(5);
  return config;
}

uint64_t CounterValue(const std::string& name) {
  return obs::MetricsRegistry::Default().counter(name.c_str()).value();
}

// Service + gateway pair with the required teardown order baked in: the
// gateway drains BEFORE the service shuts down, because connection threads
// may be parked in future.get() and only the live scheduler resolves them.
class Harness {
 public:
  explicit Harness(GatewayConfig gw_config = {},
                   serve::ServiceConfig service_config = SmallServiceConfig())
      : service_(TestUniverse(), service_config, TrainedChecker()) {
    if (gw_config.endpoint.empty()) {
      gw_config.endpoint = "unix:" + ScratchSocket();
    }
    gateway_ = std::make_unique<IngestGateway>(service_, gw_config);
    auto bound = gateway_->Start();
    EXPECT_TRUE(bound.ok()) << (bound.ok() ? "" : bound.error());
  }

  ~Harness() {
    gateway_->Stop();
    service_.Shutdown();
  }

  std::string endpoint() const { return gateway_->bound_endpoint().ToString(); }
  IngestGateway& gateway() { return *gateway_; }
  serve::VettingService& service() { return service_; }

 private:
  serve::VettingService service_;
  std::unique_ptr<IngestGateway> gateway_;
};

UploadClientConfig FastClient(const std::string& endpoint) {
  UploadClientConfig config;
  config.endpoint = endpoint;
  config.chunk_bytes = 4 * 1024;
  config.connect_timeout = milliseconds(1'000);
  config.io_timeout = milliseconds(10'000);
  config.max_attempts = 2;
  config.backoff_base = milliseconds(10);
  config.backoff_cap = milliseconds(50);
  return config;
}

TEST(IngestGateway, HappyPathUploadThenDigestFastpathOnResubmit) {
  Harness harness;
  const std::vector<uint8_t> apk = MakeApkBytes(101);

  UploadClient client(FastClient(harness.endpoint()));
  auto first = client.Upload(apk);
  ASSERT_TRUE(first.ok()) << first.error();
  EXPECT_EQ(first->verdict.status,
            static_cast<uint8_t>(serve::VetStatus::kOk));
  EXPECT_EQ(first->attempts, 1u);
  EXPECT_EQ(first->bytes_sent, apk.size());
  EXPECT_FALSE(first->early_verdict);

  // Same bytes again: the declared digest hits the verdict cache and the
  // gateway answers at open time — zero body bytes cross the wire.
  auto second = client.Upload(apk);
  ASSERT_TRUE(second.ok()) << second.error();
  EXPECT_EQ(second->verdict.status,
            static_cast<uint8_t>(serve::VetStatus::kOk));
  EXPECT_TRUE(second->early_verdict);
  EXPECT_TRUE(second->verdict.from_cache);
  EXPECT_EQ(second->bytes_sent, 0u);
  EXPECT_EQ(second->verdict.malicious, first->verdict.malicious);

  const GatewayStats stats = harness.gateway().stats();
  EXPECT_EQ(stats.accepted, 2u);
  EXPECT_EQ(stats.completed, 2u);
  EXPECT_EQ(stats.aborted, 0u);
  EXPECT_EQ(stats.early_verdicts, 1u);
  EXPECT_TRUE(stats.Balanced());
}

TEST(IngestGateway, ZeroLengthUploadResolvesWithTerminalVerdict) {
  Harness harness;
  UploadClient client(FastClient(harness.endpoint()));
  auto outcome = client.Upload({});
  ASSERT_TRUE(outcome.ok()) << outcome.error();
  // An empty body is not a transport failure — it parses (and fails) like
  // any other hostile APK, producing a real verdict.
  EXPECT_NE(outcome->verdict.status,
            static_cast<uint8_t>(serve::VetStatus::kAbortedUpload));
  const GatewayStats stats = harness.gateway().stats();
  EXPECT_EQ(stats.accepted, 1u);
  EXPECT_EQ(stats.completed, 1u);
  EXPECT_TRUE(stats.Balanced());
}

TEST(IngestGateway, ScriptedStallIsEvictedAsSlowLorisAndRetrySucceeds) {
  GatewayConfig gw;
  gw.read_deadline = milliseconds(150);
  gw.drain_grace = milliseconds(300);
  Harness harness(gw);

  const uint64_t loris_before =
      CounterValue(obs::names::kGatewaySlowLorisDisconnectsTotal);

  UploadClientConfig config = FastClient(harness.endpoint());
  config.chunk_bytes = 2 * 1024;
  config.fault_plan.stall_before = {2};  // Go silent before the 2nd chunk...
  config.fault_plan.stall_ms = milliseconds(700);  // ...past the deadline.
  UploadClient client(config);

  auto outcome = client.Upload(MakeApkBytes(202));
  ASSERT_TRUE(outcome.ok()) << outcome.error();
  EXPECT_EQ(outcome->verdict.status,
            static_cast<uint8_t>(serve::VetStatus::kOk));
  EXPECT_EQ(outcome->attempts, 2u);  // Attempt 1 died to the stall.
  EXPECT_EQ(outcome->injected_faults, 1u);

  const GatewayStats stats = harness.gateway().stats();
  EXPECT_GE(stats.slow_loris_disconnects, 1u);
  EXPECT_GE(stats.aborted, 1u);
  EXPECT_TRUE(stats.Balanced());
  EXPECT_GE(CounterValue(obs::names::kGatewaySlowLorisDisconnectsTotal),
            loris_before + 1);
}

TEST(IngestGateway, ThroughputFloorEvictsTricklingClient) {
  GatewayConfig gw;
  gw.read_deadline = milliseconds(2'000);  // Deadline alone never fires.
  gw.min_bytes_per_sec = 50'000.0;
  gw.throughput_window = milliseconds(100);
  gw.drain_grace = milliseconds(300);
  Harness harness(gw);

  UploadClientConfig config = FastClient(harness.endpoint());
  config.chunk_bytes = 512;
  config.max_attempts = 1;
  config.fault_plan.throttle_from = 1;
  config.fault_plan.throttle_bytes_per_sec = 4'000.0;  // ~128 ms per chunk.
  UploadClient client(config);

  std::vector<uint8_t> apk = MakeApkBytes(303);
  apk.resize(4 * 1024);  // Bound the worst-case trickle duration.
  auto outcome = client.Upload(apk);
  // The trickler is evicted mid-body; its single attempt ends with the
  // visible abort verdict (or a failed send, if it noticed the hangup).
  if (outcome.ok()) {
    EXPECT_EQ(outcome->verdict.status,
              static_cast<uint8_t>(serve::VetStatus::kAbortedUpload));
  }

  const GatewayStats stats = harness.gateway().stats();
  EXPECT_GE(stats.slow_loris_disconnects, 1u);
  EXPECT_TRUE(stats.Balanced());
}

TEST(IngestGateway, MidStreamDisconnectAbortsVisiblyAndRetrySucceeds) {
  GatewayConfig gw;
  gw.read_deadline = milliseconds(500);
  gw.drain_grace = milliseconds(300);
  Harness harness(gw);

  const std::string disconnect_series = obs::LabeledSeriesName(
      obs::names::kGatewayUploadsAbortedTotal, "reason", "disconnect");
  const uint64_t disconnects_before = CounterValue(disconnect_series);

  UploadClientConfig config = FastClient(harness.endpoint());
  config.chunk_bytes = 2 * 1024;
  config.fault_plan.disconnect_after = {2};
  UploadClient client(config);

  auto outcome = client.Upload(MakeApkBytes(404));
  ASSERT_TRUE(outcome.ok()) << outcome.error();
  EXPECT_EQ(outcome->verdict.status,
            static_cast<uint8_t>(serve::VetStatus::kOk));
  EXPECT_EQ(outcome->attempts, 2u);

  const GatewayStats stats = harness.gateway().stats();
  EXPECT_GE(stats.aborted, 1u);
  EXPECT_TRUE(stats.Balanced());
  EXPECT_GE(CounterValue(disconnect_series), disconnects_before + 1);
  // No acknowledged verdict was lost: the service ledger still balances.
  const serve::ServiceStats sstats = harness.service().stats();
  EXPECT_EQ(sstats.accepted, sstats.resolved());
}

TEST(IngestGateway, RetryResumesByDigestWithoutRetransfer) {
  Harness harness;
  const std::vector<uint8_t> apk = MakeApkBytes(505);

  // Impatient client: attempt 1 uploads the whole body, then hangs up
  // instead of waiting for the verdict. The gateway classifies the intact
  // body anyway — so attempt 2's digest hint resolves from the cache, and
  // the body is never re-transferred (bytes_sent covers one pass only).
  UploadClientConfig config = FastClient(harness.endpoint());
  config.fault_plan.abandon_verdict_waits = 1;
  // Give the service time to classify attempt 1's body before attempt 2
  // opens; the backoff is the only thing between them.
  config.backoff_base = milliseconds(500);
  config.backoff_cap = milliseconds(500);
  UploadClient client(config);
  auto outcome = client.Upload(apk);
  ASSERT_TRUE(outcome.ok()) << outcome.error();
  EXPECT_EQ(outcome->attempts, 2u);
  EXPECT_TRUE(outcome->early_verdict);
  EXPECT_TRUE(outcome->resumed_by_digest);
  EXPECT_TRUE(outcome->verdict.from_cache);
  EXPECT_EQ(outcome->bytes_sent, apk.size());
  EXPECT_EQ(outcome->verdict.status,
            static_cast<uint8_t>(serve::VetStatus::kOk));

  const GatewayStats stats = harness.gateway().stats();
  EXPECT_GE(stats.resumed_by_digest, 1u);
  EXPECT_EQ(stats.accepted, 2u);
  EXPECT_EQ(stats.completed, 2u);  // Both attempts completed: body + cache.
  EXPECT_TRUE(stats.Balanced());
}

TEST(IngestGateway, CorruptFrameDisconnectsThroughCodecAndRetrySucceeds) {
  GatewayConfig gw;
  gw.read_deadline = milliseconds(500);
  gw.drain_grace = milliseconds(300);
  Harness harness(gw);

  const uint64_t codec_errors_before =
      CounterValue(obs::names::kFabricProtocolErrorsTotal);
  const std::string protocol_series = obs::LabeledSeriesName(
      obs::names::kGatewayUploadsAbortedTotal, "reason", "protocol");
  const uint64_t protocol_before = CounterValue(protocol_series);

  UploadClientConfig config = FastClient(harness.endpoint());
  config.chunk_bytes = 2 * 1024;
  config.fault_plan.corrupt_at = {1};
  UploadClient client(config);

  auto outcome = client.Upload(MakeApkBytes(606));
  ASSERT_TRUE(outcome.ok()) << outcome.error();
  EXPECT_EQ(outcome->verdict.status,
            static_cast<uint8_t>(serve::VetStatus::kOk));
  EXPECT_EQ(outcome->attempts, 2u);

  const GatewayStats stats = harness.gateway().stats();
  EXPECT_GE(stats.aborted, 1u);
  EXPECT_TRUE(stats.Balanced());
  // The stale CRC went through the FAB1 disconnect-and-count path.
  EXPECT_GE(CounterValue(obs::names::kFabricProtocolErrorsTotal),
            codec_errors_before + 1);
  EXPECT_GE(CounterValue(protocol_series), protocol_before + 1);
}

// Hand-rolled wire sessions: the UploadClient never violates the length
// contract, so these speak raw frames.
TEST(IngestGateway, LengthContractViolationsAbortVisibly) {
  GatewayConfig gw;
  gw.drain_grace = milliseconds(300);
  Harness harness(gw);
  auto endpoint = fabric::ParseEndpoint(harness.endpoint());
  ASSERT_TRUE(endpoint.ok());

  auto expect_abort = [&](uint64_t declared, std::vector<uint8_t> body,
                          uint64_t claimed_sent) {
    auto socket = fabric::Socket::Connect(*endpoint, milliseconds(1'000));
    ASSERT_TRUE(socket.ok()) << socket.error();
    socket->SetRecvTimeout(milliseconds(3'000));
    fabric::UploadOpen open;
    open.declared_length = declared;
    open.priority = 2;
    ASSERT_TRUE(socket
                    ->SendFrame(fabric::MsgType::kUploadOpen,
                                fabric::EncodeUploadOpen(open))
                    .ok());
    auto ack_frame = socket->RecvFrame();
    ASSERT_TRUE(ack_frame.ok()) << ack_frame.error();
    ASSERT_EQ(ack_frame->type, fabric::MsgType::kUploadAck);

    fabric::UploadChunk chunk;
    chunk.seq = 1;
    chunk.bytes = std::move(body);
    ASSERT_TRUE(socket
                    ->SendFrame(fabric::MsgType::kUploadChunk,
                                fabric::EncodeUploadChunk(chunk))
                    .ok());
    fabric::UploadEnd end;
    end.sent_length = claimed_sent;
    (void)socket->SendFrame(fabric::MsgType::kUploadEnd,
                            fabric::EncodeUploadEnd(end));

    auto verdict_frame = socket->RecvFrame();
    ASSERT_TRUE(verdict_frame.ok()) << verdict_frame.error();
    ASSERT_EQ(verdict_frame->type, fabric::MsgType::kUploadVerdict);
    auto verdict = fabric::DecodeUploadVerdict(verdict_frame->payload);
    ASSERT_TRUE(verdict.ok());
    EXPECT_EQ(verdict->status,
              static_cast<uint8_t>(serve::VetStatus::kAbortedUpload));
  };

  // Undersend: declared 10 bytes, delivered 5 (and the End admits it).
  expect_abort(10, std::vector<uint8_t>(5, 0xAB), 10);
  // Lying End frame: delivered everything but claims a different total.
  expect_abort(6, std::vector<uint8_t>(6, 0xCD), 7);

  const GatewayStats stats = harness.gateway().stats();
  EXPECT_EQ(stats.accepted, 2u);
  EXPECT_EQ(stats.aborted, 2u);
  EXPECT_TRUE(stats.Balanced());
}

TEST(IngestGateway, OversendBeyondDeclaredLengthAborts) {
  GatewayConfig gw;
  gw.drain_grace = milliseconds(300);
  Harness harness(gw);
  auto endpoint = fabric::ParseEndpoint(harness.endpoint());
  ASSERT_TRUE(endpoint.ok());

  auto socket = fabric::Socket::Connect(*endpoint, milliseconds(1'000));
  ASSERT_TRUE(socket.ok()) << socket.error();
  socket->SetRecvTimeout(milliseconds(3'000));
  fabric::UploadOpen open;
  open.declared_length = 4;  // ...then ship 64 bytes.
  open.priority = 2;
  ASSERT_TRUE(socket
                  ->SendFrame(fabric::MsgType::kUploadOpen,
                              fabric::EncodeUploadOpen(open))
                  .ok());
  auto ack_frame = socket->RecvFrame();
  ASSERT_TRUE(ack_frame.ok()) << ack_frame.error();

  fabric::UploadChunk chunk;
  chunk.seq = 1;
  chunk.bytes = std::vector<uint8_t>(64, 0xEE);
  ASSERT_TRUE(socket
                  ->SendFrame(fabric::MsgType::kUploadChunk,
                              fabric::EncodeUploadChunk(chunk))
                  .ok());
  auto verdict_frame = socket->RecvFrame();
  ASSERT_TRUE(verdict_frame.ok()) << verdict_frame.error();
  ASSERT_EQ(verdict_frame->type, fabric::MsgType::kUploadVerdict);
  auto verdict = fabric::DecodeUploadVerdict(verdict_frame->payload);
  ASSERT_TRUE(verdict.ok());
  EXPECT_EQ(verdict->status,
            static_cast<uint8_t>(serve::VetStatus::kAbortedUpload));

  const GatewayStats stats = harness.gateway().stats();
  EXPECT_EQ(stats.accepted, 1u);
  EXPECT_EQ(stats.aborted, 1u);
  EXPECT_TRUE(stats.Balanced());
}

TEST(IngestGateway, HostileDeclaredLengthRefusedAtOpen) {
  GatewayConfig gw;
  gw.max_declared_bytes = 1'024;
  gw.drain_grace = milliseconds(300);
  Harness harness(gw);
  auto endpoint = fabric::ParseEndpoint(harness.endpoint());
  ASSERT_TRUE(endpoint.ok());

  auto socket = fabric::Socket::Connect(*endpoint, milliseconds(1'000));
  ASSERT_TRUE(socket.ok()) << socket.error();
  socket->SetRecvTimeout(milliseconds(3'000));
  fabric::UploadOpen open;
  open.declared_length = 1ull << 40;  // A terabyte, says the client.
  open.priority = 2;
  ASSERT_TRUE(socket
                  ->SendFrame(fabric::MsgType::kUploadOpen,
                              fabric::EncodeUploadOpen(open))
                  .ok());
  auto frame = socket->RecvFrame();
  ASSERT_TRUE(frame.ok()) << frame.error();
  ASSERT_EQ(frame->type, fabric::MsgType::kUploadVerdict);
  auto verdict = fabric::DecodeUploadVerdict(frame->payload);
  ASSERT_TRUE(verdict.ok());
  EXPECT_EQ(verdict->status,
            static_cast<uint8_t>(serve::VetStatus::kAbortedUpload));
  EXPECT_NE(verdict->error.find("declared_too_large"), std::string::npos);

  const GatewayStats stats = harness.gateway().stats();
  EXPECT_EQ(stats.accepted, 1u);
  EXPECT_EQ(stats.aborted, 1u);
  EXPECT_TRUE(stats.Balanced());
}

TEST(IngestGateway, PreOpenGarbageDisconnectsWithoutAdmission) {
  GatewayConfig gw;
  gw.drain_grace = milliseconds(300);
  Harness harness(gw);
  auto endpoint = fabric::ParseEndpoint(harness.endpoint());
  ASSERT_TRUE(endpoint.ok());

  // A connection that leads with the wrong frame type never enters the
  // accepted/completed/aborted ledger.
  auto socket = fabric::Socket::Connect(*endpoint, milliseconds(1'000));
  ASSERT_TRUE(socket.ok()) << socket.error();
  socket->SetRecvTimeout(milliseconds(3'000));
  fabric::UploadEnd end;
  end.sent_length = 0;
  ASSERT_TRUE(socket
                  ->SendFrame(fabric::MsgType::kUploadEnd,
                              fabric::EncodeUploadEnd(end))
                  .ok());
  auto reply = socket->RecvFrame();
  ASSERT_TRUE(reply.ok()) << reply.error();
  EXPECT_EQ(reply->type, fabric::MsgType::kError);

  const GatewayStats stats = harness.gateway().stats();
  EXPECT_EQ(stats.accepted, 0u);
  EXPECT_EQ(stats.aborted, 0u);
  EXPECT_GE(stats.connections, 1u);
  EXPECT_TRUE(stats.Balanced());
}

TEST(IngestGateway, UploadBudgetShedsAtOpenBeforeAnyBodyByte) {
  GatewayConfig gw;
  gw.max_concurrent_uploads = 0;  // Every upload is over budget.
  gw.drain_grace = milliseconds(300);
  Harness harness(gw);

  UploadClient client(FastClient(harness.endpoint()));
  auto outcome = client.Upload(MakeApkBytes(707));
  ASSERT_TRUE(outcome.ok()) << outcome.error();
  EXPECT_EQ(outcome->verdict.status,
            static_cast<uint8_t>(serve::VetStatus::kShedOverload));
  EXPECT_TRUE(outcome->early_verdict);
  EXPECT_EQ(outcome->bytes_sent, 0u);  // Shed before the body, not after.

  const GatewayStats stats = harness.gateway().stats();
  EXPECT_EQ(stats.accepted, 1u);
  EXPECT_EQ(stats.completed, 1u);
  EXPECT_EQ(stats.early_verdicts, 1u);
  EXPECT_TRUE(stats.Balanced());
}

TEST(IngestGateway, StopSeversStragglersAsVisibleAborts) {
  GatewayConfig gw;
  gw.read_deadline = milliseconds(5'000);  // The drain, not the deadline.
  gw.drain_grace = milliseconds(100);
  Harness harness(gw);

  UploadClientConfig config = FastClient(harness.endpoint());
  config.chunk_bytes = 2 * 1024;
  config.max_attempts = 1;
  config.fault_plan.stall_before = {2};
  config.fault_plan.stall_ms = milliseconds(1'500);
  UploadClient client(config);

  util::Result<UploadOutcome> outcome = util::Err("not run");
  std::thread uploader(
      [&] { outcome = client.Upload(MakeApkBytes(808)); });
  // Let the first chunk land, then stop the gateway while the client stalls:
  // the in-flight upload outlives drain_grace and must be severed visibly.
  std::this_thread::sleep_for(milliseconds(300));
  harness.gateway().Stop();
  uploader.join();

  const GatewayStats stats = harness.gateway().stats();
  EXPECT_EQ(stats.accepted, 1u);
  EXPECT_EQ(stats.aborted, 1u);
  EXPECT_EQ(stats.completed, 0u);
  EXPECT_TRUE(stats.Balanced());
  // The single-attempt client saw its upload die, one way or another.
  if (outcome.ok()) {
    EXPECT_EQ(outcome->verdict.status,
              static_cast<uint8_t>(serve::VetStatus::kAbortedUpload));
  }
}

// Soak: concurrent hostile clients — random stalls past the read deadline,
// scripted disconnects, mixed priorities — must leave the ledger balanced
// and lose no acknowledged verdict. Runs under TSan via ctest -L stress.
TEST(GatewaySoak, ConcurrentHostileClientsHoldTheDrainInvariant) {
  GatewayConfig gw;
  gw.read_deadline = milliseconds(200);
  gw.drain_grace = milliseconds(1'000);
  gw.max_concurrent_uploads = 8;
  Harness harness(gw);

  constexpr size_t kThreads = 6;
  constexpr size_t kUploadsPerThread = 4;
  std::atomic<size_t> resolved{0};
  std::atomic<size_t> failed{0};

  std::vector<std::thread> clients;
  clients.reserve(kThreads);
  for (size_t t = 0; t < kThreads; ++t) {
    clients.emplace_back([&, t] {
      for (size_t i = 0; i < kUploadsPerThread; ++i) {
        UploadClientConfig config = FastClient(harness.endpoint());
        config.chunk_bytes = 2 * 1024;
        config.max_attempts = 3;
        config.priority = static_cast<uint8_t>((t + i) % 3);
        config.jitter_seed = t * 100 + i;
        config.fault_plan.seed = t * 100 + i;
        config.fault_plan.stall_rate = 0.25;
        config.fault_plan.stall_ms = milliseconds(350);  // Past the deadline.
        if (i % 4 == 1) config.fault_plan.disconnect_after = {3};
        UploadClient client(config);
        auto outcome = client.Upload(MakeApkBytes(1'000 + t * 50 + i));
        if (outcome.ok()) {
          resolved.fetch_add(1);
        } else {
          failed.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& thread : clients) thread.join();
  harness.gateway().Stop();

  EXPECT_EQ(resolved.load() + failed.load(), kThreads * kUploadsPerThread);
  const GatewayStats stats = harness.gateway().stats();
  EXPECT_GE(stats.accepted, kThreads * kUploadsPerThread);
  EXPECT_TRUE(stats.Balanced())
      << "accepted " << stats.accepted << " completed " << stats.completed
      << " aborted " << stats.aborted;
  const serve::ServiceStats sstats = harness.service().stats();
  EXPECT_EQ(sstats.accepted, sstats.resolved());
}

}  // namespace
}  // namespace apichecker::gateway
