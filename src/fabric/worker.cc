#include "fabric/worker.h"

#include <unistd.h>

#include <algorithm>
#include <array>
#include <thread>
#include <utility>

#include "apk/apk.h"
#include "core/model_store.h"
#include "fabric/backend.h"
#include "fabric/messages.h"
#include "obs/metrics.h"
#include "obs/names.h"
#include "util/strings.h"

namespace apichecker::fabric {

namespace {

// Per readiness event, stop draining a connection after this many bytes and
// re-arm: level-triggered epoll refires immediately if more is buffered, and
// the yield keeps one fat RunBatch upload from monopolizing a reader pass.
constexpr size_t kMaxReadPerEvent = 4u << 20;

}  // namespace

FarmWorker::FarmWorker(const android::ApiUniverse& universe, FarmWorkerConfig config)
    : universe_(universe),
      config_(std::move(config)),
      runtime_(std::make_unique<rt::Runtime>(rt::RuntimeOptions{
          config_.rt_threads > 0
              ? config_.rt_threads
              : std::max<size_t>(4, std::thread::hardware_concurrency())})),
      farm_(universe, config_.farm, runtime_.get()),
      universe_checksum_(UniverseChecksum(universe)) {}

FarmWorker::~FarmWorker() { Stop(); }

util::Result<Endpoint> FarmWorker::Start() {
  auto endpoint = ParseEndpoint(config_.endpoint);
  if (!endpoint.ok()) return util::Err(endpoint.error());
  auto listener = Listener::Bind(*endpoint);
  if (!listener.ok()) return util::Err(listener.error());
  listener_ = std::move(*listener);
  bound_endpoint_ = listener_.bound_endpoint();
  ArmAccept();
  return bound_endpoint_;
}

void FarmWorker::Stop() {
  bool expected = false;
  if (!stopping_.compare_exchange_strong(expected, true)) {
    // Late or concurrent caller: block until the first teardown completes.
    std::unique_lock<std::mutex> lock(wait_mu_);
    wait_cv_.wait(lock, [this] { return stopped_; });
    return;
  }
  {
    std::lock_guard<std::mutex> lock(conns_mu_);
    accept_closed_ = true;
    accept_watch_.Cancel();
  }
  listener_.Close();
  {
    std::lock_guard<std::mutex> lock(conns_mu_);
    // Sever: a handler blocked in send (or an emulation about to send) fails
    // fast instead of stalling the runtime drain below.
    for (auto& conn : conns_) conn->socket.ShutdownBoth();
  }
  // The private runtime drains: in-flight handlers run to completion against
  // the severed sockets, unfired watches are cancelled, every rt thread
  // joins. After this, nothing can touch `this` or any Conn again.
  runtime_->Shutdown();
  {
    std::lock_guard<std::mutex> lock(conns_mu_);
    conns_.clear();
  }
  {
    std::lock_guard<std::mutex> lock(wait_mu_);
    stopped_ = true;
  }
  wait_cv_.notify_all();
}

void FarmWorker::Wait() {
  std::unique_lock<std::mutex> lock(wait_mu_);
  wait_cv_.wait(lock, [this] { return stopped_; });
}

void FarmWorker::ArmAccept() {
  std::lock_guard<std::mutex> lock(conns_mu_);
  if (accept_closed_) return;
  accept_watch_ = runtime_->PostFd(listener_.fd(), [this] { OnAcceptReady(); });
}

void FarmWorker::OnAcceptReady() {
  if (stopping_.load(std::memory_order_acquire)) return;
  for (;;) {
    auto accepted = listener_.TryAccept();
    if (!accepted.ok()) return;  // Listener closed or broken; Stop() owns teardown.
    if (!accepted->has_value()) break;
    connections_accepted_.fetch_add(1, std::memory_order_relaxed);
    obs::MetricsRegistry::Default()
        .counter(obs::names::kFabricWorkerConnectionsTotal)
        .Increment();
    auto conn = std::make_shared<Conn>();
    conn->socket = std::move(**accepted);
    conn->strand = runtime_->MakeStrand();
    {
      std::lock_guard<std::mutex> lock(conns_mu_);
      if (stopping_.load(std::memory_order_acquire)) return;
      conns_.push_back(conn);
    }
    // First arming happens on the strand so the watch token is only ever
    // touched strand-serialized (a fired watch posts there too).
    conn->strand->Post([this, conn] {
      if (!conn->done) ArmRead(conn);
    });
  }
  ArmAccept();
}

void FarmWorker::ArmRead(const std::shared_ptr<Conn>& conn) {
  std::shared_ptr<Conn> self = conn;
  conn->read_watch = runtime_->PostFd(conn->socket.fd(), [this, self] {
    self->strand->Post([this, self] { OnConnReadable(self); });
  });
  // An invalid token means the runtime is stopping; the connection is torn
  // down by Stop() instead.
}

void FarmWorker::DropConn(const std::shared_ptr<Conn>& conn) {
  if (conn->done) return;
  conn->done = true;
  conn->read_watch.Cancel();
  std::lock_guard<std::mutex> lock(conns_mu_);
  std::erase(conns_, conn);  // Destroys (closes) the socket with the last ref.
}

void FarmWorker::OnConnReadable(const std::shared_ptr<Conn>& conn) {
  if (conn->done) return;
  if (stopping_.load(std::memory_order_acquire)) {
    DropConn(conn);
    return;
  }
  std::array<uint8_t, 64 * 1024> buf;
  bool dead = false;
  size_t drained = 0;
  while (drained < kMaxReadPerEvent) {
    auto got = conn->socket.ReadSome(buf);
    if (got.status == Socket::ReadStatus::kData) {
      conn->assembler.Feed(std::span<const uint8_t>(buf.data(), got.bytes));
      drained += got.bytes;
      continue;
    }
    if (got.status == Socket::ReadStatus::kWouldBlock) break;
    dead = true;  // EOF or transport error — drop after the buffered frames.
    break;
  }
  for (;;) {
    auto next = conn->assembler.Pull();
    if (next.status == DecodeStatus::kTruncated) break;
    if (next.status != DecodeStatus::kOk) {  // Already counted by the assembler.
      DropConn(conn);
      return;
    }
    if (!HandleFrame(*conn, next.frame)) {
      DropConn(conn);
      return;
    }
  }
  if (dead) {
    DropConn(conn);
    return;
  }
  ArmRead(conn);
}

bool FarmWorker::HandleFrame(Conn& conn, const Frame& frame) {
  auto& registry = obs::MetricsRegistry::Default();
  Socket& socket = conn.socket;
  // Handshake first: anything else on a fresh connection is a protocol error.
  if (!conn.hello_done) {
    if (frame.type != MsgType::kHello) return false;
    auto hello = DecodeHello(frame.payload);
    if (!hello.ok()) return false;
    if (hello->universe_checksum != universe_checksum_) {
      registry.counter(obs::names::kFabricHandshakeFailuresTotal).Increment();
      ErrorMsg err{util::StrFormat("universe mismatch: worker %016llx, client %016llx",
                                   static_cast<unsigned long long>(universe_checksum_),
                                   static_cast<unsigned long long>(hello->universe_checksum))};
      (void)socket.SendFrame(MsgType::kError, EncodeError(err));
      return false;
    }
    HelloAck ack;
    ack.worker_id = config_.worker_id;
    ack.pid = static_cast<uint32_t>(::getpid());
    ack.universe_checksum = universe_checksum_;
    if (!socket.SendFrame(MsgType::kHelloAck, EncodeHelloAck(ack)).ok()) return false;
    conn.hello_done = true;
    return true;
  }

  switch (frame.type) {
    case MsgType::kPing: {
      auto ping = DecodePing(frame.payload);
      if (!ping.ok()) return false;
      return socket.SendFrame(MsgType::kPong, EncodePing(*ping)).ok();
    }
    case MsgType::kSetModel: {
      auto set_model = DecodeSetModel(frame.payload);
      if (!set_model.ok()) return false;
      auto restored = core::DeserializeChecker(universe_, set_model->blob);
      if (!restored.ok()) {
        ErrorMsg err{"model restore failed: " + restored.error()};
        return socket.SendFrame(MsgType::kError, EncodeError(err)).ok();
      }
      conn.checker.emplace(std::move(*restored));
      conn.tracked = conn.checker->MakeTrackedSet();
      conn.model_version = set_model->model_version;
      SetModelAck model_ack;
      model_ack.model_version = conn.model_version;
      model_ack.tracked_count = static_cast<uint32_t>(conn.tracked.count());
      return socket.SendFrame(MsgType::kSetModelAck, EncodeSetModelAck(model_ack)).ok();
    }
    case MsgType::kRunBatch: {
      auto request = DecodeRunBatch(frame.payload);
      if (!request.ok()) return false;
      if (!conn.checker.has_value() || request->model_version != conn.model_version) {
        ErrorMsg err{util::StrFormat(
            "batch for model v%u but worker has %s", request->model_version,
            conn.checker.has_value()
                ? util::StrFormat("v%u", conn.model_version).c_str()
                : "no model")};
        return socket.SendFrame(MsgType::kError, EncodeError(err)).ok();
      }
      // Re-parse every APK through the hostile-hardened container parser —
      // the wire is no more trusted than a market submission.
      std::vector<apk::ApkFile> apks;
      apks.reserve(request->apks.size());
      std::string parse_error;
      for (size_t i = 0; i < request->apks.size(); ++i) {
        auto parsed = apk::ParseApk(request->apks[i]);
        if (!parsed.ok()) {
          parse_error = util::StrFormat("apk %zu: %s", i, parsed.error().c_str());
          break;
        }
        apks.push_back(std::move(*parsed));
      }
      if (!parse_error.empty()) {
        ErrorMsg err{"apk parse failed: " + parse_error};
        return socket.SendFrame(MsgType::kError, EncodeError(err)).ok();
      }
      emu::BatchResult result = farm_.RunBatch(apks, conn.tracked);
      batches_served_.fetch_add(1, std::memory_order_relaxed);
      registry.counter(obs::names::kFabricWorkerBatchesTotal).Increment();
      registry.counter(obs::names::kFabricWorkerAppsTotal).Increment(apks.size());
      if (!result.farm_fault) {
        // Worker-side classification: the farm tier sees its own malicious
        // rate (ops visibility). Verdict persistence stays with the
        // front-end, which owns the single-writer verdict store.
        uint64_t malicious = 0;
        for (const auto& report : result.reports) {
          if (conn.checker->Classify(report).malicious) ++malicious;
        }
        if (malicious > 0) {
          registry.counter(obs::names::kFabricWorkerMaliciousTotal).Increment(malicious);
        }
      }
      return socket.SendFrame(MsgType::kBatchResult, EncodeBatchResult(result)).ok();
    }
    default: {
      // Unexpected but well-formed frame: tell the peer and drop them.
      ErrorMsg err{util::StrFormat("unexpected %s frame", MsgTypeName(frame.type))};
      (void)socket.SendFrame(MsgType::kError, EncodeError(err));
      return false;
    }
  }
}

}  // namespace apichecker::fabric
