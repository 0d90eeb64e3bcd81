#include "fabric/remote_client.h"

#include <unistd.h>

#include <utility>
#include <vector>

#include "apk/apk.h"
#include "core/model_store.h"
#include "fabric/messages.h"
#include "obs/metrics.h"
#include "obs/names.h"
#include "obs/trace.h"
#include "util/strings.h"

namespace apichecker::fabric {

namespace {

using MillisDouble = std::chrono::duration<double, std::milli>;

}  // namespace

RemoteFarmClient::RemoteFarmClient(const android::ApiUniverse& universe,
                                   RemoteClientConfig config, rt::Runtime* runtime)
    : universe_(universe),
      config_(std::move(config)),
      universe_checksum_(UniverseChecksum(universe)),
      parse_ms_(obs::MetricsRegistry::Default().histogram(obs::names::kIngestParseStageMs)),
      backoff_(config_.reconnect_backoff_min) {
  auto endpoint = ParseEndpoint(config_.endpoint);
  if (endpoint.ok()) {
    endpoint_ = *endpoint;
  } else {
    // A malformed endpoint leaves the client permanently disconnected; every
    // batch fails over and the breaker opens — same shape as a worker that
    // never comes up, and visible in describe().
    endpoint_.kind = EndpointKind::kUnix;
    endpoint_.path = "";
  }
  if (runtime == nullptr) {
    // Standalone construction (tests): one worker carries the serialized
    // tick chain.
    owned_runtime_ = std::make_unique<rt::Runtime>(rt::RuntimeOptions{1});
    runtime = owned_runtime_.get();
  }
  rt_ = runtime;
  ScheduleTick(std::chrono::milliseconds(0));
}

RemoteFarmClient::~RemoteFarmClient() { StopMonitor(); }

void RemoteFarmClient::SetHealthListener(HealthListener listener) {
  std::lock_guard<std::mutex> lock(mu_);
  listener_ = std::move(listener);
}

void RemoteFarmClient::ScheduleTick(std::chrono::milliseconds delay) {
  if (stop_.load(std::memory_order_acquire)) {
    return;
  }
  // Count BEFORE arming, so StopMonitor never observes an armed timer it is
  // not waiting for.
  {
    std::lock_guard<std::mutex> lock(tick_mu_);
    ++pending_ticks_;
  }
  rt::CancelToken token = rt_->PostAfter(delay, [this] { Tick(); });
  bool settle = false;
  {
    std::lock_guard<std::mutex> lock(tick_mu_);
    tick_timer_ = token;
    if (stop_.load(std::memory_order_acquire)) {
      // StopMonitor raced the arm and may have missed this token: settle the
      // count ourselves. An already-fired token runs Tick, which settles it.
      if (!token.valid() || token.Cancel()) {
        --pending_ticks_;
        settle = true;
      }
    } else if (!token.valid()) {
      // Runtime already stopping: the task was dropped, never to run.
      --pending_ticks_;
      settle = true;
    }
  }
  if (settle) {
    tick_cv_.notify_all();
  }
}

void RemoteFarmClient::Tick() {
  if (!stop_.load(std::memory_order_acquire)) {
    std::shared_ptr<Conn> conn;
    {
      std::lock_guard<std::mutex> lock(mu_);
      conn = conn_;
    }
    if (conn && !conn->broken.load(std::memory_order_acquire)) {
      HeartbeatStep(conn);
    } else {
      ConnectStep();
    }
  }
  // The successor tick (if any) was counted by the step above, so this
  // decrement can only reach zero when the chain truly ends.
  {
    std::lock_guard<std::mutex> lock(tick_mu_);
    --pending_ticks_;
  }
  tick_cv_.notify_all();
}

void RemoteFarmClient::StopMonitor() {
  bool expected = false;
  if (stop_.compare_exchange_strong(expected, true)) {
    // Cancel the armed tick; an in-flight one is drained below.
    bool settled = false;
    {
      std::lock_guard<std::mutex> lock(tick_mu_);
      if (tick_timer_.valid() && tick_timer_.Cancel()) {
        --pending_ticks_;
        settled = true;
      }
    }
    if (settled) {
      tick_cv_.notify_all();
    }
    std::shared_ptr<Conn> conn;
    {
      std::lock_guard<std::mutex> lock(mu_);
      conn = conn_;
      conn_.reset();
      listener_ = nullptr;
    }
    if (conn) conn->Break();  // Wakes a tick blocked in ping/pong recv.
  }
  // Every caller (first or repeated) blocks until no tick is scheduled or
  // executing — the "no listener after return" contract.
  {
    std::unique_lock<std::mutex> lock(tick_mu_);
    tick_cv_.wait(lock, [this] { return pending_ticks_ == 0; });
  }
  if (owned_runtime_ != nullptr) {
    owned_runtime_->Shutdown();
  }
}

std::string RemoteFarmClient::describe() const {
  return util::StrFormat("remote farm %u @ %s%s", config_.farm_id,
                         config_.endpoint.c_str(), connected() ? "" : " (disconnected)");
}

bool RemoteFarmClient::connected() const {
  std::lock_guard<std::mutex> lock(mu_);
  return conn_ != nullptr && !conn_->broken.load(std::memory_order_acquire);
}


util::Result<Socket> RemoteFarmClient::OpenChannel(Channel channel, std::string* error) {
  auto socket = Socket::Connect(endpoint_, config_.connect_timeout);
  if (!socket.ok()) {
    *error = socket.error();
    return util::Err(socket.error());
  }
  socket->SetSendTimeout(config_.connect_timeout);
  socket->SetRecvTimeout(config_.connect_timeout);
  Hello hello;
  hello.channel = channel;
  hello.farm_id = config_.farm_id;
  hello.universe_checksum = universe_checksum_;
  hello.client_name = util::StrFormat("farm-pool/%d", static_cast<int>(::getpid()));
  auto sent = socket->SendFrame(MsgType::kHello, EncodeHello(hello));
  if (!sent.ok()) {
    *error = "handshake send: " + sent.error();
    return util::Err(*error);
  }
  auto frame = socket->RecvFrame();
  if (!frame.ok()) {
    *error = "handshake recv: " + frame.error();
    return util::Err(*error);
  }
  if (frame->type == MsgType::kError) {
    auto err = DecodeError(frame->payload);
    *error = "worker rejected handshake: " + (err.ok() ? err->message : "malformed error");
    return util::Err(*error);
  }
  if (frame->type != MsgType::kHelloAck) {
    *error = util::StrFormat("handshake: unexpected %s frame", MsgTypeName(frame->type));
    return util::Err(*error);
  }
  auto ack = DecodeHelloAck(frame->payload);
  if (!ack.ok()) {
    *error = "handshake: malformed hello_ack: " + ack.error();
    return util::Err(*error);
  }
  if (ack->universe_checksum != universe_checksum_) {
    *error = util::StrFormat("universe mismatch: ours %016llx, worker %016llx",
                             static_cast<unsigned long long>(universe_checksum_),
                             static_cast<unsigned long long>(ack->universe_checksum));
    return util::Err(*error);
  }
  return std::move(*socket);
}

std::shared_ptr<RemoteFarmClient::Conn> RemoteFarmClient::TryConnect(std::string* error) {
  auto& registry = obs::MetricsRegistry::Default();
  auto conn = std::make_shared<Conn>();
  auto rpc = OpenChannel(Channel::kRpc, error);
  if (!rpc.ok()) {
    registry.counter(obs::names::kFabricHandshakeFailuresTotal).Increment();
    return nullptr;
  }
  auto heartbeat = OpenChannel(Channel::kHeartbeat, error);
  if (!heartbeat.ok()) {
    registry.counter(obs::names::kFabricHandshakeFailuresTotal).Increment();
    return nullptr;
  }
  conn->rpc = std::move(*rpc);
  conn->heartbeat = std::move(*heartbeat);
  conn->rpc.SetSendTimeout(config_.rpc_timeout);
  conn->rpc.SetRecvTimeout(config_.rpc_timeout);
  conn->heartbeat.SetSendTimeout(config_.heartbeat_interval);
  // The pong wait is the liveness bound: miss_threshold unanswered intervals
  // and the connection is declared dead.
  const auto pong_timeout =
      config_.heartbeat_interval * std::max<uint32_t>(1, config_.heartbeat_miss_threshold);
  conn->heartbeat.SetRecvTimeout(pong_timeout);
  registry.counter(obs::names::kFabricHandshakesTotal).Increment(2);
  return conn;
}

void RemoteFarmClient::MarkLost(const std::shared_ptr<Conn>& conn, const std::string& reason) {
  conn->Break();
  HealthListener listener;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (conn_ == conn) conn_.reset();
    if (!lost_reported_) {
      lost_reported_ = true;
      listener = listener_;
    }
  }
  obs::MetricsRegistry::Default().counter(obs::names::kFabricDisconnectsTotal).Increment();
  if (listener) listener(Health::kLost, reason);
}

void RemoteFarmClient::ConnectStep() {
  auto& registry = obs::MetricsRegistry::Default();
  std::string error;
  std::shared_ptr<Conn> conn = TryConnect(&error);
  if (!conn) {
    if (first_attempt_) {
      // Report the initial outage too: a worker that never comes up should
      // open its breaker rather than eat dispatch attempts.
      first_attempt_ = false;
      HealthListener listener;
      {
        std::lock_guard<std::mutex> lock(mu_);
        if (!lost_reported_) {
          lost_reported_ = true;
          listener = listener_;
        }
      }
      if (listener) listener(Health::kLost, "connect failed: " + error);
    }
    ScheduleTick(backoff_);
    backoff_ = std::min(backoff_ * 2, config_.reconnect_backoff_max);
    return;
  }
  first_attempt_ = false;
  backoff_ = config_.reconnect_backoff_min;
  HealthListener listener;
  bool was_lost = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    conn_ = conn;
    was_lost = lost_reported_;
    lost_reported_ = false;
    listener = listener_;
  }
  if (ever_connected_.exchange(true)) {
    reconnects_.fetch_add(1, std::memory_order_relaxed);
    registry.counter(obs::names::kFabricReconnectsTotal).Increment();
  }
  if (was_lost && listener) listener(Health::kRestored, "reconnected");
  // First heartbeat immediately: liveness is established by ping, not by the
  // handshake alone.
  ScheduleTick(std::chrono::milliseconds(0));
}

void RemoteFarmClient::HeartbeatStep(const std::shared_ptr<Conn>& conn) {
  auto& registry = obs::MetricsRegistry::Default();
  const auto ping_start = std::chrono::steady_clock::now();
  auto sent = conn->heartbeat.SendFrame(MsgType::kPing, EncodePing({.seq = ++ping_seq_}));
  if (!sent.ok()) {
    registry.counter(obs::names::kFabricHeartbeatMissesTotal).Increment();
    MarkLost(conn, "heartbeat send failed: " + sent.error());
    ScheduleTick(std::chrono::milliseconds(0));  // Straight to reconnect.
    return;
  }
  auto pong = conn->heartbeat.RecvFrame();
  if (!pong.ok() || pong->type != MsgType::kPong) {
    registry.counter(obs::names::kFabricHeartbeatMissesTotal).Increment();
    MarkLost(conn, !pong.ok() ? "heartbeat miss: " + pong.error()
                              : "heartbeat: unexpected frame");
    ScheduleTick(std::chrono::milliseconds(0));
    return;
  }
  registry.counter(obs::names::kFabricHeartbeatsTotal).Increment();
  const auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
      std::chrono::steady_clock::now() - ping_start);
  ScheduleTick(elapsed < config_.heartbeat_interval
                   ? config_.heartbeat_interval - elapsed
                   : std::chrono::milliseconds(0));
}

emu::BatchResult RemoteFarmClient::TransportFault(const std::shared_ptr<Conn>& conn,
                                                  std::string reason) {
  if (conn) MarkLost(conn, reason);
  emu::BatchResult result;
  result.farm_fault = true;
  result.transport_fault = true;
  result.fault_reason = std::move(reason);
  return result;
}

emu::BatchResult RemoteFarmClient::ExecuteBatch(
    std::span<const std::span<const uint8_t>> members, uint32_t model_version,
    const core::ApiChecker& checker, const emu::TrackedApiSet& tracked) {
  (void)tracked;  // The worker derives its own hook set from the shipped model.
  // Parse every member before the connection is even looked at, so a faulted
  // result still names each member that failed to parse. The members that
  // parsed are re-encoded from their parsed form, as the worker expects.
  std::vector<std::string> parse_errors(members.size());
  std::vector<size_t> sent;  // Input index of each request entry.
  RunBatchRequest request;
  request.model_version = model_version;
  for (size_t i = 0; i < members.size(); ++i) {
    auto apk = [&] {
      obs::ScopedTimer timer(parse_ms_);
      return apk::ParseApk(members[i]);
    }();
    if (!apk.ok()) {
      parse_errors[i] = apk.error();
      continue;
    }
    request.apks.push_back(apk::BuildApk(apk->manifest, apk->dex, apk->has_native_lib));
    sent.push_back(i);
  }

  // Nothing parsed: nothing to run, and no RPC.
  emu::BatchResult result = sent.empty() ? emu::BatchResult{} : RunOnWorker(request, checker);
  if (!result.farm_fault) {
    std::vector<emu::EmulationReport> reports(members.size());
    for (size_t j = 0; j < sent.size(); ++j) {
      reports[sent[j]] = std::move(result.reports[j]);
    }
    result.reports = std::move(reports);
  }
  result.parse_errors = std::move(parse_errors);
  return result;
}

emu::BatchResult RemoteFarmClient::RunOnWorker(const RunBatchRequest& request,
                                               const core::ApiChecker& checker) {
  const uint32_t model_version = request.model_version;
  std::shared_ptr<Conn> conn;
  {
    std::lock_guard<std::mutex> lock(mu_);
    conn = conn_;
  }
  if (!conn || conn->broken.load(std::memory_order_acquire)) {
    return TransportFault(nullptr,
                          util::StrFormat("fabric: farm %u not connected (%s)",
                                          config_.farm_id, config_.endpoint.c_str()));
  }
  auto& registry = obs::MetricsRegistry::Default();
  const auto rpc_start = std::chrono::steady_clock::now();

  // Model sync: ship the checker when this connection hasn't seen this
  // snapshot version yet (first batch after connect/reconnect, or a model
  // evolution rollover).
  if (conn->model_version_sent != model_version) {
    SetModel set_model;
    set_model.model_version = model_version;
    set_model.blob = core::SerializeChecker(checker);
    if (set_model.blob.empty()) {
      return TransportFault(conn, "fabric: serving checker not trained");
    }
    auto sent = conn->rpc.SendFrame(MsgType::kSetModel, EncodeSetModel(set_model));
    if (!sent.ok()) return TransportFault(conn, "fabric: set_model send: " + sent.error());
    auto ack_frame = conn->rpc.RecvFrame();
    if (!ack_frame.ok()) {
      return TransportFault(conn, "fabric: set_model recv: " + ack_frame.error());
    }
    if (ack_frame->type != MsgType::kSetModelAck) {
      std::string detail = "unexpected frame";
      if (ack_frame->type == MsgType::kError) {
        auto err = DecodeError(ack_frame->payload);
        if (err.ok()) detail = err->message;
      }
      return TransportFault(conn, "fabric: set_model rejected: " + detail);
    }
    conn->model_version_sent = model_version;
    registry.counter(obs::names::kFabricModelSyncsTotal).Increment();
  }

  auto sent = conn->rpc.SendFrame(MsgType::kRunBatch, EncodeRunBatch(request));
  if (!sent.ok()) return TransportFault(conn, "fabric: run_batch send: " + sent.error());
  auto frame = conn->rpc.RecvFrame();
  if (!frame.ok()) return TransportFault(conn, "fabric: run_batch recv: " + frame.error());
  if (frame->type == MsgType::kError) {
    auto err = DecodeError(frame->payload);
    // An application-level error from the worker (e.g. an APK its parser
    // rejected) is a farm fault but NOT a transport fault: the connection is
    // intact and the breaker should treat it like a local farm failure.
    emu::BatchResult result;
    result.farm_fault = true;
    result.fault_reason =
        "fabric: worker error: " + (err.ok() ? err->message : "malformed error frame");
    return result;
  }
  if (frame->type != MsgType::kBatchResult) {
    return TransportFault(conn, util::StrFormat("fabric: unexpected %s frame",
                                                MsgTypeName(frame->type)));
  }
  auto result = DecodeBatchResult(frame->payload);
  if (!result.ok()) {
    return TransportFault(conn, "fabric: malformed batch_result: " + result.error());
  }
  if (result->reports.size() != request.apks.size() && !result->farm_fault) {
    return TransportFault(conn,
                          util::StrFormat("fabric: report count mismatch: sent %zu, got %zu",
                                          request.apks.size(), result->reports.size()));
  }
  const double rpc_ms =
      MillisDouble(std::chrono::steady_clock::now() - rpc_start).count();
  last_rpc_ms_.store(rpc_ms, std::memory_order_relaxed);
  registry.histogram(obs::names::kFabricRpcMs).Observe(rpc_ms);
  return std::move(*result);
}

}  // namespace apichecker::fabric
