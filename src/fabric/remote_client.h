// RemoteFarmClient: a FarmBackend that executes batches on an `apichecker
// farm` worker process over the fabric protocol. Two connections per worker:
// an rpc channel (model sync + batch execution; one request in flight at a
// time, matching the pool's per-farm in-flight discipline) and a heartbeat
// channel driven by a chain of timer ticks on the unified runtime, so
// liveness probing never queues behind a long-running batch — and an idle
// fleet of N workers costs zero parked monitor threads.
//
// Connection-state machine (one tick in flight at a time; each tick
// schedules exactly its successor, so the chain is serialized):
//
//   [disconnected] --connect+handshake ok--> [connected]
//        ^  \--fail--> tick after backoff*2 (capped) --retry--/
//        |
//   [connected] --ping miss / EOF / rpc transport error--> Break()
//        \--> listener(kLost) --> [disconnected], backoff reset
//   reconnect success --> listener(kRestored)
//
// The pool maps kLost to "breaker force-open" and kRestored to "probe
// eligible now", which is how a SIGKILLed worker opens its breaker within
// one heartbeat interval and a returning worker re-enters service through
// the existing half-open probe. StopMonitor() keeps its contract: once it
// returns, no health listener will ever run again (it cancels the pending
// tick and waits out an executing one).

#ifndef APICHECKER_FABRIC_REMOTE_CLIENT_H_
#define APICHECKER_FABRIC_REMOTE_CLIENT_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>

#include "fabric/backend.h"
#include "fabric/messages.h"
#include "fabric/transport.h"
#include "obs/metrics.h"
#include "rt/runtime.h"

namespace apichecker::fabric {

struct RemoteClientConfig {
  std::string endpoint;  // "unix:/path" or "tcp:host:port".
  uint32_t farm_id = 0;
  std::chrono::milliseconds connect_timeout{1000};
  // Generous: covers model sync plus a full emulation batch.
  std::chrono::milliseconds rpc_timeout{30'000};
  std::chrono::milliseconds heartbeat_interval{100};
  // Consecutive unanswered pings before the connection is declared lost.
  // 1 keeps the ISSUE's "breaker opens within one heartbeat interval" bound.
  uint32_t heartbeat_miss_threshold = 1;
  std::chrono::milliseconds reconnect_backoff_min{50};
  std::chrono::milliseconds reconnect_backoff_max{2000};
};

class RemoteFarmClient : public FarmBackend {
 public:
  // Schedules the first monitor tick immediately; the client connects (and
  // keeps reconnecting) in the background while the pool runs. `runtime`
  // hosts the tick timers and must outlive StopMonitor(); null makes the
  // client own a small private runtime (standalone/test construction).
  RemoteFarmClient(const android::ApiUniverse& universe, RemoteClientConfig config,
                   rt::Runtime* runtime = nullptr);
  ~RemoteFarmClient() override;

  emu::BatchResult ExecuteBatch(std::span<const std::span<const uint8_t>> members,
                                uint32_t model_version, const core::ApiChecker& checker,
                                const emu::TrackedApiSet& tracked) override;

  void SetHealthListener(HealthListener listener) override;
  void StopMonitor() override;

  const char* kind() const override { return "remote"; }
  std::string describe() const override;
  double last_rpc_ms() const override {
    return last_rpc_ms_.load(std::memory_order_relaxed);
  }

  bool connected() const;
  uint64_t reconnects() const { return reconnects_.load(std::memory_order_relaxed); }

 private:
  // One established worker connection. ExecuteBatch and the monitor thread
  // both hold shared_ptrs; Break() shuts both sockets down (waking any
  // blocked reader) without destroying them under a peer thread.
  struct Conn {
    Socket rpc;
    Socket heartbeat;
    std::atomic<bool> broken{false};
    // Version of the model last shipped on this connection; UINT32_MAX means
    // none yet. Touched only by ExecuteBatch (one in flight per backend).
    uint32_t model_version_sent = UINT32_MAX;

    void Break() {
      broken.store(true, std::memory_order_release);
      rpc.ShutdownBoth();
      heartbeat.ShutdownBoth();
    }
  };

  // The monitor tick: runs one connect attempt or one ping/pong exchange,
  // then schedules its successor. Bounded-blocking (connect_timeout / pong
  // timeout at most) on a runtime worker.
  void Tick();
  void ConnectStep();
  void HeartbeatStep(const std::shared_ptr<Conn>& conn);
  // Arms the next tick after `delay`, maintaining the pending-tick count
  // StopMonitor() drains against. No-op once stopping.
  void ScheduleTick(std::chrono::milliseconds delay);
  std::shared_ptr<Conn> TryConnect(std::string* error);
  util::Result<Socket> OpenChannel(Channel channel, std::string* error);
  // Marks `conn` lost: breaks it, clears conn_ (if current), notifies the
  // listener once per connection.
  void MarkLost(const std::shared_ptr<Conn>& conn, const std::string& reason);
  emu::BatchResult TransportFault(const std::shared_ptr<Conn>& conn, std::string reason);
  // Ships `request` (model first when this connection lacks its version) and
  // returns the worker's result, one report per request entry.
  emu::BatchResult RunOnWorker(const RunBatchRequest& request, const core::ApiChecker& checker);

  const android::ApiUniverse& universe_;
  RemoteClientConfig config_;
  Endpoint endpoint_;
  uint64_t universe_checksum_ = 0;
  obs::Histogram& parse_ms_;  // One observation per ExecuteBatch member.
  std::unique_ptr<rt::Runtime> owned_runtime_;  // Only when none was passed.
  rt::Runtime* rt_ = nullptr;

  mutable std::mutex mu_;  // Guards conn_, listener_, lost_reported_.
  std::shared_ptr<Conn> conn_;
  HealthListener listener_;
  // True once kLost has been reported for the current outage, so flapping
  // inside one outage doesn't spam the breaker.
  bool lost_reported_ = false;

  std::atomic<bool> stop_{false};

  // Tick-chain accounting: pending_ticks_ counts the scheduled-or-executing
  // monitor ticks (0 or 1 in steady state; transiently 2 while a tick arms
  // its successor). StopMonitor cancels the armed timer and waits for the
  // count to hit zero — its "no listener after return" contract.
  std::mutex tick_mu_;
  std::condition_variable tick_cv_;
  int pending_ticks_ = 0;        // Guarded by tick_mu_.
  rt::CancelToken tick_timer_;   // Guarded by tick_mu_.

  // Monitor state, touched only by the (serialized) tick chain.
  std::chrono::milliseconds backoff_{0};
  bool first_attempt_ = true;
  uint64_t ping_seq_ = 0;

  std::atomic<double> last_rpc_ms_{0.0};
  std::atomic<uint64_t> reconnects_{0};
  std::atomic<bool> ever_connected_{false};
};

}  // namespace apichecker::fabric

#endif  // APICHECKER_FABRIC_REMOTE_CLIENT_H_
