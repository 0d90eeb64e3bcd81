// FarmBackend: the batch-execution edge the serve::FarmPool dispatch tasks
// call. A batch arrives as its members' APK container bytes, and the backend
// parses them: LocalFarmBackend wraps an in-process emu::DeviceFarm (the
// pre-fabric behavior, still the default) whose one fan-out parses and
// emulates each member, and RemoteFarmClient (remote_client.h) parses every
// member, then ships the ones that parsed to an `apichecker farm` worker
// process over the fabric protocol. The pool's least-loaded routing, digest
// affinity, circuit breakers, and bounded failover operate on this interface
// and cannot tell the two apart, except that a remote backend additionally
// reports connection-health transitions so the breaker can open on a dead
// worker without waiting for a batch to fail.

#ifndef APICHECKER_FABRIC_BACKEND_H_
#define APICHECKER_FABRIC_BACKEND_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>

#include "android/api_universe.h"
#include "core/checker.h"
#include "emu/farm.h"
#include "rt/runtime.h"

namespace apichecker::fabric {

// Fingerprint of the API universe both ends of a fabric connection must
// share. Covers the generation parameters that shape emulation reports; a
// mismatch fails the handshake rather than silently producing garbage
// features on one side.
uint64_t UniverseChecksum(const android::ApiUniverse& universe);

class FarmBackend {
 public:
  enum class Health : uint8_t {
    kLost = 0,      // Connection gone or heartbeat missed: open the breaker.
    kRestored = 1,  // Reconnected: make the breaker probe-eligible now.
  };
  using HealthListener = std::function<void(Health, const std::string& reason)>;

  virtual ~FarmBackend() = default;

  // Executes one batch of APK container bytes. Every member is parsed (and
  // timed into apichecker_ingest_parse_stage_ms) before a fault can fire, so
  // parse_errors names each member that failed to parse even in a faulted
  // result; reports are index-addressed like the input. A batch in which no
  // member parses runs nothing and never faults. `model_version`/`checker`
  // describe the serving model snapshot the batch was formed under (a remote
  // backend ships the model to its worker when the version changes);
  // `tracked` is the hook set derived from that same snapshot. Failures are
  // in-band: a fault result with farm_fault set (and transport_fault for
  // connection failures), never an exception — the pool's failover path
  // predates the fabric and stays as-is.
  virtual emu::BatchResult ExecuteBatch(std::span<const std::span<const uint8_t>> members,
                                        uint32_t model_version,
                                        const core::ApiChecker& checker,
                                        const emu::TrackedApiSet& tracked) = 0;

  // Registers the pool's breaker hook. May be invoked from the backend's
  // monitor thread at any moment until StopMonitor() returns.
  virtual void SetHealthListener(HealthListener /*listener*/) {}

  // Stops background threads (heartbeat monitor, reconnector) and joins
  // them. After this returns the health listener will not be invoked again —
  // the pool calls this in Close() before its own state is torn down.
  virtual void StopMonitor() {}

  virtual const char* kind() const = 0;      // "local" | "remote".
  virtual std::string describe() const = 0;  // Human-readable target.

  // Wall-clock milliseconds the most recent ExecuteBatch spent on the wire
  // (0 for local backends); feeds the per-attempt rpc span in traces.
  virtual double last_rpc_ms() const { return 0.0; }
};

// In-process execution on an owned DeviceFarm. `runtime` runs the farm's
// per-app fan-out (null: the farm owns a private runtime).
class LocalFarmBackend : public FarmBackend {
 public:
  LocalFarmBackend(const android::ApiUniverse& universe, emu::FarmConfig config,
                   rt::Runtime* runtime = nullptr)
      : farm_(universe, std::move(config), runtime) {}

  emu::BatchResult ExecuteBatch(std::span<const std::span<const uint8_t>> members,
                                uint32_t model_version, const core::ApiChecker& checker,
                                const emu::TrackedApiSet& tracked) override {
    (void)model_version;
    (void)checker;
    return farm_.RunBatchBytes(members, tracked);
  }

  const char* kind() const override { return "local"; }
  std::string describe() const override;

  emu::DeviceFarm& farm() { return farm_; }

 private:
  emu::DeviceFarm farm_;
};

}  // namespace apichecker::fabric

#endif  // APICHECKER_FABRIC_BACKEND_H_
