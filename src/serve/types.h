// Shared types of the online vetting service: the submission request, the
// resolved vetting result, the in-queue pending record, and the stats the
// resolution ledger reports. The service models the paper's production loop —
// T-Market submits ~10K APKs/day and expects verdicts back within the hour
// (§5) — as an in-process request/response system with explicit backpressure.

#ifndef APICHECKER_SERVE_TYPES_H_
#define APICHECKER_SERVE_TYPES_H_

#include <array>
#include <chrono>
#include <cstdint>
#include <functional>
#include <future>
#include <string>
#include <utility>
#include <vector>

#include "ingest/apk_blob.h"
#include "obs/labels.h"
#include "obs/trace_collector.h"

namespace apichecker::serve {

using Clock = std::chrono::steady_clock;

// Traffic classes of the market front end (§2, §5): developer resubmits and
// security escalations must stay interactive while scheduled rescans and bulk
// catalog sweeps absorb whatever capacity is left. The enum value doubles as
// the shed order — higher values are shed first, kInteractive is never shed.
enum class Priority : uint8_t {
  kInteractive = 0,  // Developer-facing: publish gates, escalations.
  kRescan = 1,       // Model-upgrade rescans of the existing catalog.
  kBulk = 2,         // Bulk sweeps / crawler backfill; first to shed.
};

inline constexpr size_t kNumPriorityClasses = 3;

inline const char* PriorityName(Priority priority) {
  switch (priority) {
    case Priority::kInteractive:
      return "interactive";
    case Priority::kRescan:
      return "rescan";
    case Priority::kBulk:
      return "bulk";
  }
  return "unknown";
}

// Per-priority-class metric series name with an embedded Prometheus label,
// e.g. apichecker_serve_shed_total{class="bulk"}.
inline std::string ClassSeriesName(const char* base, Priority priority) {
  return obs::LabeledSeriesName(base, "class", PriorityName(priority));
}

// One vetting request: the APK archive as uploaded by a developer, held as a
// ref-counted immutable blob (streamed in and hashed incrementally by the
// ingest layer). Every downstream stage shares this one allocation.
struct Submission {
  ingest::ApkBlob blob;
  // Traffic class: routes into the class's shard sub-queue (weighted-fair
  // pop), selects the shed order under overload, and picks the default SLO
  // deadline. Undeclared traffic is bulk — the first class to degrade.
  Priority priority = Priority::kBulk;
  // Relative deadline; zero means the class SLO default (or none if that is
  // unset too). Expired submissions resolve with kDeadlineExpired instead of
  // occupying an emulator.
  std::chrono::milliseconds deadline{0};
};

enum class VetStatus : uint8_t {
  kOk = 0,               // Classified (fresh emulation or digest-cache hit).
  kDeadlineExpired = 1,  // Deadline passed before an emulator picked it up.
  kParseError = 2,       // Not a valid APK archive.
  // Every farm in the pool was faulted/circuit-broken (or the batch exhausted
  // its retry budget): the submission is rejected visibly instead of hanging.
  kRejectedUnhealthy = 3,
  // Dropped by overload control at admission: the watermark state machine was
  // in pressure/critical and the submission's class is sheddable. Resolved
  // immediately — the caller sees the drop instead of a timeout.
  kShedOverload = 4,
  // The network upload carrying this submission died before the body
  // completed (client disconnect, slow-loris eviction, length-contract
  // violation, or gateway drain). The gateway resolves it visibly so the
  // extended drain invariant (accepted == resolved + aborted) still balances.
  kAbortedUpload = 5,
};

inline constexpr size_t kNumVetStatuses = 6;

inline const char* VetStatusName(VetStatus status) {
  switch (status) {
    case VetStatus::kOk:
      return "ok";
    case VetStatus::kDeadlineExpired:
      return "deadline_expired";
    case VetStatus::kParseError:
      return "parse_error";
    case VetStatus::kRejectedUnhealthy:
      return "rejected_unhealthy";
    case VetStatus::kShedOverload:
      return "shed_overload";
    case VetStatus::kAbortedUpload:
      return "aborted_upload";
  }
  return "unknown";
}

// The resolved outcome delivered through the future returned by Submit().
struct VettingResult {
  VetStatus status = VetStatus::kOk;
  bool malicious = false;
  double score = 0.0;
  bool from_cache = false;      // Digest cache hit — emulation was skipped.
  uint32_t model_version = 0;   // Serving-model snapshot that classified it.
  double queue_ms = 0.0;        // Admission -> batch assembly.
  double total_ms = 0.0;        // Admission -> resolution.
  std::string error;            // Parse-error message when kParseError.
};

// Internal record travelling from admission through the sharded queues to the
// batch scheduler. Move-only (owns the promise). The APK bytes and their
// digest live in the shared blob — moving this record through the queue moves
// a handle, never the payload.
struct PendingSubmission {
  uint64_t id = 0;
  ingest::ApkBlob blob;
  Priority priority = Priority::kBulk;
  Clock::time_point admitted_at;
  // Contiguous stage timestamps for latency attribution: admitted_at ->
  // enqueued_at (submit) -> popped_at (shard-queue wait) -> dispatch (batch
  // assembly/linger) -> ... Stamped by Submit() and the shard pop path; the
  // ledger builds the trace partition from them (serve/ledger.h).
  Clock::time_point enqueued_at;
  Clock::time_point popped_at;
  Clock::time_point deadline;     // Clock::time_point::max() = none.
  // Shard backlog seen at admission: the submit span's queue depth.
  size_t submit_depth = 0;
  // Request-scoped trace identity, propagated by value through every stage;
  // trace.sampled() == false makes all recording no-ops.
  obs::TraceContext trace;
  std::promise<VettingResult> promise;
  // Optional completion hook, invoked after the promise is fulfilled, on
  // whichever runtime task resolved the submission. The network gateway
  // registers one so verdict delivery becomes an event instead of a thread
  // parked on future.get(). Must be cheap and non-blocking.
  std::function<void(const VettingResult&)> on_result;

  // SHA-1 hex of the blob bytes, computed once at blob creation.
  const std::string& digest() const { return blob.digest(); }
};

// Coarse APK size classes for the admission-latency histograms. The flat-
// admission property the ingest refactor buys is exactly "the large bucket's
// p99 tracks the small bucket's" — ci.sh asserts it from the metrics JSON.
inline constexpr const char* kApkSizeBuckets[] = {"small", "medium", "large"};

inline size_t ApkSizeBucketIndex(size_t bytes) {
  if (bytes < 256 * 1024) return 0;
  if (bytes < 4 * 1024 * 1024) return 1;
  return 2;
}

// Per-size-bucket metric series name with an embedded Prometheus label, e.g.
// apichecker_serve_admission_latency_ms{size="large"}. Routed through the
// shared label builder so the value is escaped like every other series.
inline std::string AdmissionSeriesName(const char* base, const char* bucket) {
  return obs::LabeledSeriesName(base, "size", bucket);
}

// Resolutions counted by status (row, VetStatus) and traffic class (column,
// Priority).
using ResolutionMatrix =
    std::array<std::array<uint64_t, kNumPriorityClasses>, kNumVetStatuses>;

// Value copy of the service's accounting. The serving invariant — no lost
// submissions — is `accepted == resolved()` after a drain; it holds even when
// farms die mid-run and when overload control is actively shedding.
struct ServiceStats {
  uint64_t submitted = 0;  // accepted + rejected.
  uint64_t accepted = 0;
  uint64_t rejected = 0;   // Admission-control refusals.
  // Per-status views of `resolutions`.
  uint64_t completed = 0;  // kOk results (incl. cache hits).
  uint64_t deadline_expired = 0;
  uint64_t parse_errors = 0;
  uint64_t rejected_unhealthy = 0;  // No healthy farm / retries spent.
  uint64_t shed_overload = 0;       // Dropped by the overload governor.
  uint64_t cache_hits = 0;
  uint64_t warm_start_hits = 0;  // Cache hits on store-recovered entries.
  uint64_t model_swaps = 0;
  uint64_t batches = 0;
  // Per-traffic-class breakdowns, indexed by Priority. A shed submission
  // counts as accepted (it received a verdict) and as shed.
  std::array<uint64_t, kNumPriorityClasses> accepted_by_class{};
  std::array<uint64_t, kNumPriorityClasses> completed_by_class{};
  std::array<uint64_t, kNumPriorityClasses> expired_by_class{};
  std::array<uint64_t, kNumPriorityClasses> shed_by_class{};
  // Farm-pool accounting (mirrors FarmPoolStats aggregates).
  uint64_t farm_faults = 0;
  uint64_t farm_retries = 0;
  ResolutionMatrix resolutions{};

  // Every status of every class: no status can be left out of the sum.
  uint64_t resolved() const {
    uint64_t total = 0;
    for (const auto& row : resolutions) {
      for (uint64_t n : row) total += n;
    }
    return total;
  }
};

}  // namespace apichecker::serve

#endif  // APICHECKER_SERVE_TYPES_H_
