// ResolutionLedger: the one place a submission's way out of the vetting
// service is accounted. Admission reports every offer as accepted or refused;
// every accepted submission then leaves through exactly one Resolve(),
// whatever its path: the admission cache fast path, shed, triage (deadline
// expiry or cache hit), a parse error, a pool rejection, a fresh verdict or an
// in-batch follower of one. Resolve() counts the status in one status x class
// matrix and its registry series, observes end-to-end latency, builds the
// contiguous trace partition from the stage timestamps the submission
// actually reached, seals the trace, and delivers the promise then the
// callback. So `accepted == resolved` after a drain holds by construction, and
// the per-status accounting exists once.
//
// Registry handles are resolved once, at construction; the hot path never
// looks a series up by name.

#ifndef APICHECKER_SERVE_LEDGER_H_
#define APICHECKER_SERVE_LEDGER_H_

#include <array>
#include <atomic>
#include <cstdint>

#include "obs/metrics.h"
#include "obs/trace_collector.h"
#include "serve/types.h"

namespace apichecker::serve {

// The stage boundaries a submission reached beyond its own admission stamps
// (PendingSubmission::admitted_at/enqueued_at/popped_at). A default (unset)
// time point means the boundary was never reached: the stage before it then
// runs until resolution.
struct Timeline {
  Clock::time_point assembled_at;   // Batch assembly (result.queue_ms end).
  Clock::time_point dispatched_at;  // Handed to the farm pool.
  Clock::time_point farm_done;      // Farm report ready == classify start.
  double classify_ms = 0.0;         // Used only when farm_done is set.
  double store_ms = -1.0;           // < 0: no store append happened.
  size_t batch_size = 0;            // Members of the batch (batch span depth).
  // The cache hit served a verdict replayed from the verdict store at start.
  bool warm = false;
};

class ResolutionLedger {
 public:
  ResolutionLedger();

  ResolutionLedger(const ResolutionLedger&) = delete;
  ResolutionLedger& operator=(const ResolutionLedger&) = delete;

  // Admission outcomes. A refused submission never entered the pipeline: its
  // trace (if sampled) is sealed `rejected` with an empty breakdown, so it
  // feeds none of the per-stage histograms.
  void Accept(Priority priority);
  void Refuse(const obs::TraceContext& trace);

  // The single exit of an accepted submission. Fills result.total_ms (and
  // queue_ms once the batch was assembled); a from_cache result must be kOk
  // and counts as a cache hit. Thread-safe.
  void Resolve(PendingSubmission& pending, VettingResult result,
               const Timeline& timeline);

  // Admission and resolution accounting; batches, model swaps and the farm
  // fields are left for the owner to fill.
  ServiceStats stats() const;

 private:
  void SealTrace(const PendingSubmission& pending, const VettingResult& result,
                 const Timeline& timeline, Clock::time_point resolved_at);

  std::array<std::atomic<uint64_t>, kNumPriorityClasses> accepted_{};
  std::atomic<uint64_t> refused_{0};
  std::array<std::array<std::atomic<uint64_t>, kNumPriorityClasses>,
             kNumVetStatuses>
      resolved_{};
  std::atomic<uint64_t> cache_hits_{0};
  std::atomic<uint64_t> warm_hits_{0};

  obs::Counter& submissions_total_;
  obs::Counter& accepted_total_;
  obs::Counter& rejected_total_;
  obs::Counter& cache_hits_total_;
  obs::Counter& warm_hits_total_;
  std::array<obs::Counter*, kNumPriorityClasses> accepted_by_class_{};
  // Null where a status has no series (or no per-class series).
  std::array<obs::Counter*, kNumVetStatuses> status_total_{};
  std::array<std::array<obs::Counter*, kNumPriorityClasses>, kNumVetStatuses>
      status_by_class_{};
  obs::Histogram& e2e_ms_;
  std::array<obs::Histogram*, kNumPriorityClasses> e2e_ms_by_class_{};
  obs::TraceCollector& collector_;
};

}  // namespace apichecker::serve

#endif  // APICHECKER_SERVE_LEDGER_H_
