// Request-scoped distributed tracing for the asynchronous vetting pipeline,
// and obs's one tracing path. A submission hops from the submitter thread to
// a shard queue, the scheduler, a farm-pool worker, and back through the
// async resolution callbacks, so a thread-local span stack cannot follow it.
// A TraceContext is the piece that survives those hops: a plain value
// (trace id + sampling decision) stamped onto the submission at admission
// and carried by move/copy through every stage. Each stage records
// a StageSpan (stage name, optional label such as the farm id, queue depth at
// entry, fault flag) into the process-wide TraceCollector.
//
// Collector design: lock-striped by trace id (mirroring MetricsRegistry's
// sharding) — a stripe holds an open-trace map bounded at max_open_traces /
// kStripes (a submission storm degrades to dropped *new* traces, counted, not
// unbounded memory) and a bounded completed ring (drop-oldest). A separate
// tail sampler always retains the N slowest *complete* traces, so the p99
// outlier of a long run can be explained after the fact even though the ring
// has long since recycled it. Memory is therefore bounded by
//   max_open_traces + completed_capacity + tail_keep traces.
//
// Stage vocabulary (span names and breakdown keys are the same): submit,
// shard (queue wait), batch (linger/assembly), farm (one span per dispatch
// attempt; failover = sibling spans), classify, store, resolve. The
// per-submission *breakdown* is a contiguous partition of admitted→resolved
// wall time over those stages, so per-stage histograms sum to the end-to-end
// latency by construction (ObserveStageBreakdown feeds them).

#ifndef APICHECKER_OBS_TRACE_COLLECTOR_H_
#define APICHECKER_OBS_TRACE_COLLECTOR_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "util/result.h"

namespace apichecker::obs {

// Pipeline stage names: shared between StageSpan.stage, Trace.breakdown keys,
// and StageHistogramName().
namespace stages {
inline constexpr char kSubmit[] = "submit";
inline constexpr char kShard[] = "shard";        // Shard-queue wait.
inline constexpr char kBatch[] = "batch";        // Linger + batch assembly.
inline constexpr char kFarm[] = "farm";          // Dispatch + parse + emulate.
inline constexpr char kClassify[] = "classify";
inline constexpr char kStore[] = "store";        // Verdict-store append.
inline constexpr char kResolve[] = "resolve";
}  // namespace stages

// The value that travels with a submission. trace_id == 0 means "not
// sampled": every recording call is a cheap no-op.
struct TraceContext {
  uint64_t trace_id = 0;
  bool sampled() const { return trace_id != 0; }
};

// One hop of one submission through one stage.
struct StageSpan {
  std::string stage;        // One of obs::stages::*.
  std::string label;        // Stage-specific, e.g. "farm=2"; may be empty.
  double start_ms = 0.0;    // Relative to the collector's epoch.
  double duration_ms = 0.0;
  uint64_t queue_depth = 0; // Depth of the stage's queue at entry.
  bool fault = false;       // This attempt failed (failover sibling span).
};

// One entry of the contiguous per-submission latency partition.
struct StageMs {
  std::string stage;
  double ms = 0.0;
};

struct Trace {
  uint64_t trace_id = 0;
  std::string status;       // serve::VetStatusName value, or "rejected".
  bool from_cache = false;
  double start_ms = 0.0;    // First span's start (collector epoch).
  double total_ms = 0.0;    // Admission -> resolution.
  std::vector<StageSpan> spans;
  std::vector<StageMs> breakdown;

  bool HasStage(std::string_view stage) const;
  // Sum of the breakdown entries; within float error of total_ms.
  double BreakdownSumMs() const;
};

struct TraceCollectorOptions {
  size_t max_open_traces = 4096;     // Bound on concurrently open traces.
  size_t completed_capacity = 2048;  // Completed ring; drop-oldest.
  size_t tail_keep = 16;             // Slowest complete traces always kept.
};

class TraceCollector {
 public:
  using Options = TraceCollectorOptions;

  explicit TraceCollector(Options options = Options());

  TraceCollector(const TraceCollector&) = delete;
  TraceCollector& operator=(const TraceCollector&) = delete;

  // Process-wide collector, mirroring MetricsRegistry::Default().
  static TraceCollector& Default();

  // Allocates a trace id (never 0) and opens the trace. When the open-trace
  // bound is hit the trace is dropped at birth (counted): the id is still
  // returned and every later Record/Complete for it is a counted no-op.
  uint64_t StartTrace();

  // Appends a span to an open trace. Unknown/completed ids are counted as
  // dropped spans, never an error — late spans lose to Complete by design.
  void Record(uint64_t trace_id, StageSpan span);

  // Seals the trace: moves it open -> completed ring (+ tail sampler).
  void Complete(uint64_t trace_id, std::string status, bool from_cache,
                std::vector<StageMs> breakdown, double total_ms);

  // Completed traces, oldest first (ring order per stripe, merged by start).
  std::vector<Trace> Completed() const;
  // The tail sampler's view: slowest complete traces, slowest first.
  std::vector<Trace> Slowest() const;

  size_t open_traces() const;
  uint64_t spans_recorded() const { return spans_recorded_.load(std::memory_order_relaxed); }
  uint64_t spans_dropped() const { return spans_dropped_.load(std::memory_order_relaxed); }
  uint64_t traces_started() const { return traces_started_.load(std::memory_order_relaxed); }
  uint64_t traces_completed() const { return traces_completed_.load(std::memory_order_relaxed); }
  uint64_t traces_dropped() const { return traces_dropped_.load(std::memory_order_relaxed); }
  const Options& options() const { return options_; }

  // Drops every open and completed trace (tests; the CLI between runs).
  void Clear();

  // Milliseconds since the collector's epoch (its construction time).
  double NowMs() const;
  double ToEpochMs(std::chrono::steady_clock::time_point tp) const;

 private:
  static constexpr size_t kStripes = 8;

  struct Stripe {
    mutable std::mutex mu;
    std::unordered_map<uint64_t, Trace> open;
    std::deque<Trace> completed;
  };

  Stripe& StripeFor(uint64_t trace_id) const {
    return stripes_[trace_id % kStripes];
  }

  const Options options_;
  const size_t open_per_stripe_;
  const size_t completed_per_stripe_;
  const std::chrono::steady_clock::time_point epoch_;
  mutable Stripe stripes_[kStripes];

  // Tail sampler: its own lock, touched once per *completed* trace only.
  mutable std::mutex tail_mu_;
  std::vector<Trace> tail_;  // Sorted by total_ms descending.

  std::atomic<uint64_t> next_id_{1};
  std::atomic<uint64_t> spans_recorded_{0};
  std::atomic<uint64_t> spans_dropped_{0};
  std::atomic<uint64_t> traces_started_{0};
  std::atomic<uint64_t> traces_completed_{0};
  std::atomic<uint64_t> traces_dropped_{0};
};

// Histogram series name for one breakdown stage (obs/names.h constants).
// Unknown stages map to the resolve histogram (they are remainder time).
const char* StageHistogramName(std::string_view stage);

// Feeds one submission's contiguous breakdown into the per-stage histograms
// plus the traced-e2e histogram — the pair ci.sh checks sums against.
void ObserveStageBreakdown(const std::vector<StageMs>& breakdown, double total_ms);

// Chrome about:tracing / Perfetto "trace_event" JSON: one complete ("ph":"X")
// event per span, one tid per trace.
std::string TracesToChromeJson(const std::vector<Trace>& traces);

// JSON-lines: one self-contained JSON object per trace per line.
std::string TracesToJsonLines(const std::vector<Trace>& traces);

// Writes Chrome format when `path` ends in ".trace.json", JSON-lines
// otherwise. Refuses to overwrite an existing file unless `force`.
util::Result<bool> WriteTraceFile(const std::string& path,
                                  const std::vector<Trace>& traces, bool force);

}  // namespace apichecker::obs

#endif  // APICHECKER_OBS_TRACE_COLLECTOR_H_
