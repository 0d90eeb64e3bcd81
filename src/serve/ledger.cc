#include "serve/ledger.h"

#include <algorithm>
#include <string_view>
#include <utility>
#include <vector>

#include "obs/names.h"

namespace apichecker::serve {

namespace {

double MsSince(Clock::time_point start, Clock::time_point end) {
  return std::chrono::duration<double, std::milli>(end - start).count();
}

obs::MetricsRegistry& Metrics() { return obs::MetricsRegistry::Default(); }

// The registry series of each VetStatus: its unlabeled total, and whether it
// also has {class=...} siblings. Aborted uploads are the gateway's to count;
// they never reach the service.
struct StatusSeries {
  const char* total;
  bool by_class;
};

constexpr std::array<StatusSeries, kNumVetStatuses> kStatusSeries = {{
    {obs::names::kServeCompletedTotal, true},               // kOk
    {obs::names::kServeDeadlineExpiredTotal, true},         // kDeadlineExpired
    {obs::names::kServeParseErrorsTotal, false},            // kParseError
    {obs::names::kServeFarmRejectedUnhealthyTotal, false},  // kRejectedUnhealthy
    {obs::names::kServeShedTotal, true},                    // kShedOverload
    {nullptr, false},                                       // kAbortedUpload
}};

// Future waiters are released first, then the async hook fires with the
// settled value.
void Deliver(PendingSubmission& pending, VettingResult result) {
  auto on_result = std::move(pending.on_result);
  if (on_result) {
    VettingResult settled = result;
    pending.promise.set_value(std::move(result));
    on_result(settled);
  } else {
    pending.promise.set_value(std::move(result));
  }
}

}  // namespace

ResolutionLedger::ResolutionLedger()
    : submissions_total_(Metrics().counter(obs::names::kServeSubmissionsTotal)),
      accepted_total_(Metrics().counter(obs::names::kServeAcceptedTotal)),
      rejected_total_(Metrics().counter(obs::names::kServeRejectedTotal)),
      cache_hits_total_(Metrics().counter(obs::names::kServeCacheHitsTotal)),
      warm_hits_total_(Metrics().counter(obs::names::kStoreWarmStartHitsTotal)),
      e2e_ms_(Metrics().histogram(obs::names::kServeE2eLatencyMs)),
      collector_(obs::TraceCollector::Default()) {
  for (size_t c = 0; c < kNumPriorityClasses; ++c) {
    const Priority priority = static_cast<Priority>(c);
    accepted_by_class_[c] =
        &Metrics().counter(ClassSeriesName(obs::names::kServeAcceptedTotal, priority));
    e2e_ms_by_class_[c] =
        &Metrics().histogram(ClassSeriesName(obs::names::kServeE2eLatencyMs, priority));
  }
  for (size_t s = 0; s < kNumVetStatuses; ++s) {
    const StatusSeries& series = kStatusSeries[s];
    if (series.total == nullptr) {
      continue;
    }
    status_total_[s] = &Metrics().counter(series.total);
    for (size_t c = 0; series.by_class && c < kNumPriorityClasses; ++c) {
      status_by_class_[s][c] = &Metrics().counter(
          ClassSeriesName(series.total, static_cast<Priority>(c)));
    }
  }
}

void ResolutionLedger::Accept(Priority priority) {
  const size_t cls = static_cast<size_t>(priority);
  accepted_[cls].fetch_add(1, std::memory_order_relaxed);
  submissions_total_.Increment();
  accepted_total_.Increment();
  accepted_by_class_[cls]->Increment();
}

void ResolutionLedger::Refuse(const obs::TraceContext& trace) {
  refused_.fetch_add(1, std::memory_order_relaxed);
  submissions_total_.Increment();
  rejected_total_.Increment();
  if (trace.sampled()) {
    collector_.Complete(trace.trace_id, "rejected", /*from_cache=*/false, {}, 0.0);
  }
}

void ResolutionLedger::Resolve(PendingSubmission& pending, VettingResult result,
                               const Timeline& timeline) {
  const Clock::time_point resolved_at = Clock::now();
  const size_t status = static_cast<size_t>(result.status);
  const size_t cls = static_cast<size_t>(pending.priority);
  result.total_ms = MsSince(pending.admitted_at, resolved_at);
  if (timeline.assembled_at != Clock::time_point{}) {
    result.queue_ms = MsSince(pending.admitted_at, timeline.assembled_at);
  }

  resolved_[status][cls].fetch_add(1, std::memory_order_relaxed);
  if (status_total_[status] != nullptr) {
    status_total_[status]->Increment();
  }
  if (status_by_class_[status][cls] != nullptr) {
    status_by_class_[status][cls]->Increment();
  }
  if (result.from_cache) {
    cache_hits_.fetch_add(1, std::memory_order_relaxed);
    cache_hits_total_.Increment();
    if (timeline.warm) {
      // The verdict came from the verdict store's recovery replay, not from
      // any emulation this process ran: the warm start paid off.
      warm_hits_.fetch_add(1, std::memory_order_relaxed);
      warm_hits_total_.Increment();
    }
  }
  e2e_ms_.Observe(result.total_ms);
  e2e_ms_by_class_[cls]->Observe(result.total_ms);

  if (pending.trace.sampled()) {
    SealTrace(pending, result, timeline, resolved_at);
  }
  Deliver(pending, std::move(result));
}

void ResolutionLedger::SealTrace(const PendingSubmission& pending,
                                 const VettingResult& result,
                                 const Timeline& timeline,
                                 Clock::time_point resolved_at) {
  const uint64_t trace_id = pending.trace.trace_id;
  std::vector<obs::StageMs> breakdown;
  // One contiguous entry (and span) per stage. The pool records its own
  // `farm` span per dispatch attempt, so that stage only joins the breakdown.
  auto add = [&](const char* stage, double start_ms, double ms, size_t depth) {
    ms = std::max(0.0, ms);
    breakdown.push_back({stage, ms});
    if (std::string_view(stage) == obs::stages::kFarm) {
      return;
    }
    obs::StageSpan span;
    span.stage = stage;
    span.start_ms = start_ms;
    span.duration_ms = ms;
    span.queue_depth = depth;
    collector_.Record(trace_id, span);
  };

  // Walk the boundaries in pipeline order. The first one never reached ends
  // the walk, and the stage before it runs until resolution.
  const struct {
    const char* stage;
    Clock::time_point end;
    size_t depth;
  } stages[] = {
      {obs::stages::kSubmit, pending.enqueued_at, pending.submit_depth},
      {obs::stages::kShard, pending.popped_at, 0},
      {obs::stages::kBatch, timeline.dispatched_at, timeline.batch_size},
      {obs::stages::kFarm, timeline.farm_done, 0},
  };
  Clock::time_point from = pending.admitted_at;
  for (const auto& stage : stages) {
    const bool reached = stage.end != Clock::time_point{};
    const Clock::time_point to = reached ? stage.end : resolved_at;
    add(stage.stage, collector_.ToEpochMs(from), MsSince(from, to), stage.depth);
    if (!reached) {
      break;
    }
    from = to;
  }
  if (timeline.farm_done != Clock::time_point{}) {
    const double classify_start = collector_.ToEpochMs(timeline.farm_done);
    add(obs::stages::kClassify, classify_start, timeline.classify_ms, 0);
    if (timeline.store_ms >= 0.0) {
      add(obs::stages::kStore, classify_start + timeline.classify_ms,
          timeline.store_ms, 0);
    }
  }

  // The remainder up to now — the ledger's own accounting included — is the
  // resolve stage, so the stage sums reconstruct the traced total exactly.
  const double total = MsSince(pending.admitted_at, Clock::now());
  double consumed = 0.0;
  for (const obs::StageMs& entry : breakdown) {
    consumed += entry.ms;
  }
  add(obs::stages::kResolve, collector_.ToEpochMs(pending.admitted_at) + consumed,
      total - consumed, 0);

  obs::ObserveStageBreakdown(breakdown, total);
  collector_.Complete(trace_id, VetStatusName(result.status), result.from_cache,
                      std::move(breakdown), total);
}

ServiceStats ResolutionLedger::stats() const {
  ServiceStats stats;
  for (size_t c = 0; c < kNumPriorityClasses; ++c) {
    stats.accepted_by_class[c] = accepted_[c].load(std::memory_order_relaxed);
    stats.accepted += stats.accepted_by_class[c];
    for (size_t s = 0; s < kNumVetStatuses; ++s) {
      stats.resolutions[s][c] = resolved_[s][c].load(std::memory_order_relaxed);
    }
  }
  stats.rejected = refused_.load(std::memory_order_relaxed);
  stats.submitted = stats.accepted + stats.rejected;
  auto row = [&stats](VetStatus status) {
    uint64_t total = 0;
    for (uint64_t n : stats.resolutions[static_cast<size_t>(status)]) total += n;
    return total;
  };
  stats.completed = row(VetStatus::kOk);
  stats.deadline_expired = row(VetStatus::kDeadlineExpired);
  stats.parse_errors = row(VetStatus::kParseError);
  stats.rejected_unhealthy = row(VetStatus::kRejectedUnhealthy);
  stats.shed_overload = row(VetStatus::kShedOverload);
  stats.completed_by_class = stats.resolutions[static_cast<size_t>(VetStatus::kOk)];
  stats.expired_by_class =
      stats.resolutions[static_cast<size_t>(VetStatus::kDeadlineExpired)];
  stats.shed_by_class =
      stats.resolutions[static_cast<size_t>(VetStatus::kShedOverload)];
  stats.cache_hits = cache_hits_.load(std::memory_order_relaxed);
  stats.warm_start_hits = warm_hits_.load(std::memory_order_relaxed);
  return stats;
}

}  // namespace apichecker::serve
