#include "obs/metrics.h"

#include <algorithm>
#include <cmath>
#include <unordered_map>

#include "obs/names.h"
#include "util/logging.h"
#include "util/rng.h"

namespace apichecker::obs {

namespace {

// Round-robin stripe assignment: the first histogram touch on a thread picks
// the next stripe, so up to kStripes threads observe without contention.
size_t ThisThreadStripe() {
  static std::atomic<size_t> next{0};
  thread_local const size_t stripe =
      next.fetch_add(1, std::memory_order_relaxed) % Histogram::kStripes;
  return stripe;
}

}  // namespace

double HistogramSnapshot::Quantile(double q) const {
  if (sample.empty()) {
    return 0.0;
  }
  q = std::clamp(q, 0.0, 1.0);
  std::vector<double> sorted = sample;
  std::sort(sorted.begin(), sorted.end());
  const double pos = q * static_cast<double>(sorted.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return sorted[lo] * (1.0 - frac) + sorted[hi] * frac;
}

Histogram::Histogram(std::vector<double> bounds) : bounds_(std::move(bounds)) {
  if (bounds_.empty()) {
    bounds_ = ExponentialBounds(0.001, 2.0, 28);  // ~1e-3 .. ~1.3e5.
  }
  stripes_ = std::make_unique<Stripe[]>(kStripes);
  for (size_t s = 0; s < kStripes; ++s) {
    stripes_[s].buckets.assign(bounds_.size() + 1, 0);
    stripes_[s].rng_state = util::SplitMix64(0x0b5e7141 + s);
  }
}

std::vector<double> Histogram::ExponentialBounds(double start, double factor, size_t n) {
  std::vector<double> bounds;
  bounds.reserve(n);
  double b = start;
  for (size_t i = 0; i < n; ++i) {
    bounds.push_back(b);
    b *= factor;
  }
  return bounds;
}

std::vector<double> Histogram::LinearBounds(double start, double step, size_t n) {
  std::vector<double> bounds;
  bounds.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    bounds.push_back(start + step * static_cast<double>(i));
  }
  return bounds;
}

Histogram::Stripe& Histogram::LocalStripe() { return stripes_[ThisThreadStripe()]; }

void Histogram::Observe(double value) {
  const size_t bucket = static_cast<size_t>(
      std::upper_bound(bounds_.begin(), bounds_.end(), value) - bounds_.begin());
  Stripe& stripe = LocalStripe();
  std::lock_guard<std::mutex> lock(stripe.mu);
  ++stripe.buckets[bucket];
  ++stripe.count;
  stripe.sum += value;
  stripe.min = std::min(stripe.min, value);
  stripe.max = std::max(stripe.max, value);
  // Reservoir sampling (algorithm R) for quantiles: exact until the stripe
  // overflows kSamplesPerStripe, uniform thereafter.
  ++stripe.seen;
  if (stripe.sample.size() < kSamplesPerStripe) {
    stripe.sample.push_back(value);
  } else {
    stripe.rng_state = util::SplitMix64(stripe.rng_state);
    const uint64_t slot = stripe.rng_state % stripe.seen;
    if (slot < kSamplesPerStripe) {
      stripe.sample[static_cast<size_t>(slot)] = value;
    }
  }
}

HistogramSnapshot Histogram::Snapshot() const {
  HistogramSnapshot snapshot;
  snapshot.bounds = bounds_;
  snapshot.bucket_counts.assign(bounds_.size() + 1, 0);
  for (size_t s = 0; s < kStripes; ++s) {
    const Stripe& stripe = stripes_[s];
    std::lock_guard<std::mutex> lock(stripe.mu);
    for (size_t b = 0; b < snapshot.bucket_counts.size(); ++b) {
      snapshot.bucket_counts[b] += stripe.buckets[b];
    }
    snapshot.count += stripe.count;
    snapshot.sum += stripe.sum;
    snapshot.min = std::min(snapshot.min, stripe.min);
    snapshot.max = std::max(snapshot.max, stripe.max);
    snapshot.sample.insert(snapshot.sample.end(), stripe.sample.begin(),
                           stripe.sample.end());
  }
  return snapshot;
}

uint64_t Histogram::count() const {
  uint64_t total = 0;
  for (size_t s = 0; s < kStripes; ++s) {
    std::lock_guard<std::mutex> lock(stripes_[s].mu);
    total += stripes_[s].count;
  }
  return total;
}

double Histogram::sum() const {
  double total = 0.0;
  for (size_t s = 0; s < kStripes; ++s) {
    std::lock_guard<std::mutex> lock(stripes_[s].mu);
    total += stripes_[s].sum;
  }
  return total;
}

const char* MetricKindName(MetricKind kind) {
  switch (kind) {
    case MetricKind::kCounter:
      return "counter";
    case MetricKind::kGauge:
      return "gauge";
    case MetricKind::kHistogram:
      return "histogram";
  }
  return "?";
}

struct MetricsRegistry::Shard {
  mutable std::mutex mu;
  std::unordered_map<std::string, Entry> metrics;
};

MetricsRegistry::MetricsRegistry() : shards_(std::make_unique<Shard[]>(kShards)) {}

MetricsRegistry::~MetricsRegistry() = default;

MetricsRegistry& MetricsRegistry::Default() {
  // Never destroyed; pre-registered with the canonical pipeline metrics so
  // every export carries the full schema (with canonical buckets) no matter
  // which stage touches the registry first.
  static MetricsRegistry* registry = [] {
    auto* r = new MetricsRegistry();
    RegisterStandardMetrics(*r);
    return r;
  }();
  return *registry;
}

MetricsRegistry::Shard& MetricsRegistry::ShardFor(std::string_view name) const {
  return shards_[std::hash<std::string_view>{}(name) % kShards];
}

MetricsRegistry::Entry& MetricsRegistry::FindOrCreate(std::string_view name,
                                                      MetricKind kind,
                                                      std::string_view help,
                                                      std::vector<double> bounds) {
  Shard& shard = ShardFor(name);
  std::lock_guard<std::mutex> lock(shard.mu);
  auto [it, inserted] = shard.metrics.try_emplace(std::string(name));
  Entry& entry = it->second;
  if (inserted) {
    entry.kind = kind;
    entry.help = std::string(help);
    switch (kind) {
      case MetricKind::kCounter:
        entry.counter = std::make_unique<Counter>();
        break;
      case MetricKind::kGauge:
        entry.gauge = std::make_unique<Gauge>();
        break;
      case MetricKind::kHistogram:
        entry.histogram = std::make_unique<Histogram>(std::move(bounds));
        break;
    }
  } else if (entry.help.empty() && !help.empty()) {
    entry.help = std::string(help);
  }
  return entry;
}

Counter& MetricsRegistry::counter(std::string_view name, std::string_view help) {
  Entry& entry = FindOrCreate(name, MetricKind::kCounter, help, {});
  if (entry.kind != MetricKind::kCounter) {
    APICHECKER_LOG(Error) << "metric '" << name << "' already registered as "
                          << MetricKindName(entry.kind) << ", wanted counter";
    static Counter* dummy = new Counter();
    return *dummy;
  }
  return *entry.counter;
}

Gauge& MetricsRegistry::gauge(std::string_view name, std::string_view help) {
  Entry& entry = FindOrCreate(name, MetricKind::kGauge, help, {});
  if (entry.kind != MetricKind::kGauge) {
    APICHECKER_LOG(Error) << "metric '" << name << "' already registered as "
                          << MetricKindName(entry.kind) << ", wanted gauge";
    static Gauge* dummy = new Gauge();
    return *dummy;
  }
  return *entry.gauge;
}

Histogram& MetricsRegistry::histogram(std::string_view name, std::vector<double> bounds,
                                      std::string_view help) {
  Entry& entry = FindOrCreate(name, MetricKind::kHistogram, help, std::move(bounds));
  if (entry.kind != MetricKind::kHistogram) {
    APICHECKER_LOG(Error) << "metric '" << name << "' already registered as "
                          << MetricKindName(entry.kind) << ", wanted histogram";
    static Histogram* dummy = new Histogram();
    return *dummy;
  }
  return *entry.histogram;
}

std::vector<MetricSnapshot> MetricsRegistry::Snapshot() const {
  std::vector<MetricSnapshot> snapshots;
  for (size_t s = 0; s < kShards; ++s) {
    Shard& shard = shards_[s];
    std::lock_guard<std::mutex> lock(shard.mu);
    for (const auto& [name, entry] : shard.metrics) {
      MetricSnapshot snapshot;
      snapshot.name = name;
      snapshot.help = entry.help;
      snapshot.kind = entry.kind;
      switch (entry.kind) {
        case MetricKind::kCounter:
          snapshot.value = static_cast<double>(entry.counter->value());
          break;
        case MetricKind::kGauge:
          snapshot.value = entry.gauge->value();
          break;
        case MetricKind::kHistogram:
          snapshot.histogram = entry.histogram->Snapshot();
          break;
      }
      snapshots.push_back(std::move(snapshot));
    }
  }
  std::sort(snapshots.begin(), snapshots.end(),
            [](const MetricSnapshot& a, const MetricSnapshot& b) { return a.name < b.name; });
  return snapshots;
}

size_t MetricsRegistry::size() const {
  size_t total = 0;
  for (size_t s = 0; s < kShards; ++s) {
    std::lock_guard<std::mutex> lock(shards_[s].mu);
    total += shards_[s].metrics.size();
  }
  return total;
}

void RegisterStandardMetrics(MetricsRegistry& registry) {
  using namespace names;
  // Simulated emulation minutes per app: the paper's per-app vetting times
  // live in the 1..30 minute range (Figs 3/9/11), so linear minute buckets.
  const std::vector<double> minute_buckets = Histogram::LinearBounds(0.5, 0.5, 60);
  const std::vector<double> score_buckets = Histogram::LinearBounds(0.05, 0.05, 20);

  registry.counter(kEmuAppsTotal, "apps run through the dynamic-analysis engine");
  registry.histogram(kEmuAppMinutes, minute_buckets,
                     "simulated per-app emulation wall-clock, minutes");
  registry.counter(kEmuTrackedInvocationsTotal, "API invocations that hit a hook");
  registry.counter(kEmuTotalInvocationsTotal, "all framework API invocations");
  registry.counter(kEmuDetectedTotal, "apps that detected the sandbox");
  registry.counter(kEmuCrashesTotal, "unrecoverable emulation crashes");
  registry.counter(kEmuRetriesTotal, "crashed first runs that were retried");
  registry.counter(kEmuFallbacksTotal, "lightweight-engine fallbacks to Google emulator");
  registry.counter(kEmuFarmBatchesTotal, "device-farm batches executed");
  registry.histogram(kEmuFarmBatchMs, {}, "wall-clock per executed device-farm batch, ms");
  registry.histogram(kEmuFarmMakespanMinutes, {},
                     "simulated farm makespan per batch, minutes");
  registry.histogram(kEmuFarmQueueWaitMinutes, {},
                     "simulated per-app wait for a free emulator, minutes");
  registry.gauge(kEmuFarmLastMakespanMinutes, "makespan of the most recent batch");
  registry.counter(kEmuFarmInjectedFaultsTotal,
                   "farm-level faults raised by the fault-injection plan");

  registry.histogram(kCoreTrainMs, {}, "APICHECKER end-to-end training time, ms");
  registry.histogram(kCoreClassifyLatencyUs,
                     Histogram::ExponentialBounds(1.0, 2.0, 20),
                     "per-report classification latency, microseconds");
  registry.histogram(kCoreScore, score_buckets, "classifier malice-score distribution");
  registry.counter(kCoreVerdictMaliciousTotal, "reports classified malicious");
  registry.counter(kCoreVerdictBenignTotal, "reports classified benign");
  registry.gauge(kCoreKeyApis, "key APIs selected by the current model");
  registry.gauge(kCoreFeatures, "feature-schema width of the current model");

  registry.histogram(kMlTreeTrainMs, {}, "per-tree random-forest training time, ms");
  registry.histogram(kMlForestTrainMs, {}, "whole-forest training time, ms");
  registry.counter(kMlForestTrainsTotal, "random forests trained");

  registry.counter(kMarketSubmissionsTotal, "apps submitted to the review pipeline");
  registry.counter(kMarketOutcomePublishedTotal, "review outcome: published");
  registry.counter(kMarketOutcomeRejectedFingerprintTotal,
                   "review outcome: rejected by fingerprint AV");
  registry.counter(kMarketOutcomeRejectedCheckerTotal,
                   "review outcome: rejected by APICHECKER");
  registry.counter(kMarketOutcomeFalsePositiveReleasedTotal,
                   "review outcome: flagged, cleared by manual inspection");
  registry.counter(kMarketFnReportedTotal, "false negatives reported by end users");
  registry.histogram(kMarketScanMinutes, minute_buckets,
                     "per-submission APICHECKER scan time, minutes");
  registry.histogram(kMarketDayMakespanMinutes, {},
                     "simulated farm makespan per vetting day, minutes");
  registry.histogram(kMarketRetrainMs, {}, "monthly retrain wall-clock, ms");
  registry.counter(kMarketModelPromotionsTotal, "monthly candidates promoted");
  registry.counter(kMarketModelRollbacksTotal, "monthly candidates rejected by the guard");

  registry.counter(kServeSubmissionsTotal, "submissions offered to the vetting service");
  registry.counter(kServeAcceptedTotal, "submissions admitted onto a shard queue");
  registry.counter(kServeRejectedTotal,
                   "submissions rejected by admission control (backpressure)");
  registry.counter(kServeCompletedTotal, "submissions resolved with a verdict");
  registry.counter(kServeDeadlineExpiredTotal,
                   "submissions whose deadline passed before emulation");
  registry.counter(kServeParseErrorsTotal, "submissions that failed APK parsing");
  registry.counter(kServeCacheHitsTotal, "verdicts served from the digest cache");
  registry.counter(kServeCacheMissesTotal, "digest-cache lookups that missed");
  registry.counter(kServeModelSwapsTotal, "serving-model hot swaps published");
  registry.gauge(kServeModelVersion, "serving-model snapshot version in production");
  registry.gauge(kServeQueueDepth, "submissions queued across all shards");
  registry.counter(kServeBatchesTotal, "scheduler batches executed");
  registry.histogram(kServeBatchSize, Histogram::LinearBounds(1.0, 1.0, 64),
                     "submissions per scheduler batch");
  registry.histogram(kServeQueueWaitMs, Histogram::ExponentialBounds(0.5, 2.0, 18),
                     "admission -> batch assembly wait, ms");
  registry.histogram(kServeE2eLatencyMs, Histogram::ExponentialBounds(0.5, 2.0, 18),
                     "admission -> verdict end-to-end latency, ms");
  registry.counter(kServeHashOpsTotal,
                   "full-APK SHA-1 passes on the submit path (one per blob)");
  registry.counter(kServeCacheFastpathHitsTotal,
                   "submissions resolved at Submit() without a queue round-trip");
  registry.histogram(kServeAdmissionLatencyMs,
                     Histogram::ExponentialBounds(0.001, 2.0, 24),
                     "Submit() entry -> future handed back, ms");

  // Per-stage attribution for traced submissions: the seven histograms below
  // observe one contiguous breakdown per trace, so their sums add up to
  // kServeTracedE2eMs's sum (the ci.sh invariant).
  const std::vector<double> stage_bounds = Histogram::ExponentialBounds(0.01, 2.0, 22);
  registry.histogram(kServeStageSubmitMs, stage_bounds,
                     "traced: admission entry -> shard enqueue, ms");
  registry.histogram(kServeStageQueueWaitMs, stage_bounds,
                     "traced: shard enqueue -> scheduler pop, ms");
  registry.histogram(kServeStageBatchLingerMs, stage_bounds,
                     "traced: scheduler pop -> pool dispatch, ms");
  registry.histogram(kServeStageFarmExecuteMs, stage_bounds,
                     "traced: pool dispatch -> emulation reports ready, ms");
  registry.histogram(kServeStageClassifyMs, stage_bounds,
                     "traced: model classification, ms");
  registry.histogram(kServeStageStoreAppendMs, stage_bounds,
                     "traced: verdict-store append, ms");
  registry.histogram(kServeStageResolveMs, stage_bounds,
                     "traced: bookkeeping + promise fulfilment, ms");
  registry.histogram(kServeTracedE2eMs, Histogram::ExponentialBounds(0.5, 2.0, 18),
                     "traced: admission -> resolution end-to-end, ms");

  registry.counter(kObsStageSpansTotal, "stage spans recorded by the trace collector");
  registry.counter(kObsStageSpansDroppedTotal,
                   "spans dropped (unknown or already-sealed trace)");
  registry.counter(kObsTracesStartedTotal, "traces opened by sampling decisions");
  registry.counter(kObsTracesCompletedTotal, "traces sealed with a resolution");
  registry.counter(kObsTracesDroppedTotal,
                   "traces shed at birth by the open-trace bound");

  registry.counter(kIngestBlobsTotal, "APK blobs materialized by the ingest layer");
  registry.counter(kIngestBytesStreamedTotal,
                   "APK bytes streamed through chunked readers");
  registry.counter(kIngestChunksTotal, "chunks read by the streaming ingest path");
  registry.gauge(kIngestBlobPoolBytes, "bytes held by live APK blobs right now");
  registry.gauge(kIngestBlobPoolPeakBytes,
                 "high-water mark of resident APK blob bytes");
  registry.histogram(kIngestParseStageMs, Histogram::ExponentialBounds(0.01, 2.0, 20),
                     "per-APK off-thread parse-stage latency, ms");

  registry.gauge(kServeFarmPoolSize, "device farms behind the batch scheduler");
  registry.gauge(kServeFarmHealthy, "farms whose circuit breaker is closed");
  registry.counter(kServeFarmBatchesRoutedTotal, "batches dispatched to a farm");
  registry.counter(kServeFarmFaultsTotal, "farm-level batch faults observed by the pool");
  registry.counter(kServeFarmRetriesTotal, "faulted batches re-routed to another farm");
  registry.counter(kServeFarmRejectedUnhealthyTotal,
                   "submissions rejected because no healthy farm was available");
  registry.counter(kServeFarmBreakerOpenTotal, "circuit-breaker open transitions");
  registry.counter(kServeFarmBreakerReprobeTotal,
                   "half-open probe batches sent to a cooling farm");
  registry.histogram(kServeFarmMakespanMinutes, {},
                     "per-farm simulated makespan per routed batch, minutes");

  registry.counter(kStoreAppendsTotal, "verdict records appended to the WAL");
  registry.counter(kStoreAppendErrorsTotal,
                   "WAL appends that failed (injected faults included)");
  registry.counter(kStoreFsyncsTotal, "WAL fsyncs issued");
  registry.counter(kStoreFsyncFailuresTotal, "WAL fsyncs that failed");
  registry.counter(kStoreInjectedFaultsTotal,
                   "store-level faults raised by the I/O fault plan");
  registry.counter(kStoreCompactionsTotal, "segment compactions completed");
  registry.counter(kStoreRecoveredRecordsTotal,
                   "valid records replayed during store recovery");
  registry.counter(kStoreTruncatedTailsTotal,
                   "torn segment tails truncated during recovery");
  registry.counter(kStoreQuarantinedSegmentsTotal,
                   "corrupt sealed segments quarantined during recovery");
  registry.counter(kStoreWarmStartHitsTotal,
                   "digest-cache hits served from store-recovered verdicts");
  registry.gauge(kStoreSegments, "segment files in the store (active included)");
  registry.gauge(kStoreLiveRecords, "distinct digests in the live index");
  registry.gauge(kStoreDeadRecords, "superseded record frames still on disk");
}

}  // namespace apichecker::obs
