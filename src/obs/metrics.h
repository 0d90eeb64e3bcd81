// Pipeline-wide metrics: named counters, gauges, and histograms collected in
// a thread-safe registry. The paper's deployment reserves 4 of 20 cores per
// server for "scheduling, monitoring and logging" (§4.2/§5.1) and states its
// headline results as throughput/latency numbers; this subsystem is the
// reproduction's equivalent — cheap enough for hot paths (atomic counters,
// lock-striped histograms) and exported as Prometheus text or JSON.
//
// Naming scheme: apichecker_<layer>_<name>{unit}, e.g.
//   apichecker_emu_farm_makespan_minutes   (histogram, unit suffix)
//   apichecker_core_verdict_malicious_total (counter, _total suffix)
// Canonical pipeline metric names live in obs/names.h.

#ifndef APICHECKER_OBS_METRICS_H_
#define APICHECKER_OBS_METRICS_H_

#include <atomic>
#include <cstdint>
#include <limits>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace apichecker::obs {

// Monotonically increasing event count. Lock-free.
class Counter {
 public:
  void Increment(uint64_t n = 1) { value_.fetch_add(n, std::memory_order_relaxed); }
  uint64_t value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> value_{0};
};

// Last-write-wins instantaneous value (plus atomic Add). Lock-free.
class Gauge {
 public:
  void Set(double v) { value_.store(v, std::memory_order_relaxed); }
  void Add(double d) { value_.fetch_add(d, std::memory_order_relaxed); }
  double value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

// Point-in-time copy of a histogram, safe to use without the live object.
struct HistogramSnapshot {
  std::vector<double> bounds;          // Upper bucket bounds; +Inf is implied.
  std::vector<uint64_t> bucket_counts; // bounds.size() + 1 entries.
  uint64_t count = 0;
  double sum = 0.0;
  double min = std::numeric_limits<double>::infinity();
  double max = -std::numeric_limits<double>::infinity();
  std::vector<double> sample;          // Merged reservoir, unsorted.

  double Mean() const { return count == 0 ? 0.0 : sum / static_cast<double>(count); }
  // Empirical quantile (linear interpolation) over the reservoir sample.
  // Exact while the stream fits in the reservoir; an unbiased uniform-sample
  // estimate beyond that.
  double Quantile(double q) const;
};

// Fixed-bucket histogram with reservoir-backed quantiles. Observations are
// lock-striped: each thread lands on one of kStripes slots (assigned round
// robin at first use), so concurrent Observe() calls rarely contend.
class Histogram {
 public:
  // Bounds must be strictly increasing; values above the last bound land in
  // the implicit +Inf bucket. Empty bounds -> a default exponential ladder.
  explicit Histogram(std::vector<double> bounds = {});

  // {start, start*factor, ...}, n bounds total.
  static std::vector<double> ExponentialBounds(double start, double factor, size_t n);
  // {start, start+step, ...}, n bounds total.
  static std::vector<double> LinearBounds(double start, double step, size_t n);

  void Observe(double value);

  HistogramSnapshot Snapshot() const;
  uint64_t count() const;
  double sum() const;
  // Upper bucket bounds (+Inf implied): labeled series of a family are
  // created with their total's, so their buckets sum to the total's.
  const std::vector<double>& bounds() const { return bounds_; }
  double Quantile(double q) const { return Snapshot().Quantile(q); }

  static constexpr size_t kStripes = 8;
  static constexpr size_t kSamplesPerStripe = 512;

 private:
  struct Stripe {
    mutable std::mutex mu;
    std::vector<uint64_t> buckets;
    uint64_t count = 0;
    double sum = 0.0;
    double min = std::numeric_limits<double>::infinity();
    double max = -std::numeric_limits<double>::infinity();
    std::vector<double> sample;  // Reservoir (algorithm R).
    uint64_t seen = 0;
    uint64_t rng_state = 0;
  };

  Stripe& LocalStripe();

  std::vector<double> bounds_;
  std::unique_ptr<Stripe[]> stripes_;
};

enum class MetricKind : uint8_t { kCounter = 0, kGauge = 1, kHistogram = 2 };

const char* MetricKindName(MetricKind kind);

// One exported metric, flattened for the exporters.
struct MetricSnapshot {
  std::string name;
  std::string help;
  MetricKind kind = MetricKind::kCounter;
  double value = 0.0;          // Counter/gauge value.
  HistogramSnapshot histogram; // Valid when kind == kHistogram.
};

// Thread-safe name -> metric store. Metric objects have stable addresses for
// the registry's lifetime, so call sites may cache the returned references.
// The map itself is sharded to keep registration/lookup contention low.
class MetricsRegistry {
 public:
  MetricsRegistry();
  ~MetricsRegistry();
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  // Process-wide registry the pipeline instruments into.
  static MetricsRegistry& Default();

  // Find-or-create. On a kind mismatch with an existing name, logs an error
  // and returns a process-wide dummy metric (never crashes a hot path).
  Counter& counter(std::string_view name, std::string_view help = "");
  Gauge& gauge(std::string_view name, std::string_view help = "");
  Histogram& histogram(std::string_view name, std::vector<double> bounds = {},
                       std::string_view help = "");

  // Point-in-time copy of every metric, sorted by name.
  std::vector<MetricSnapshot> Snapshot() const;

  size_t size() const;

 private:
  struct Entry {
    MetricKind kind;
    std::string help;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
  };
  struct Shard;
  static constexpr size_t kShards = 16;

  Shard& ShardFor(std::string_view name) const;
  Entry& FindOrCreate(std::string_view name, MetricKind kind, std::string_view help,
                      std::vector<double> bounds);

  std::unique_ptr<Shard[]> shards_;
};

// Registers the canonical pipeline metrics (obs/names.h) with zero values so
// every export contains the full schema even for runs that exercise only part
// of the pipeline. Idempotent.
void RegisterStandardMetrics(MetricsRegistry& registry = MetricsRegistry::Default());

}  // namespace apichecker::obs

#endif  // APICHECKER_OBS_METRICS_H_
