// Metric exporters: Prometheus text exposition and a JSON dump, plus a
// parser for the dump, so telemetry consumers — and the round-trip tests —
// can read it back without a JSON library.

#ifndef APICHECKER_OBS_EXPORT_H_
#define APICHECKER_OBS_EXPORT_H_

#include <map>
#include <string>
#include <string_view>

#include "obs/metrics.h"
#include "util/result.h"

namespace apichecker::obs {

// Prometheus text exposition format. A registry series is its family name
// plus an optional label set (obs/labels.h); each family gets one # HELP and
// one # TYPE line ahead of all its samples, and a labeled histogram renders
// as family_bucket{labels,le="..."}, family_sum{labels}, family_count{labels}.
std::string ToPrometheusText(const MetricsRegistry& registry);

// JSON dump: {"schema": ..., "counters": {...}, "gauges": {...},
// "histograms": {...}}, keyed by series name. Histograms carry
// count/sum/min/max, cumulative buckets, and p50/p90/p95/p99.
std::string ToJson(const MetricsRegistry& registry);

// Writes ToJson (or Prometheus text when `path` ends in ".prom") to `path`.
util::Result<bool> WriteMetricsFile(const std::string& path,
                                    const MetricsRegistry& registry);

// Parsed form of the JSON dump, for round-tripping and telemetry consumers.
struct ParsedHistogram {
  uint64_t count = 0;
  double sum = 0.0;
  double min = 0.0;
  double max = 0.0;
  std::map<std::string, double> quantiles;  // "p50" -> value.
};

struct ParsedDump {
  std::map<std::string, double> counters;
  std::map<std::string, double> gauges;
  std::map<std::string, ParsedHistogram> histograms;
};

util::Result<ParsedDump> ParseJsonDump(std::string_view json);

}  // namespace apichecker::obs

#endif  // APICHECKER_OBS_EXPORT_H_
