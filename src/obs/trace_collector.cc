#include "obs/trace_collector.h"

#include <algorithm>
#include <cinttypes>
#include <fstream>
#include <sys/stat.h>

#include "obs/metrics.h"
#include "obs/names.h"
#include "util/strings.h"

namespace apichecker::obs {

namespace {

std::string JsonEscapeString(std::string_view s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          out += util::StrFormat("\\u%04x", c);
        } else {
          out += c;
        }
    }
  }
  return out;
}

void AppendSpanJson(std::string& out, const StageSpan& span) {
  out += "{\"stage\": \"" + JsonEscapeString(span.stage) + "\"";
  if (!span.label.empty()) {
    out += ", \"label\": \"" + JsonEscapeString(span.label) + "\"";
  }
  out += util::StrFormat(", \"start_ms\": %.3f, \"duration_ms\": %.3f",
                         span.start_ms, span.duration_ms);
  out += util::StrFormat(", \"queue_depth\": %llu",
                         static_cast<unsigned long long>(span.queue_depth));
  if (span.fault) {
    out += ", \"fault\": true";
  }
  out += "}";
}

}  // namespace

bool Trace::HasStage(std::string_view stage) const {
  for (const StageSpan& span : spans) {
    if (span.stage == stage) {
      return true;
    }
  }
  return false;
}

double Trace::BreakdownSumMs() const {
  double sum = 0.0;
  for (const StageMs& entry : breakdown) {
    sum += entry.ms;
  }
  return sum;
}

TraceCollector::TraceCollector(Options options)
    : options_(options),
      open_per_stripe_(std::max<size_t>(1, options.max_open_traces / kStripes)),
      completed_per_stripe_(
          std::max<size_t>(1, options.completed_capacity / kStripes)),
      epoch_(std::chrono::steady_clock::now()) {}

TraceCollector& TraceCollector::Default() {
  static TraceCollector* collector = new TraceCollector();
  return *collector;
}

double TraceCollector::NowMs() const {
  return ToEpochMs(std::chrono::steady_clock::now());
}

double TraceCollector::ToEpochMs(std::chrono::steady_clock::time_point tp) const {
  return std::chrono::duration<double, std::milli>(tp - epoch_).count();
}

uint64_t TraceCollector::StartTrace() {
  const uint64_t id = next_id_.fetch_add(1, std::memory_order_relaxed);
  traces_started_.fetch_add(1, std::memory_order_relaxed);
  MetricsRegistry::Default().counter(names::kObsTracesStartedTotal).Increment();
  Stripe& stripe = StripeFor(id);
  std::lock_guard<std::mutex> lock(stripe.mu);
  if (stripe.open.size() >= open_per_stripe_) {
    // Over the open bound: the storm sheds *new* traces, visibly.
    traces_dropped_.fetch_add(1, std::memory_order_relaxed);
    MetricsRegistry::Default().counter(names::kObsTracesDroppedTotal).Increment();
    return id;
  }
  Trace trace;
  trace.trace_id = id;
  trace.start_ms = NowMs();
  stripe.open.emplace(id, std::move(trace));
  return id;
}

void TraceCollector::Record(uint64_t trace_id, StageSpan span) {
  if (trace_id == 0) {
    return;
  }
  Stripe& stripe = StripeFor(trace_id);
  std::lock_guard<std::mutex> lock(stripe.mu);
  auto it = stripe.open.find(trace_id);
  if (it == stripe.open.end()) {
    // Dropped at birth, or a span racing in after Complete sealed the trace.
    spans_dropped_.fetch_add(1, std::memory_order_relaxed);
    MetricsRegistry::Default().counter(names::kObsStageSpansDroppedTotal).Increment();
    return;
  }
  it->second.spans.push_back(std::move(span));
  spans_recorded_.fetch_add(1, std::memory_order_relaxed);
  MetricsRegistry::Default().counter(names::kObsStageSpansTotal).Increment();
}

void TraceCollector::Complete(uint64_t trace_id, std::string status,
                              bool from_cache, std::vector<StageMs> breakdown,
                              double total_ms) {
  if (trace_id == 0) {
    return;
  }
  Trace done;
  {
    Stripe& stripe = StripeFor(trace_id);
    std::lock_guard<std::mutex> lock(stripe.mu);
    auto it = stripe.open.find(trace_id);
    if (it == stripe.open.end()) {
      return;  // Dropped at birth (already counted).
    }
    done = std::move(it->second);
    stripe.open.erase(it);
    done.status = std::move(status);
    done.from_cache = from_cache;
    done.breakdown = std::move(breakdown);
    done.total_ms = total_ms;
    std::sort(done.spans.begin(), done.spans.end(),
              [](const StageSpan& a, const StageSpan& b) {
                return a.start_ms < b.start_ms;
              });
    stripe.completed.push_back(done);
    while (stripe.completed.size() > completed_per_stripe_) {
      stripe.completed.pop_front();
    }
  }
  traces_completed_.fetch_add(1, std::memory_order_relaxed);
  MetricsRegistry::Default().counter(names::kObsTracesCompletedTotal).Increment();

  std::lock_guard<std::mutex> lock(tail_mu_);
  if (tail_.size() < options_.tail_keep ||
      done.total_ms > tail_.back().total_ms) {
    auto pos = std::upper_bound(tail_.begin(), tail_.end(), done,
                                [](const Trace& a, const Trace& b) {
                                  return a.total_ms > b.total_ms;
                                });
    tail_.insert(pos, std::move(done));
    if (tail_.size() > options_.tail_keep) {
      tail_.pop_back();
    }
  }
}

std::vector<Trace> TraceCollector::Completed() const {
  std::vector<Trace> out;
  for (const Stripe& stripe : stripes_) {
    std::lock_guard<std::mutex> lock(stripe.mu);
    out.insert(out.end(), stripe.completed.begin(), stripe.completed.end());
  }
  std::sort(out.begin(), out.end(), [](const Trace& a, const Trace& b) {
    return a.start_ms < b.start_ms;
  });
  return out;
}

std::vector<Trace> TraceCollector::Slowest() const {
  std::lock_guard<std::mutex> lock(tail_mu_);
  return tail_;
}

size_t TraceCollector::open_traces() const {
  size_t open = 0;
  for (const Stripe& stripe : stripes_) {
    std::lock_guard<std::mutex> lock(stripe.mu);
    open += stripe.open.size();
  }
  return open;
}

void TraceCollector::Clear() {
  for (Stripe& stripe : stripes_) {
    std::lock_guard<std::mutex> lock(stripe.mu);
    stripe.open.clear();
    stripe.completed.clear();
  }
  std::lock_guard<std::mutex> lock(tail_mu_);
  tail_.clear();
}

const char* StageHistogramName(std::string_view stage) {
  if (stage == stages::kSubmit) return names::kServeStageSubmitMs;
  if (stage == stages::kShard) return names::kServeStageQueueWaitMs;
  if (stage == stages::kBatch) return names::kServeStageBatchLingerMs;
  if (stage == stages::kFarm) return names::kServeStageFarmExecuteMs;
  if (stage == stages::kClassify) return names::kServeStageClassifyMs;
  if (stage == stages::kStore) return names::kServeStageStoreAppendMs;
  return names::kServeStageResolveMs;
}

void ObserveStageBreakdown(const std::vector<StageMs>& breakdown,
                           double total_ms) {
  MetricsRegistry& metrics = MetricsRegistry::Default();
  for (const StageMs& entry : breakdown) {
    metrics.histogram(StageHistogramName(entry.stage)).Observe(entry.ms);
  }
  metrics.histogram(names::kServeTracedE2eMs).Observe(total_ms);
}

std::string TracesToChromeJson(const std::vector<Trace>& traces) {
  std::string out = "{\"traceEvents\": [";
  const char* sep = "";
  uint64_t tid = 0;
  for (const Trace& trace : traces) {
    ++tid;
    for (const StageSpan& span : trace.spans) {
      out += sep;
      out += "\n  {\"name\": \"" + JsonEscapeString(span.stage) + "\"";
      out += ", \"cat\": \"serve\", \"ph\": \"X\", \"pid\": 1";
      out += util::StrFormat(", \"tid\": %llu",
                             static_cast<unsigned long long>(tid));
      out += util::StrFormat(", \"ts\": %.1f, \"dur\": %.1f",
                             span.start_ms * 1000.0, span.duration_ms * 1000.0);
      out += util::StrFormat(", \"args\": {\"trace_id\": %llu",
                             static_cast<unsigned long long>(trace.trace_id));
      if (!span.label.empty()) {
        out += ", \"label\": \"" + JsonEscapeString(span.label) + "\"";
      }
      out += util::StrFormat(", \"queue_depth\": %llu",
                             static_cast<unsigned long long>(span.queue_depth));
      if (span.fault) {
        out += ", \"fault\": true";
      }
      out += "}}";
      sep = ",";
    }
  }
  out += "\n], \"displayTimeUnit\": \"ms\"}\n";
  return out;
}

std::string TracesToJsonLines(const std::vector<Trace>& traces) {
  std::string out;
  for (const Trace& trace : traces) {
    out += util::StrFormat("{\"trace_id\": %llu",
                           static_cast<unsigned long long>(trace.trace_id));
    out += ", \"status\": \"" + JsonEscapeString(trace.status) + "\"";
    out += trace.from_cache ? ", \"from_cache\": true" : ", \"from_cache\": false";
    out += util::StrFormat(", \"start_ms\": %.3f, \"total_ms\": %.3f",
                           trace.start_ms, trace.total_ms);
    out += ", \"breakdown\": {";
    const char* sep = "";
    for (const StageMs& entry : trace.breakdown) {
      out += sep;
      out += "\"" + JsonEscapeString(entry.stage) + "\": ";
      out += util::StrFormat("%.3f", entry.ms);
      sep = ", ";
    }
    out += "}, \"spans\": [";
    sep = "";
    for (const StageSpan& span : trace.spans) {
      out += sep;
      AppendSpanJson(out, span);
      sep = ", ";
    }
    out += "]}\n";
  }
  return out;
}

util::Result<bool> WriteTraceFile(const std::string& path,
                                  const std::vector<Trace>& traces, bool force) {
  if (!force) {
    struct stat st;
    if (::stat(path.c_str(), &st) == 0) {
      return util::Err("trace output exists: " + path +
                       " (pass --force to overwrite)");
    }
  }
  std::ofstream out(path, std::ios::trunc);
  if (!out) {
    return util::Err("cannot open trace file: " + path);
  }
  out << (util::EndsWith(path, ".trace.json") ? TracesToChromeJson(traces)
                                              : TracesToJsonLines(traces));
  out.flush();
  if (!out) {
    return util::Err("write failed: " + path);
  }
  return true;
}

}  // namespace apichecker::obs
