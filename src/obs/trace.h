// Scoped timers. A ScopedTimer records the elapsed time of one scope into a
// histogram the caller resolved once (a registered Histogram&), so the hot
// path pays no by-name lookup. Request-scoped tracing across threads and
// queues is obs/trace_collector.h.

#ifndef APICHECKER_OBS_TRACE_H_
#define APICHECKER_OBS_TRACE_H_

#include <chrono>
#include <cstdint>

#include "obs/metrics.h"

namespace apichecker::obs {

// RAII timer recording elapsed time into a histogram on destruction.
class ScopedTimer {
 public:
  enum class Unit : uint8_t { kSeconds, kMillis, kMicros };

  explicit ScopedTimer(Histogram& histogram, Unit unit = Unit::kMillis);
  ~ScopedTimer();

  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

  // Stops now, records once, and returns the elapsed value in `unit`.
  double Stop();

 private:
  Histogram* histogram_;
  Unit unit_;
  bool stopped_ = false;
  std::chrono::steady_clock::time_point start_;
};

}  // namespace apichecker::obs

#endif  // APICHECKER_OBS_TRACE_H_
