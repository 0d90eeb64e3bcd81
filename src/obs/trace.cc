#include "obs/trace.h"

namespace apichecker::obs {

ScopedTimer::ScopedTimer(Histogram& histogram, Unit unit)
    : histogram_(&histogram), unit_(unit), start_(std::chrono::steady_clock::now()) {}

ScopedTimer::~ScopedTimer() {
  if (!stopped_) {
    Stop();
  }
}

double ScopedTimer::Stop() {
  if (stopped_) {
    return 0.0;
  }
  stopped_ = true;
  const double ms = std::chrono::duration<double, std::milli>(
                        std::chrono::steady_clock::now() - start_)
                        .count();
  double value = ms;
  switch (unit_) {
    case Unit::kSeconds:
      value = ms / 1e3;
      break;
    case Unit::kMillis:
      break;
    case Unit::kMicros:
      value = ms * 1e3;
      break;
  }
  histogram_->Observe(value);
  return value;
}

}  // namespace apichecker::obs
