// Leveled stderr logging with a structured (key=value) variant. The minimum
// emitted severity comes from the APICHECKER_LOG_LEVEL environment variable
// (debug|info|warn|error) unless set explicitly in-process, and the sink can
// emit classic text lines or one JSON object per line
// (APICHECKER_LOG_FORMAT=json) for log shippers.
//
//   APICHECKER_LOG(Info) << "freeform message";            // stream style
//   APICHECKER_SLOG(Debug, "emu.crash")                    // structured
//       .With("package", pkg).With("minutes", 3.2);

#ifndef APICHECKER_UTIL_LOGGING_H_
#define APICHECKER_UTIL_LOGGING_H_

#include <cstdint>
#include <sstream>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

namespace apichecker::util {

enum class LogSeverity : int {
  kDebug = 0,
  kInfo = 1,
  kWarning = 2,
  kError = 3,
};

enum class LogFormat : int {
  kText = 0,
  kJson = 1,
};

// Sets/gets the process-global minimum severity that is actually emitted.
// An explicit Set wins over the APICHECKER_LOG_LEVEL environment variable.
void SetMinLogSeverity(LogSeverity severity);
LogSeverity MinLogSeverity();

// Output format; APICHECKER_LOG_FORMAT=json selects JSON unless overridden.
void SetLogFormat(LogFormat format);
LogFormat GetLogFormat();

// Emits one formatted line to stderr if `severity` passes the filter.
void LogLine(LogSeverity severity, const std::string& message);

// Structured log event: a short dot-separated event name plus typed
// key=value fields, emitted on destruction. Fields are skipped entirely when
// the severity is filtered, so disabled-level calls stay cheap.
class StructuredLog {
 public:
  StructuredLog(LogSeverity severity, std::string_view event);
  ~StructuredLog();

  StructuredLog(const StructuredLog&) = delete;
  StructuredLog& operator=(const StructuredLog&) = delete;

  StructuredLog& With(std::string_view key, std::string_view value);
  StructuredLog& With(std::string_view key, const char* value) {
    return With(key, std::string_view(value));
  }
  StructuredLog& With(std::string_view key, const std::string& value) {
    return With(key, std::string_view(value));
  }
  StructuredLog& With(std::string_view key, bool value);
  StructuredLog& With(std::string_view key, double value);
  template <typename T>
    requires std::is_integral_v<T>
  StructuredLog& With(std::string_view key, T value) {
    return WithInt(key, static_cast<int64_t>(value));
  }

 private:
  StructuredLog& WithInt(std::string_view key, int64_t value);

  struct Field {
    std::string key;
    std::string value;  // Pre-rendered.
    bool quoted;        // Whether the JSON sink must quote it.
  };

  LogSeverity severity_;
  bool enabled_;
  std::string event_;
  std::vector<Field> fields_;
};

namespace internal {

class LogMessage {
 public:
  LogMessage(LogSeverity severity, const char* file, int line);
  ~LogMessage();

  LogMessage(const LogMessage&) = delete;
  LogMessage& operator=(const LogMessage&) = delete;

  std::ostream& stream() { return stream_; }

 private:
  LogSeverity severity_;
  std::ostringstream stream_;
};

}  // namespace internal
}  // namespace apichecker::util

#define APICHECKER_LOG(severity)                                              \
  ::apichecker::util::internal::LogMessage(                                   \
      ::apichecker::util::LogSeverity::k##severity, __FILE__, __LINE__)       \
      .stream()

#define APICHECKER_SLOG(severity, event)                                      \
  ::apichecker::util::StructuredLog(                                          \
      ::apichecker::util::LogSeverity::k##severity, (event))

#endif  // APICHECKER_UTIL_LOGGING_H_
