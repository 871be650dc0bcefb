#ifndef PRISTI_COMMON_LOGGING_H_
#define PRISTI_COMMON_LOGGING_H_

// Lightweight logging macros in the spirit of glog. The assertion macros
// (PRISTI_CHECK*, PRISTI_DCHECK*) live in common/check.h and abort through
// PRISTI_LOG_FATAL.

#include <cstdlib>
#include <iostream>
#include <sstream>
#include <string>

namespace pristi {

enum class LogSeverity { kInfo = 0, kWarning = 1, kError = 2, kFatal = 3 };

namespace internal_logging {

// Accumulates a message and emits it (and possibly aborts) on destruction.
class LogMessage {
 public:
  LogMessage(LogSeverity severity, const char* file, int line)
      : severity_(severity) {
    stream_ << SeverityTag(severity) << " " << Basename(file) << ":" << line
            << "] ";
  }

  LogMessage(const LogMessage&) = delete;
  LogMessage& operator=(const LogMessage&) = delete;

  ~LogMessage() {
    stream_ << "\n";
    std::cerr << stream_.str();
    if (severity_ == LogSeverity::kFatal) {
      std::cerr.flush();
      std::abort();
    }
  }

  std::ostream& stream() { return stream_; }

 private:
  static const char* SeverityTag(LogSeverity severity) {
    switch (severity) {
      case LogSeverity::kInfo:
        return "[I";
      case LogSeverity::kWarning:
        return "[W";
      case LogSeverity::kError:
        return "[E";
      case LogSeverity::kFatal:
        return "[F";
    }
    return "[?";
  }

  static const char* Basename(const char* path) {
    const char* base = path;
    for (const char* p = path; *p != '\0'; ++p) {
      if (*p == '/') base = p + 1;
    }
    return base;
  }

  LogSeverity severity_;
  std::ostringstream stream_;
};

// Swallows the streamed expression when a conditional log is disabled.
class NullStream {
 public:
  template <typename T>
  NullStream& operator<<(const T&) {
    return *this;
  }
};

}  // namespace internal_logging

}  // namespace pristi

#define PRISTI_LOG_INFO                                                     \
  ::pristi::internal_logging::LogMessage(::pristi::LogSeverity::kInfo,      \
                                         __FILE__, __LINE__)                \
      .stream()
#define PRISTI_LOG_WARNING                                                  \
  ::pristi::internal_logging::LogMessage(::pristi::LogSeverity::kWarning,   \
                                         __FILE__, __LINE__)                \
      .stream()
#define PRISTI_LOG_FATAL                                                    \
  ::pristi::internal_logging::LogMessage(::pristi::LogSeverity::kFatal,     \
                                         __FILE__, __LINE__)                \
      .stream()

#endif  // PRISTI_COMMON_LOGGING_H_
