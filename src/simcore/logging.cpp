#include "simcore/logging.hpp"

#include <cstdio>

namespace cbs::sim {

std::string_view to_string(LogLevel level) noexcept {
  switch (level) {
    case LogLevel::kTrace: return "TRACE";
    case LogLevel::kDebug: return "DEBUG";
    case LogLevel::kInfo: return "INFO";
    case LogLevel::kWarn: return "WARN";
    case LogLevel::kError: return "ERROR";
    case LogLevel::kOff: return "OFF";
  }
  return "?";
}

Logger::Logger(std::string component, LogLevel threshold)
    : component_(std::move(component)), threshold_(threshold) {}

void Logger::emit(LogLevel level, SimTime t, std::string_view msg) {
  std::fprintf(stderr, "%-5s t=%10.2f %.*s\n", to_string(level).data(), t,
               static_cast<int>(msg.size()), msg.data());
}

}  // namespace cbs::sim
