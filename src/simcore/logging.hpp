#pragma once

#include <sstream>
#include <string>
#include <string_view>
#include <utility>

#include "simcore/time.hpp"

namespace cbs::sim {

enum class LogLevel { kTrace, kDebug, kInfo, kWarn, kError, kOff };

[[nodiscard]] std::string_view to_string(LogLevel level) noexcept;

/// Minimal leveled logger stamped with simulated time.
///
/// Messages go to stderr, one line each. Logging below the threshold costs
/// one branch — message formatting is skipped entirely.
///
/// Thread-safety: a Logger instance is not internally synchronized — give
/// each simulation run its own Logger (ControllerConfig::log_threshold
/// sets it per run). Loggers share no state, so building them on many
/// threads is safe.
class Logger {
 public:
  explicit Logger(std::string component, LogLevel threshold = LogLevel::kWarn);

  void set_threshold(LogLevel level) noexcept { threshold_ = level; }
  [[nodiscard]] LogLevel threshold() const noexcept { return threshold_; }

  [[nodiscard]] bool enabled(LogLevel level) const noexcept {
    return level >= threshold_ && threshold_ != LogLevel::kOff;
  }

  template <typename... Args>
  void log(LogLevel level, SimTime t, Args&&... args) {
    if (!enabled(level)) return;
    std::ostringstream oss;
    oss << "[" << component_ << "] ";
    (oss << ... << std::forward<Args>(args));
    emit(level, t, oss.str());
  }

  template <typename... Args>
  void debug(SimTime t, Args&&... args) {
    log(LogLevel::kDebug, t, std::forward<Args>(args)...);
  }
  template <typename... Args>
  void info(SimTime t, Args&&... args) {
    log(LogLevel::kInfo, t, std::forward<Args>(args)...);
  }
  template <typename... Args>
  void warn(SimTime t, Args&&... args) {
    log(LogLevel::kWarn, t, std::forward<Args>(args)...);
  }

 private:
  void emit(LogLevel level, SimTime t, std::string_view msg);

  std::string component_;
  LogLevel threshold_;
};

}  // namespace cbs::sim
