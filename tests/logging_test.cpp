#include <gtest/gtest.h>

#include <cstdlib>
#include <sstream>
#include <string>
#include <vector>

#include "simcore/logging.hpp"

namespace {

using cbs::sim::Logger;
using cbs::sim::LogLevel;

struct Captured {
  LogLevel level;
  double time;
  std::string message;
};

/// Parses the logger's stderr lines ("WARN  t=      3.00 [test] msg").
std::vector<Captured> parse(const std::string& text) {
  std::vector<Captured> out;
  std::istringstream lines(text);
  std::string line;
  while (std::getline(lines, line)) {
    const std::string name = line.substr(0, line.find(' '));
    LogLevel level = LogLevel::kOff;
    for (const LogLevel l : {LogLevel::kTrace, LogLevel::kDebug,
                             LogLevel::kInfo, LogLevel::kWarn,
                             LogLevel::kError}) {
      if (cbs::sim::to_string(l) == name) level = l;
    }
    const std::size_t at = line.find("t=") + 2;
    char* end = nullptr;
    const double time = std::strtod(line.c_str() + at, &end);
    out.push_back({level, time, std::string(end + 1)});
  }
  return out;
}

/// Runs `body` and returns what it logged to stderr.
template <typename F>
std::vector<Captured> capture(F&& body) {
  testing::internal::CaptureStderr();
  body();
  return parse(testing::internal::GetCapturedStderr());
}

TEST(LoggerTest, MessagesBelowThresholdAreDropped) {
  Logger logger("test", LogLevel::kWarn);
  const auto sink = capture([&] {
    logger.debug(1.0, "quiet");
    logger.info(2.0, "quiet");
    logger.warn(3.0, "loud");
  });
  ASSERT_EQ(sink.size(), 1u);
  EXPECT_EQ(sink[0].level, LogLevel::kWarn);
  EXPECT_DOUBLE_EQ(sink[0].time, 3.0);
}

TEST(LoggerTest, MessagesAreFormattedWithComponent) {
  Logger logger("test", LogLevel::kDebug);
  const auto sink =
      capture([&] { logger.info(5.0, "job ", 42, " done in ", 1.5, "s"); });
  ASSERT_EQ(sink.size(), 1u);
  EXPECT_EQ(sink[0].message, "[test] job 42 done in 1.5s");
}

TEST(LoggerTest, ThresholdCanBeRaisedAtRuntime) {
  Logger logger("test", LogLevel::kDebug);
  logger.set_threshold(LogLevel::kError);
  const auto sink = capture([&] { logger.warn(1.0, "dropped"); });
  EXPECT_TRUE(sink.empty());
  EXPECT_FALSE(logger.enabled(LogLevel::kWarn));
  EXPECT_TRUE(logger.enabled(LogLevel::kError));
}

TEST(LoggerTest, OffSilencesEverything) {
  Logger logger("test", LogLevel::kOff);
  const auto sink = capture([&] { logger.log(LogLevel::kError, 1.0, "nope"); });
  EXPECT_TRUE(sink.empty());
}

TEST(LoggerTest, LevelNames) {
  EXPECT_EQ(cbs::sim::to_string(LogLevel::kDebug), "DEBUG");
  EXPECT_EQ(cbs::sim::to_string(LogLevel::kError), "ERROR");
  EXPECT_EQ(cbs::sim::to_string(LogLevel::kOff), "OFF");
}

}  // namespace
