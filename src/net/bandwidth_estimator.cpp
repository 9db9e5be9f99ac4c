#include "net/bandwidth_estimator.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <stdexcept>
#include <string>

namespace cbs::net {

using cbs::sim::kDay;
using cbs::sim::SimTime;

namespace {

std::size_t slot_index(SimTime t, std::size_t slots_per_day) {
  double day_frac = std::fmod(t, kDay) / kDay;
  if (day_frac < 0.0) day_frac += 1.0;
  auto slot =
      static_cast<std::size_t>(day_frac * static_cast<double>(slots_per_day));
  return slot % slots_per_day;
}

// Below this cursor every slot boundary K * slot_seconds the transfer walk
// can reach (a week past it) is an exact integer in a double.
constexpr double kExactBoundaryLimit = 0x1p52;

BandwidthEstimator::Config validated(BandwidthEstimator::Config config) {
  const auto day = static_cast<std::size_t>(kDay);
  const std::size_t n = config.slots_per_day;
  if (n == 0 || day % n != 0) {
    throw std::invalid_argument(
        "BandwidthEstimator: slots_per_day must divide 86400, got " +
        std::to_string(n));
  }
  // The transfer walk steps the slot index by one per slot boundary, so
  // slot_of must map each boundary j * slot_seconds to slot j. Rounding
  // in slot_of breaks that for some divisors of 86400 (45, 50, 75, ...).
  const double slot_seconds = kDay / static_cast<double>(n);
  for (std::size_t j = 0; j < n; ++j) {
    if (slot_index(static_cast<double>(j) * slot_seconds, n) != j) {
      throw std::invalid_argument(
          "BandwidthEstimator: slots_per_day " + std::to_string(n) +
          " maps the start of slot " + std::to_string(j) +
          " to another slot");
    }
  }
  return config;
}

}  // namespace

BandwidthEstimator::BandwidthEstimator(Config config)
    : config_(validated(config)),
      slot_ewmas_(config.slots_per_day, Ewma(config.alpha)),
      global_ewma_(config.alpha) {
  assert(config.prior_rate > 0.0);
}

std::size_t BandwidthEstimator::slot_of(SimTime t) const {
  return slot_index(t, config_.slots_per_day);
}

void BandwidthEstimator::observe(SimTime t, double rate) {
  assert(rate >= 0.0);
  slot_ewmas_[slot_of(t)].observe(rate);
  global_ewma_.observe(rate);
  last_observed_ = rate;
  ++observations_;
}

double BandwidthEstimator::slot_estimate(std::size_t slot) const {
  assert(slot < slot_ewmas_.size());
  if (slot_ewmas_[slot].has_value()) return slot_ewmas_[slot].value();
  if (global_ewma_.has_value()) return global_ewma_.value();
  return config_.prior_rate;
}

double BandwidthEstimator::estimate(SimTime t) const {
  return slot_estimate(slot_of(t));
}

double BandwidthEstimator::estimate_transfer_seconds(SimTime t, double bytes) const {
  assert(bytes >= 0.0);
  const double slot_seconds = kDay / static_cast<double>(config_.slots_per_day);
  double remaining = bytes;
  double elapsed = 0.0;
  SimTime cursor = t;
  // Walk slot by slot; cap the walk at one week to guarantee termination
  // even with absurdly small estimates, then extrapolate at the last rate.
  const int max_slots = static_cast<int>(config_.slots_per_day) * 7;
  int i = 0;
  // The general step: the first, partial slot, and any slot that starts
  // before time 0 or past the exact-boundary limit.
  for (; i < max_slots && remaining > 0.0; ++i) {
    if (i > 0 && cursor >= 0.0 && cursor < kExactBoundaryLimit) break;
    const double rate = std::max(estimate(cursor), 1.0);
    const double slot_end =
        (std::floor(cursor / slot_seconds) + 1.0) * slot_seconds;
    const double window = slot_end - cursor;
    const double movable = rate * window;
    if (movable >= remaining) {
      elapsed += remaining / rate;
      remaining = 0.0;
    } else {
      elapsed += window;
      remaining -= movable;
      cursor = slot_end;
    }
  }
  if (remaining > 0.0 && i < max_slots) {
    // cursor is a slot boundary K * slot_seconds, an exact integer, so the
    // general step would compute every later window as exactly
    // slot_seconds, and (checked at construction) estimate(cursor) as
    // slot_estimate(K mod slots_per_day). Same operations, same operands,
    // same order: the result is bit-identical.
    std::size_t slot = slot_of(cursor);
    for (; i < max_slots && remaining > 0.0; ++i) {
      const double rate = std::max(slot_estimate(slot), 1.0);
      const double movable = rate * slot_seconds;
      if (movable >= remaining) return elapsed + remaining / rate;
      elapsed += slot_seconds;
      remaining -= movable;
      if (++slot == config_.slots_per_day) slot = 0;
    }
    if (remaining > 0.0) {
      elapsed += remaining / std::max(slot_estimate(slot), 1.0);
    }
    return elapsed;
  }
  if (remaining > 0.0) {
    elapsed += remaining / std::max(estimate(cursor), 1.0);
  }
  return elapsed;
}

}  // namespace cbs::net
