#pragma once

#include <cstddef>
#include <vector>

#include "net/ewma.hpp"
#include "simcore/time.hpp"

namespace cbs::net {

/// The autonomic network-estimation model of §III.A.2: the day is divided
/// into slots; each slot keeps an EWMA of the effective rates observed there
/// (periodic 1 MB probes plus every real transfer). Queries for a slot with
/// no data yet fall back to the global EWMA, then to the configured prior.
///
/// This object is the *only* view of the network that schedulers get — the
/// gap between these estimates and Link's ground truth is what the paper's
/// robustness results are about.
class BandwidthEstimator {
 public:
  struct Config {
    /// 30-minute slots. Must divide 86400, and slot_of must map each slot's
    /// start to that slot (true for 1, 24 and 48; not for 45 or 50).
    std::size_t slots_per_day = 48;
    double alpha = 0.3;              ///< EWMA weight of the newest sample
    double prior_rate = 250.0e3;     ///< bytes/s before any observation
  };

  /// Throws std::invalid_argument for a slots_per_day that Config rejects.
  explicit BandwidthEstimator(Config config);

  /// Records an observed effective rate (bytes/s) at time `t`.
  void observe(cbs::sim::SimTime t, double rate);

  /// The most recent raw observation Y_n, un-smoothed — the "transient
  /// value of bandwidth" §IV.D says the Greedy scheduler reacts to. Falls
  /// back to the prior before any observation.
  [[nodiscard]] double last_observed() const noexcept {
    return last_observed_ > 0.0 ? last_observed_ : config_.prior_rate;
  }

  /// Estimated rate at time `t` (slot EWMA → global EWMA → prior).
  [[nodiscard]] double estimate(cbs::sim::SimTime t) const;

  /// Estimated seconds to move `bytes` starting at time `t`, integrating the
  /// per-slot estimates across slot boundaries (a transfer that straddles
  /// the fast night slots and the slow morning slots gets a blended value).
  /// The walk covers at most a week of slots, then extrapolates at the
  /// rate of the slot it stopped at.
  [[nodiscard]] double estimate_transfer_seconds(cbs::sim::SimTime t,
                                                 double bytes) const;

  [[nodiscard]] std::size_t slot_of(cbs::sim::SimTime t) const;
  [[nodiscard]] std::size_t slots_per_day() const noexcept { return config_.slots_per_day; }
  [[nodiscard]] std::size_t observation_count() const noexcept { return observations_; }
  /// Per-slot estimate (for the Fig. 4a bench); falls back like estimate().
  [[nodiscard]] double slot_estimate(std::size_t slot) const;

 private:
  Config config_;
  std::vector<Ewma> slot_ewmas_;
  Ewma global_ewma_;
  std::size_t observations_ = 0;
  double last_observed_ = 0.0;
};

}  // namespace cbs::net
