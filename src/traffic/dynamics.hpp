#pragma once

// Demand dynamics for closed-loop online TE ("Near-optimal Online
// Traffic Engineering" direction): the oracle traffic matrix evolves
// epoch by epoch while controllers only ever see what their in-band
// DemandEstimator advertises.
//
// DemandDynamics composes three drift processes over a base matrix:
//
//  - Diurnal cycle: per-origin sinusoid with a hashed phase, so regions
//    peak at different times of day (a WAN spans time zones).
//  - Regional shift: a secular ramp that grows some origins and shrinks
//    others over the horizon -- the slow capacity-planning drift TE has
//    to keep absorbing.
//  - Flash crowds: pre-drawn transient events with a ramp/hold/decay
//    envelope that either multiply an existing row or create a brand-new
//    (src, dst, class) row, exercising estimator admission from zero.
//
// matrix_at(epoch) is a pure function of (base, options, seed, epoch):
// two instances built with the same inputs produce bit-identical
// matrices for every epoch (property-tested), so scenario replays and
// the PR 5 churn schedule compose deterministically with demand drift.

#include <cstdint>
#include <vector>

#include "traffic/matrix.hpp"

namespace dsdn::traffic {

struct DemandDynamicsOptions {
  // Diurnal sinusoid: factor 1 + A * sin(2*pi*(epoch/period + phase(src)))
  // per origin. 0 disables; must stay in [0, 1).
  double diurnal_amplitude = 0.0;
  double diurnal_period_epochs = 96.0;

  // Regional shift: origins ramp linearly to (1 +/- max_shift) over
  // `regional_horizon_epochs`, direction hashed per origin. 0 disables;
  // must stay in [0, 1).
  double regional_max_shift = 0.0;
  std::uint32_t regional_horizon_epochs = 256;

  // Flash crowds: per-epoch Bernoulli draw; peak adds
  // lognormal(median, sigma) * mean base row rate on top of the target
  // row, ramping up/holding/decaying linearly.
  double flash_prob_per_epoch = 0.0;
  static constexpr double flash_magnitude_median = 3.0;
  static constexpr double flash_magnitude_sigma = 0.5;
  std::uint32_t flash_ramp_epochs = 3;
  std::uint32_t flash_hold_epochs = 8;
  std::uint32_t flash_decay_epochs = 12;
  // Probability a flash targets a brand-new (src, dst, class) row not in
  // the base matrix instead of boosting an existing one.
  double flash_new_flow_prob = 0.25;

  // Per-(row, epoch) multiplicative lognormal noise. 0 disables.
  double jitter_sigma = 0.0;

  // Flash events are pre-drawn for start epochs in [0, horizon_epochs).
  std::uint32_t horizon_epochs = 512;
};

class DemandDynamics {
 public:
  struct FlashEvent {
    std::uint64_t start_epoch = 0;
    std::uint32_t ramp = 0, hold = 0, decay = 0;
    Demand row;        // rate_gbps is the *peak added* rate
    bool new_row = false;  // row absent from the base matrix
  };

  // `base` is aggregated on construction (duplicate keys merged).
  DemandDynamics(TrafficMatrix base, DemandDynamicsOptions options,
                 std::uint64_t seed);

  // The oracle matrix at `epoch`. Pure: same (base, options, seed,
  // epoch) always yields bit-identical output.
  TrafficMatrix matrix_at(std::uint64_t epoch) const;

  const TrafficMatrix& base() const { return base_; }
  const std::vector<FlashEvent>& flash_events() const {
    return flash_events_;
  }
  std::uint64_t seed() const { return seed_; }

 private:
  double drift_factor(topo::NodeId src, std::uint64_t epoch) const;
  double envelope(const FlashEvent& ev, std::uint64_t epoch) const;

  TrafficMatrix base_;
  DemandDynamicsOptions options_;
  std::uint64_t seed_;
  std::vector<FlashEvent> flash_events_;
};

}  // namespace dsdn::traffic
