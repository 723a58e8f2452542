#include "traffic/dynamics.hpp"

#include <cmath>
#include <numbers>
#include <set>
#include <stdexcept>
#include <tuple>

#include "util/rng.hpp"

namespace dsdn::traffic {
namespace {

constexpr std::uint64_t kPhaseSalt = 0xD1'52'4A'11ULL;
constexpr std::uint64_t kShiftSalt = 0x5EC'0'1A8ULL;
constexpr std::uint64_t kFlashSalt = 0xF1A5'8C'20'0DULL;
constexpr std::uint64_t kJitterSalt = 0x71'77'E2ULL;

// Hash of (seed, salt, x) mapped to [0, 1).
double hashed_unit(std::uint64_t seed, std::uint64_t salt, std::uint64_t x) {
  const std::uint64_t h = util::splitmix64(seed ^ salt ^ (x * 0x9E3779B97F4A7C15ULL));
  return static_cast<double>(h >> 11) * 0x1.0p-53;
}

}  // namespace

DemandDynamics::DemandDynamics(TrafficMatrix base,
                               DemandDynamicsOptions options,
                               std::uint64_t seed)
    : base_(base.aggregated()), options_(options), seed_(seed) {
  if (options.diurnal_amplitude < 0.0 || options.diurnal_amplitude >= 1.0)
    throw std::invalid_argument("DemandDynamics: diurnal_amplitude in [0,1)");
  if (options.diurnal_amplitude > 0.0 && options.diurnal_period_epochs <= 0.0)
    throw std::invalid_argument("DemandDynamics: diurnal period <= 0");
  if (options.regional_max_shift < 0.0 || options.regional_max_shift >= 1.0)
    throw std::invalid_argument("DemandDynamics: regional_max_shift in [0,1)");
  if (options.regional_max_shift > 0.0 && options.regional_horizon_epochs == 0)
    throw std::invalid_argument("DemandDynamics: regional horizon == 0");
  if (options.flash_prob_per_epoch < 0.0 || options.flash_prob_per_epoch > 1.0)
    throw std::invalid_argument("DemandDynamics: flash_prob in [0,1]");
  if (options.flash_prob_per_epoch > 0.0 && base_.empty())
    throw std::invalid_argument("DemandDynamics: flash crowds need a base");

  // Pre-draw flash-crowd events over the horizon. A single child stream
  // drawn in epoch order keeps the whole schedule a function of the
  // seed alone.
  if (options_.flash_prob_per_epoch > 0.0) {
    util::Rng rng(util::splitmix64(seed_ ^ kFlashSalt));
    double mean_rate = 0.0;
    std::set<std::tuple<topo::NodeId, topo::NodeId, int>> base_keys;
    std::set<topo::NodeId> nodes;
    for (const auto& d : base_.demands()) {
      mean_rate += d.rate_gbps;
      base_keys.insert({d.src, d.dst, static_cast<int>(d.priority)});
      nodes.insert(d.src);
      nodes.insert(d.dst);
    }
    mean_rate /= static_cast<double>(base_.size());
    const std::vector<topo::NodeId> node_list(nodes.begin(), nodes.end());

    for (std::uint64_t e = 0; e < options_.horizon_epochs; ++e) {
      if (!rng.bernoulli(options_.flash_prob_per_epoch)) continue;
      FlashEvent ev;
      ev.start_epoch = e;
      ev.ramp = options_.flash_ramp_epochs;
      ev.hold = options_.flash_hold_epochs;
      ev.decay = options_.flash_decay_epochs;
      const double peak =
          mean_rate *
          rng.lognormal_median(DemandDynamicsOptions::flash_magnitude_median,
                               DemandDynamicsOptions::flash_magnitude_sigma);
      if (rng.bernoulli(options_.flash_new_flow_prob) &&
          node_list.size() >= 2) {
        // A brand-new flow: pick a (src, dst, class) key absent from the
        // base so the estimator's new-key admission path is exercised.
        ev.new_row = true;
        for (int attempt = 0; attempt < 16; ++attempt) {
          const topo::NodeId src = rng.pick(node_list);
          const topo::NodeId dst = rng.pick(node_list);
          const int pc = static_cast<int>(
              rng.uniform_int(0, metrics::kNumPriorityClasses - 1));
          if (src == dst) continue;
          if (base_keys.contains({src, dst, pc})) continue;
          ev.row = Demand{src, dst, static_cast<metrics::PriorityClass>(pc),
                          peak};
          break;
        }
        if (ev.row.src == topo::kInvalidNode) ev.new_row = false;
      }
      if (!ev.new_row) {
        ev.row = rng.pick(base_.demands());
        ev.row.rate_gbps = peak;
      }
      flash_events_.push_back(ev);
    }
  }
}

double DemandDynamics::drift_factor(topo::NodeId src,
                                    std::uint64_t epoch) const {
  double f = 1.0;
  if (options_.diurnal_amplitude > 0.0) {
    const double phase = hashed_unit(seed_, kPhaseSalt, src);
    f *= 1.0 + options_.diurnal_amplitude *
                   std::sin(2.0 * std::numbers::pi *
                            (static_cast<double>(epoch) /
                                 options_.diurnal_period_epochs +
                             phase));
  }
  if (options_.regional_max_shift > 0.0) {
    const double dir =
        hashed_unit(seed_, kShiftSalt, src) < 0.5 ? -1.0 : 1.0;
    const double progress =
        std::min(1.0, static_cast<double>(epoch) /
                          static_cast<double>(
                              options_.regional_horizon_epochs));
    f *= 1.0 + dir * options_.regional_max_shift * progress;
  }
  return f;
}

double DemandDynamics::envelope(const FlashEvent& ev,
                                std::uint64_t epoch) const {
  if (epoch < ev.start_epoch) return 0.0;
  const std::uint64_t t = epoch - ev.start_epoch;
  if (t < ev.ramp)
    return static_cast<double>(t + 1) / static_cast<double>(ev.ramp);
  if (t < static_cast<std::uint64_t>(ev.ramp) + ev.hold) return 1.0;
  const std::uint64_t into_decay = t - ev.ramp - ev.hold;
  if (into_decay >= ev.decay) return 0.0;
  return 1.0 - static_cast<double>(into_decay + 1) /
                   static_cast<double>(ev.decay + 1);
}

TrafficMatrix DemandDynamics::matrix_at(std::uint64_t epoch) const {
  std::vector<Demand> rows = base_.demands();
  for (std::size_t i = 0; i < rows.size(); ++i) {
    double f = drift_factor(rows[i].src, epoch);
    if (options_.jitter_sigma > 0.0) {
      util::Rng jr(util::splitmix64(
          seed_ ^ kJitterSalt ^
          util::splitmix64(epoch * 0x2545F4914F6CDD1DULL + i)));
      f *= jr.lognormal_median(1.0, options_.jitter_sigma);
    }
    rows[i].rate_gbps *= std::max(0.0, f);
  }
  for (const auto& ev : flash_events_) {
    const double env = envelope(ev, epoch);
    if (env <= 0.0) continue;
    Demand d = ev.row;
    d.rate_gbps *= env;
    rows.push_back(d);
  }
  return TrafficMatrix(std::move(rows)).aggregated();
}

}  // namespace dsdn::traffic
