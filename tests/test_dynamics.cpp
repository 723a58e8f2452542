#include <gtest/gtest.h>

#include <cmath>

#include "solver_golden.hpp"
#include "traffic/dynamics.hpp"
#include "traffic/gravity.hpp"
#include "topo/zoo.hpp"

namespace dsdn::traffic {
namespace {

using metrics::PriorityClass;

TrafficMatrix small_base() {
  TrafficMatrix tm;
  tm.add({0, 1, PriorityClass::kHigh, 10.0});
  tm.add({0, 2, PriorityClass::kLow, 4.0});
  tm.add({1, 2, PriorityClass::kHigh, 6.0});
  tm.add({2, 0, PriorityClass::kHigh, 8.0});
  return tm;
}

TEST(Dynamics, ValidatesOptions) {
  EXPECT_THROW(
      DemandDynamics(small_base(), {.diurnal_amplitude = 1.0}, 1),
      std::invalid_argument);
  EXPECT_THROW(
      DemandDynamics(small_base(), {.regional_max_shift = -0.1}, 1),
      std::invalid_argument);
  EXPECT_THROW(
      DemandDynamics(small_base(), {.flash_prob_per_epoch = 1.5}, 1),
      std::invalid_argument);
  EXPECT_THROW(
      DemandDynamics(TrafficMatrix{}, {.flash_prob_per_epoch = 0.5}, 1),
      std::invalid_argument);
}

TEST(Dynamics, IdentityWhenAllProcessesDisabled) {
  DemandDynamics dyn(small_base(), {}, 42);
  const auto base = small_base().aggregated();
  for (std::uint64_t e : {0u, 1u, 17u, 300u}) {
    EXPECT_EQ(dyn.matrix_at(e).demands(), base.demands()) << "epoch " << e;
  }
}

TEST(Dynamics, DiurnalCycleOscillatesAndAveragesOut) {
  DemandDynamicsOptions opt;
  opt.diurnal_amplitude = 0.4;
  opt.diurnal_period_epochs = 24.0;
  DemandDynamics dyn(small_base(), opt, 7);

  const double base_total = small_base().total_rate_gbps();
  double lo = 1e18, hi = 0.0, sum = 0.0;
  for (std::uint64_t e = 0; e < 24; ++e) {
    const double t = dyn.matrix_at(e).total_rate_gbps();
    lo = std::min(lo, t);
    hi = std::max(hi, t);
    sum += t;
  }
  EXPECT_LT(lo, base_total);
  EXPECT_GT(hi, base_total);
  // Per-origin phases differ, but each origin averages to its base over
  // a full period.
  EXPECT_NEAR(sum / 24.0, base_total, 0.02 * base_total);
  // One full period later the matrix repeats (up to sin() rounding on
  // the shifted argument -- bit identity only holds for equal epochs).
  EXPECT_NEAR(dyn.matrix_at(27).total_rate_gbps(),
              dyn.matrix_at(3).total_rate_gbps(),
              1e-9 * base_total);
}

TEST(Dynamics, RegionalShiftRampsMonotonically) {
  DemandDynamicsOptions opt;
  opt.regional_max_shift = 0.5;
  opt.regional_horizon_epochs = 100;
  DemandDynamics dyn(small_base(), opt, 11);

  // Every row moves monotonically toward (1 +/- 0.5) * base and clamps
  // at the horizon.
  const auto at0 = dyn.matrix_at(0).demands();
  const auto at50 = dyn.matrix_at(50).demands();
  const auto at100 = dyn.matrix_at(100).demands();
  const auto at200 = dyn.matrix_at(200).demands();
  ASSERT_EQ(at0.size(), at100.size());
  bool some_up = false, some_down = false;
  for (std::size_t i = 0; i < at0.size(); ++i) {
    if (at100[i].rate_gbps > at0[i].rate_gbps) {
      some_up = true;
      EXPECT_GT(at50[i].rate_gbps, at0[i].rate_gbps);
      EXPECT_LT(at50[i].rate_gbps, at100[i].rate_gbps);
    } else {
      some_down = true;
      EXPECT_LT(at50[i].rate_gbps, at0[i].rate_gbps);
    }
    EXPECT_DOUBLE_EQ(at100[i].rate_gbps, at200[i].rate_gbps);
  }
  EXPECT_TRUE(some_up || some_down);
}

TEST(Dynamics, FlashCrowdsRampHoldDecayAndVanish) {
  // A single pre-drawn event (low probability, tiny horizon makes one
  // event overwhelmingly likely to be isolated enough to observe).
  DemandDynamicsOptions opt;
  opt.flash_prob_per_epoch = 0.2;
  opt.flash_ramp_epochs = 2;
  opt.flash_hold_epochs = 3;
  opt.flash_decay_epochs = 4;
  opt.horizon_epochs = 64;
  DemandDynamics dyn(small_base(), opt, 123);

  ASSERT_FALSE(dyn.flash_events().empty());
  const auto& ev = dyn.flash_events().front();
  const double base_total = small_base().total_rate_gbps();

  // Before its start the event contributes nothing.
  if (ev.start_epoch > 0) {
    EXPECT_GE(dyn.matrix_at(ev.start_epoch - 1).total_rate_gbps(),
              base_total - 1e-9);
  }
  // During hold, total demand strictly exceeds the base.
  const std::uint64_t hold_epoch = ev.start_epoch + ev.ramp;
  EXPECT_GT(dyn.matrix_at(hold_epoch).total_rate_gbps(), base_total);
  // The ramp is monotone up into the hold plateau.
  if (ev.ramp >= 2) {
    EXPECT_LT(dyn.matrix_at(ev.start_epoch).total_rate_gbps(),
              dyn.matrix_at(hold_epoch).total_rate_gbps());
  }
}

TEST(Dynamics, NewFlowFlashTargetsKeyAbsentFromBase) {
  DemandDynamicsOptions opt;
  opt.flash_prob_per_epoch = 0.5;
  opt.flash_new_flow_prob = 1.0;
  opt.horizon_epochs = 64;
  DemandDynamics dyn(small_base(), opt, 99);

  const auto base = small_base().aggregated();
  bool found_new = false;
  for (const auto& ev : dyn.flash_events()) {
    if (!ev.new_row) continue;
    found_new = true;
    for (const auto& d : base.demands()) {
      EXPECT_FALSE(d.src == ev.row.src && d.dst == ev.row.dst &&
                   d.priority == ev.row.priority)
          << "flash event targets a base key";
    }
    EXPECT_NE(ev.row.src, ev.row.dst);
  }
  EXPECT_TRUE(found_new);
}

TEST(Dynamics, BitIdenticalUnderSameSeed) {
  // Property: generator output is bit-identical under the same seed,
  // including across option processes and a real topology base.
  const auto topo = topo::make_abilene();
  const auto base = generate_gravity(topo, {.seed = 5});

  DemandDynamicsOptions opt;
  opt.diurnal_amplitude = 0.3;
  opt.regional_max_shift = 0.2;
  opt.flash_prob_per_epoch = 0.1;
  opt.jitter_sigma = 0.05;
  opt.horizon_epochs = 128;

  for (std::uint64_t seed : {1ull, 42ull, 0xDEADBEEFull}) {
    DemandDynamics a(base, opt, seed);
    DemandDynamics b(base, opt, seed);
    ASSERT_EQ(a.flash_events().size(), b.flash_events().size());
    for (std::uint64_t e = 0; e < 128; e += 7) {
      const auto ma = a.matrix_at(e);
      const auto mb = b.matrix_at(e);
      ASSERT_EQ(ma.size(), mb.size());
      // operator== on Demand is exact (bit identity on the rate).
      EXPECT_EQ(ma.demands(), mb.demands()) << "seed " << seed
                                            << " epoch " << e;
    }
  }

  // And a different seed actually changes the output.
  DemandDynamics a(base, opt, 1);
  DemandDynamics c(base, opt, 2);
  EXPECT_NE(a.matrix_at(13).demands(), c.matrix_at(13).demands());
}

// Flash events and matrices by bit pattern, every drift process on:
// pins the flash magnitude draw and the envelope, diurnal, regional and
// jitter factors.
TEST(DynamicsGolden, FlashEventsAndMatricesArePinned) {
  constexpr std::array<std::uint64_t, 2> kGolden = {0x22f07d3bac1972b1ULL,
                                                    0x765a1017493f9783ULL};
  const auto topo = topo::make_abilene();
  const auto base = generate_gravity(topo, {.seed = 5});
  DemandDynamicsOptions opt;
  opt.diurnal_amplitude = 0.3;
  opt.regional_max_shift = 0.2;
  opt.flash_prob_per_epoch = 0.1;
  opt.jitter_sigma = 0.05;
  opt.horizon_epochs = 128;
  const auto add_row = [](golden::Fnv& f, const Demand& d) {
    f.add(static_cast<std::uint64_t>(d.src));
    f.add(static_cast<std::uint64_t>(d.dst));
    f.add(static_cast<std::uint64_t>(d.priority));
    f.add(d.rate_gbps);
  };
  std::size_t i = 0;
  for (std::uint64_t seed : {1ull, 42ull}) {
    const DemandDynamics dyn(base, opt, seed);
    golden::Fnv f;
    f.add(static_cast<std::uint64_t>(dyn.flash_events().size()));
    for (const auto& ev : dyn.flash_events()) {
      f.add(ev.start_epoch);
      f.add(static_cast<std::uint64_t>(ev.ramp));
      f.add(static_cast<std::uint64_t>(ev.hold));
      f.add(static_cast<std::uint64_t>(ev.decay));
      add_row(f, ev.row);
      f.add(static_cast<std::uint64_t>(ev.new_row));
    }
    for (std::uint64_t e = 0; e < 140; e += 7) {
      const TrafficMatrix m = dyn.matrix_at(e);
      f.add(static_cast<std::uint64_t>(m.size()));
      for (const Demand& d : m.demands()) add_row(f, d);
    }
    EXPECT_EQ(f.h, kGolden[i++]) << "seed " << seed << ": 0x" << std::hex
                                 << f.h;
  }
}

}  // namespace
}  // namespace dsdn::traffic
