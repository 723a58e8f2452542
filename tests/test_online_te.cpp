#include <gtest/gtest.h>

#include <array>

#include "sim/online.hpp"
#include "te/recompute_policy.hpp"
#include "topo/synthetic.hpp"
#include "topo/zoo.hpp"
#include "traffic/gravity.hpp"

namespace dsdn::te {
namespace {

using metrics::PriorityClass;

traffic::TrafficMatrix tm_of(std::vector<traffic::Demand> rows) {
  return traffic::TrafficMatrix(std::move(rows));
}

TEST(RecomputePolicy, ValidatesOptions) {
  EXPECT_THROW(RecomputePolicy({.period_epochs = 0}), std::invalid_argument);
  EXPECT_THROW(RecomputePolicy({.drift_threshold = -1.0}),
               std::invalid_argument);
}

TEST(RecomputePolicy, DriftFractionCoversUnionOfKeys) {
  const auto solved = tm_of({{0, 1, PriorityClass::kHigh, 10.0},
                             {0, 2, PriorityClass::kLow, 10.0}});
  // Unchanged view: zero drift.
  EXPECT_DOUBLE_EQ(RecomputePolicy::drift_fraction(solved, solved), 0.0);
  // One row moves by 5: 5/20.
  const auto moved = tm_of({{0, 1, PriorityClass::kHigh, 15.0},
                            {0, 2, PriorityClass::kLow, 10.0}});
  EXPECT_DOUBLE_EQ(RecomputePolicy::drift_fraction(solved, moved), 0.25);
  // A vanished row counts in full; so does a brand-new one.
  const auto swapped = tm_of({{0, 1, PriorityClass::kHigh, 10.0},
                              {3, 2, PriorityClass::kLow, 10.0}});
  EXPECT_DOUBLE_EQ(RecomputePolicy::drift_fraction(solved, swapped), 1.0);
  // Empty baseline: any nonzero view is full drift.
  EXPECT_DOUBLE_EQ(RecomputePolicy::drift_fraction(tm_of({}), solved), 1.0);
  EXPECT_DOUBLE_EQ(RecomputePolicy::drift_fraction(tm_of({}), tm_of({})),
                   0.0);
}

TEST(RecomputePolicy, PeriodicFiresOnCadence) {
  RecomputePolicy p({.kind = RecomputeTrigger::kPeriodic,
                     .period_epochs = 3});
  const auto view = tm_of({{0, 1, PriorityClass::kHigh, 10.0}});
  // No baseline yet: always fires.
  EXPECT_TRUE(p.on_epoch(view));
  p.note_recompute(view);
  EXPECT_FALSE(p.on_epoch(view));
  EXPECT_FALSE(p.on_epoch(view));
  EXPECT_TRUE(p.on_epoch(view));  // third epoch since the solve
  p.note_recompute(view);
  EXPECT_FALSE(p.on_epoch(view));
}

TEST(RecomputePolicy, ThresholdFiresOnDriftOnly) {
  RecomputePolicy p({.kind = RecomputeTrigger::kThreshold,
                     .drift_threshold = 0.2});
  const auto view = tm_of({{0, 1, PriorityClass::kHigh, 10.0}});
  EXPECT_TRUE(p.on_epoch(view));
  p.note_recompute(view);
  // 10% drift: below the bar, forever.
  const auto small = tm_of({{0, 1, PriorityClass::kHigh, 11.0}});
  for (int i = 0; i < 50; ++i) EXPECT_FALSE(p.on_epoch(small));
  // 30% drift fires.
  const auto big = tm_of({{0, 1, PriorityClass::kHigh, 13.0}});
  EXPECT_TRUE(p.on_epoch(big));
}

TEST(RecomputePolicy, HybridCapsStaleness) {
  RecomputePolicy p({.kind = RecomputeTrigger::kHybrid,
                     .period_epochs = 4,
                     .drift_threshold = 0.2});
  const auto view = tm_of({{0, 1, PriorityClass::kHigh, 10.0}});
  EXPECT_TRUE(p.on_epoch(view));
  p.note_recompute(view);
  const auto small = tm_of({{0, 1, PriorityClass::kHigh, 10.5}});
  EXPECT_FALSE(p.on_epoch(small));
  EXPECT_FALSE(p.on_epoch(small));
  EXPECT_FALSE(p.on_epoch(small));
  EXPECT_TRUE(p.on_epoch(small));  // staleness cap at 4 epochs
  p.note_recompute(small);
  // Drift fires immediately regardless of staleness.
  const auto big = tm_of({{0, 1, PriorityClass::kHigh, 20.0}});
  EXPECT_TRUE(p.on_epoch(big));
}

TEST(RecomputePolicy, EmptyBaselineNeverDefersNonEmptyView) {
  // The bootstrap solve runs before the first measurement epoch, so a
  // policy can be seeded with an empty solved matrix. Deferring the
  // first real view against it would leave the fleet on an empty
  // routing for a whole period (regression: 100% regret at epoch 0).
  RecomputePolicy p({.kind = RecomputeTrigger::kPeriodic,
                     .period_epochs = 8});
  p.note_recompute(tm_of({}));
  const auto view = tm_of({{0, 1, PriorityClass::kHigh, 10.0}});
  EXPECT_TRUE(p.on_epoch(view));
  p.note_recompute(view);
  EXPECT_FALSE(p.on_epoch(view));  // a real baseline defers as usual
}

TEST(RecomputePolicy, ResetForgetsBaseline) {
  RecomputePolicy p({.kind = RecomputeTrigger::kThreshold,
                     .drift_threshold = 100.0});
  const auto view = tm_of({{0, 1, PriorityClass::kHigh, 10.0}});
  EXPECT_TRUE(p.on_epoch(view));
  p.note_recompute(view);
  EXPECT_FALSE(p.on_epoch(view));  // threshold unreachable
  p.reset();
  EXPECT_TRUE(p.on_epoch(view));  // no baseline again: must fire
}

}  // namespace
}  // namespace dsdn::te

namespace dsdn::sim {
namespace {

using metrics::PriorityClass;

OnlineTeOptions small_options() {
  OnlineTeOptions opt;
  opt.epochs = 32;
  opt.check_every = 8;
  // Slow enough that per-epoch drift sits well under a 10% threshold,
  // so deferring policies have something to defer.
  opt.dynamics.diurnal_amplitude = 0.3;
  opt.dynamics.diurnal_period_epochs = 64.0;
  opt.dynamics.flash_prob_per_epoch = 0.08;
  opt.estimator.alpha = 0.4;
  opt.estimator.floor_gbps = 0.05;
  return opt;
}

TEST(OnlineTe, ClosedLoopRunsCleanWithHybridPolicy) {
  const auto topo = topo::make_abilene();
  const auto base = traffic::generate_gravity(topo, {.seed = 7});

  OnlineTeOptions opt = small_options();
  opt.policy.kind = te::RecomputeTrigger::kHybrid;
  opt.policy.period_epochs = 8;
  opt.policy.drift_threshold = 0.10;
  opt.churn_events = 3;

  const OnlineTeResult r = run_online_te(topo, base, opt, 1);
  EXPECT_TRUE(r.ok()) << (r.violations.empty() ? "" : r.violations.front());
  EXPECT_EQ(r.epochs, opt.epochs);
  EXPECT_GT(r.invariant_checks, 0u);
  EXPECT_GT(r.omniscient_gbps_sum, 0.0);
  EXPECT_GT(r.achieved_gbps_sum, 0.0);
  EXPECT_LT(r.regret_fraction, 0.5);
}

TEST(OnlineTe, DeferringPolicySavesRecomputes) {
  const auto topo = topo::make_abilene();
  const auto base = traffic::generate_gravity(topo, {.seed = 7});

  OnlineTeOptions every = small_options();
  every.policy.kind = te::RecomputeTrigger::kEvery;
  const OnlineTeResult r_every = run_online_te(topo, base, every, 3);
  ASSERT_TRUE(r_every.ok());

  OnlineTeOptions hybrid = small_options();
  hybrid.policy.kind = te::RecomputeTrigger::kHybrid;
  hybrid.policy.period_epochs = 8;
  hybrid.policy.drift_threshold = 0.10;
  const OnlineTeResult r_hybrid = run_online_te(topo, base, hybrid, 3);
  ASSERT_TRUE(r_hybrid.ok());

  // Same demand process, far fewer solves, bounded extra regret.
  EXPECT_LT(r_hybrid.recomputes, r_every.recomputes / 2);
  EXPECT_LT(r_hybrid.regret_fraction, r_every.regret_fraction + 0.10);
}

TEST(OnlineTe, BitIdenticalUnderSameSeed) {
  const auto topo = topo::make_abilene();
  const auto base = traffic::generate_gravity(topo, {.seed = 9});

  OnlineTeOptions opt = small_options();
  opt.epochs = 16;
  opt.policy.kind = te::RecomputeTrigger::kHybrid;
  opt.churn_events = 2;

  const OnlineTeResult a = run_online_te(topo, base, opt, 11);
  const OnlineTeResult b = run_online_te(topo, base, opt, 11);
  EXPECT_EQ(a.fingerprint(), b.fingerprint());
  EXPECT_EQ(a.recomputes, b.recomputes);
  EXPECT_EQ(a.churn_applied, b.churn_applied);
  EXPECT_DOUBLE_EQ(a.achieved_gbps_sum, b.achieved_gbps_sum);

  const OnlineTeResult c = run_online_te(topo, base, opt, 12);
  EXPECT_NE(a.fingerprint(), c.fingerprint());
}

// Fingerprints of seeded closed loops with churn and a deferring
// policy: the epoch length and the bad-epoch cut feed bad_seconds (the
// estimator floor puts some epochs on each side of the cut), and the
// solver, warm-start and scenario settings feed every placement.
TEST(OnlineTeGolden, FingerprintsOverSeeds) {
  constexpr std::array<std::uint64_t, 3> kGolden = {
      0x3f97f5004c5cd348ULL, 0x8fb7a79ddf86b924ULL, 0xe2ae62ea6ba35fffULL};
  const auto topo = topo::make_abilene();
  const auto base = traffic::generate_gravity(topo, {.seed = 7});
  OnlineTeOptions opt = small_options();
  opt.estimator.floor_gbps = 0.02;
  opt.dynamics.flash_prob_per_epoch = 0.15;
  opt.policy.kind = te::RecomputeTrigger::kHybrid;
  opt.policy.period_epochs = 8;
  opt.policy.drift_threshold = 0.10;
  opt.churn_events = 4;
  std::size_t i = 0;
  for (std::uint64_t seed : {2ull, 5ull, 17ull}) {
    const OnlineTeResult r = run_online_te(topo, base, opt, seed);
    for (const auto& v : r.violations) ADD_FAILURE() << v;
    EXPECT_GT(r.churn_applied, 0u) << "seed " << seed;
    EXPECT_GT(r.bad_epochs, 0u) << "seed " << seed;
    EXPECT_LT(r.bad_epochs, r.epochs) << "seed " << seed;
    EXPECT_EQ(r.fingerprint(), kGolden[i++])
        << "seed " << seed << ": 0x" << std::hex << r.fingerprint();
  }
}

TEST(OnlineTe, CrashBarrierResetsPoliciesFleetWide) {
  // A crash/recovery mid-loop must reset every controller's policy at
  // the same barrier the warm-TE state resets: afterwards the fleet
  // still agrees (converged digests, parity clean).
  const auto topo = topo::make_ring(6);
  traffic::TrafficMatrix base;
  base.add({0, 3, PriorityClass::kHigh, 8.0});
  base.add({1, 4, PriorityClass::kLow, 4.0});

  EmulationConfig cfg;
  cfg.recompute_policy.kind = te::RecomputeTrigger::kThreshold;
  cfg.recompute_policy.drift_threshold = 0.5;
  DsdnEmulation emu(topo, base, cfg);
  emu.enable_in_band_measurement({.alpha = 0.5, .floor_gbps = 0.01});
  emu.bootstrap();
  for (int e = 0; e < 4; ++e) {
    emu.observe_traffic(base);
    emu.measurement_epoch();
  }
  emu.crash_and_recover(2);
  EXPECT_TRUE(emu.views_converged());
  for (int e = 0; e < 4; ++e) {
    emu.observe_traffic(base);
    emu.measurement_epoch();
  }
  InvariantOptions inv;
  inv.parity_against_solved_demands = true;
  const InvariantReport rep = check_invariants(emu, inv);
  EXPECT_TRUE(rep.ok()) << (rep.violations.empty() ? ""
                                                   : rep.violations.front());
}

}  // namespace
}  // namespace dsdn::sim
