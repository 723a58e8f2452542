#include <gtest/gtest.h>

#include "metrics/calibration.hpp"
#include "metrics/distribution.hpp"
#include "metrics/slo.hpp"
#include "solver_golden.hpp"

namespace dsdn::metrics {
namespace {

TEST(Distribution, BasicStats) {
  EmpiricalDistribution d({1, 2, 3, 4, 5});
  EXPECT_EQ(d.size(), 5u);
  EXPECT_DOUBLE_EQ(d.mean(), 3.0);
  EXPECT_DOUBLE_EQ(d.min(), 1.0);
  EXPECT_DOUBLE_EQ(d.max(), 5.0);
  EXPECT_DOUBLE_EQ(d.median(), 3.0);
}

TEST(Distribution, PercentileInterpolates) {
  EmpiricalDistribution d({0, 10});
  EXPECT_DOUBLE_EQ(d.percentile(50), 5.0);
  EXPECT_DOUBLE_EQ(d.percentile(0), 0.0);
  EXPECT_DOUBLE_EQ(d.percentile(100), 10.0);
  EXPECT_THROW(d.percentile(101), std::invalid_argument);
}

TEST(Distribution, PercentileExactAtOneTwoAndHundredSamples) {
  // n = 1: every percentile is the lone sample.
  EmpiricalDistribution one({7.5});
  for (double p : {0.0, 1.0, 50.0, 99.0, 100.0}) {
    EXPECT_DOUBLE_EQ(one.percentile(p), 7.5) << "p=" << p;
  }

  // n = 2: linear interpolation between the two order statistics,
  // rank = p/100 * (n-1).
  EmpiricalDistribution two({10.0, 20.0});
  EXPECT_DOUBLE_EQ(two.percentile(0), 10.0);
  EXPECT_DOUBLE_EQ(two.percentile(25), 12.5);
  EXPECT_DOUBLE_EQ(two.percentile(50), 15.0);
  EXPECT_DOUBLE_EQ(two.percentile(75), 17.5);
  EXPECT_DOUBLE_EQ(two.percentile(100), 20.0);

  // n = 100 over 0..99: rank = p/100 * 99 lands exactly on a sample
  // whenever p is a multiple of 100/99ths -- check a mix of exact and
  // interpolated ranks.
  std::vector<double> v(100);
  for (int i = 0; i < 100; ++i) v[static_cast<std::size_t>(i)] = i;
  EmpiricalDistribution hundred(v);
  EXPECT_DOUBLE_EQ(hundred.percentile(0), 0.0);
  EXPECT_DOUBLE_EQ(hundred.percentile(100), 99.0);
  EXPECT_DOUBLE_EQ(hundred.percentile(50), 49.5);    // rank 49.5
  EXPECT_DOUBLE_EQ(hundred.percentile(99), 98.01);   // rank 98.01
  EXPECT_DOUBLE_EQ(hundred.percentile(10), 9.9);     // rank 9.9
  EXPECT_DOUBLE_EQ(hundred.median(), 49.5);
}

TEST(Distribution, BatchPercentilesMatchSingleQueries) {
  EmpiricalDistribution d;
  std::uint64_t x = 88172645463325252ull;
  for (int i = 0; i < 1000; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    d.add(static_cast<double>(x % 10000));
  }
  const double ps[] = {0, 1, 25, 50, 75, 99, 99.9, 100};
  const auto batch = d.percentiles(ps);
  ASSERT_EQ(batch.size(), 8u);
  for (std::size_t i = 0; i < batch.size(); ++i) {
    EXPECT_DOUBLE_EQ(batch[i], d.percentile(ps[i])) << "p=" << ps[i];
  }
  EXPECT_THROW(d.percentiles(std::vector<double>{50.0, 101.0}),
               std::invalid_argument);
  EXPECT_THROW(EmpiricalDistribution().percentiles(ps), std::logic_error);
}

TEST(Distribution, SortedCacheSurvivesInterleavedAppends) {
  // The incremental tail merge: add/query/add/query must equal the
  // sort-from-scratch answer at every step.
  EmpiricalDistribution incremental;
  std::vector<double> all;
  std::uint64_t x = 0x9E3779B97F4A7C15ull;
  for (int i = 0; i < 500; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    const double v = static_cast<double>(x % 1000) - 500.0;
    incremental.add(v);
    all.push_back(v);
    if (i % 7 == 0) {
      EmpiricalDistribution fresh(all);
      EXPECT_DOUBLE_EQ(incremental.percentile(50), fresh.percentile(50));
      EXPECT_DOUBLE_EQ(incremental.percentile(99), fresh.percentile(99));
    }
  }
  // Descending input (worst case for an append-sorted tail).
  EmpiricalDistribution desc;
  for (int i = 100; i > 0; --i) {
    desc.add(static_cast<double>(i));
    EXPECT_DOUBLE_EQ(desc.max(), 100.0);
    EXPECT_DOUBLE_EQ(desc.percentile(0), static_cast<double>(i));
  }
}

TEST(Distribution, EmptyThrows) {
  EmpiricalDistribution d;
  EXPECT_THROW(d.mean(), std::logic_error);
  EXPECT_THROW(d.percentile(50), std::logic_error);
}

TEST(Distribution, CdfMonotone) {
  EmpiricalDistribution d({1, 2, 2, 3});
  EXPECT_DOUBLE_EQ(d.cdf(0.5), 0.0);
  EXPECT_DOUBLE_EQ(d.cdf(2), 0.75);
  EXPECT_DOUBLE_EQ(d.cdf(10), 1.0);
}

TEST(Distribution, AddInvalidatesSortCache) {
  EmpiricalDistribution d({5});
  EXPECT_DOUBLE_EQ(d.median(), 5.0);
  d.add(1);
  EXPECT_DOUBLE_EQ(d.median(), 3.0);
}

TEST(Distribution, ScaledMultipliesAllSamples) {
  EmpiricalDistribution d({1, 2});
  const auto s = d.scaled(10.0);
  EXPECT_DOUBLE_EQ(s.mean(), 15.0);
  EXPECT_DOUBLE_EQ(d.mean(), 1.5);  // original untouched
}

TEST(Distribution, SampleDrawsFromData) {
  EmpiricalDistribution d({7, 7, 7});
  util::Rng rng(1);
  for (int i = 0; i < 10; ++i) EXPECT_DOUBLE_EQ(d.sample(rng), 7.0);
}

TEST(Slo, ThresholdsLoosenOneNinePerClass) {
  EXPECT_DOUBLE_EQ(slo_loss_threshold(PriorityClass::kHigh), 1e-4);
  EXPECT_DOUBLE_EQ(slo_loss_threshold(PriorityClass::kIntermediate), 1e-3);
  EXPECT_DOUBLE_EQ(slo_loss_threshold(PriorityClass::kLow), 1e-2);
}

TEST(Calibration, CsdnTpropMedianNearCalibratedValue) {
  util::Rng rng(5);
  EmpiricalDistribution d;
  for (int i = 0; i < 20000; ++i) d.add(sample_csdn_tprop(rng));
  EXPECT_NEAR(d.median(), CsdnCalibration::tprop_median_s,
              CsdnCalibration::tprop_median_s * 0.1);
}

TEST(Calibration, DsdnVsCsdnComponentOrdering) {
  // The calibrated models must encode the paper's orderings: dSDN Tprog
  // orders of magnitude below cSDN programming, dSDN Tcomp ~35% above.
  using cs = CsdnCalibration;
  using ds = DsdnCalibration;
  EXPECT_LT(ds::tprog_median_s * 100, cs::transit_router_median_s * 10);
  EXPECT_NEAR(ds::tcomp_median_s / cs::tcomp_median_s, 1.35, 0.01);
}

TEST(Calibration, ProgrammingModelHeterogeneousAcrossRouters) {
  util::Rng rng(9);
  ProgrammingLatencyModel model(50, rng);
  // Collect per-router medians; Fig 19 reports ~10x spread across routers.
  double lo = 1e18, hi = 0;
  util::Rng sampler(10);
  for (std::size_t r = 0; r < 50; ++r) {
    EmpiricalDistribution d;
    for (int i = 0; i < 300; ++i) d.add(model.sample_transit(r, sampler));
    lo = std::min(lo, d.median());
    hi = std::max(hi, d.median());
  }
  EXPECT_GT(hi / lo, 5.0);
}

TEST(Calibration, ProgrammingModelTailStretch) {
  // Per-router p99 should sit several x above the median (paper: 4x-11x).
  util::Rng rng(9);
  ProgrammingLatencyModel model(4, rng);
  util::Rng sampler(12);
  EmpiricalDistribution d;
  for (int i = 0; i < 20000; ++i) d.add(model.sample_transit(0, sampler));
  EXPECT_GT(d.percentile(99) / d.median(), 3.0);
}

TEST(Calibration, ProgrammingModelValidatesIndices) {
  util::Rng rng(9);
  ProgrammingLatencyModel model(4, rng);
  EXPECT_THROW(model.sample_transit(4, rng), std::out_of_range);
  EXPECT_THROW(ProgrammingLatencyModel(0, rng), std::invalid_argument);
}

TEST(Calibration, RouterCpuRatioMatchesPaper) {
  EXPECT_NEAR(kRouterCpuSpeedRatio, 1.9 / 2.8, 1e-12);
}

}  // namespace
}  // namespace dsdn::metrics

namespace dsdn::metrics {
namespace {

TEST(Timeline, RenderScalesToMaxAndShowsPercent) {
  std::vector<BlastSample> samples = {{0.0, 0.5}, {1.0, 0.25}, {2.0, 0.0}};
  const auto text = render_timeline(samples, 8);
  EXPECT_NE(text.find("50.00%"), std::string::npos);
  EXPECT_NE(text.find("25.00%"), std::string::npos);
  EXPECT_NE(text.find("0.00%"), std::string::npos);
  // The largest sample gets the full bar width.
  EXPECT_NE(text.find("########"), std::string::npos);
}

TEST(Timeline, EmptyAndAllZeroAreSafe) {
  EXPECT_EQ(render_timeline({}), "");
  const auto flat = render_timeline({{0.0, 0.0}});
  EXPECT_NE(flat.find("0.00%"), std::string::npos);
}

// Every calibrated sampler's draws by bit pattern: the per-router
// programming bases and tails, cSDN Tprop/Tcomp and dSDN per-hop, Tprog
// and Tcomp.
TEST(CalibrationGolden, SamplersAndProgrammingModel) {
  util::Rng rng(17);
  golden::Fnv f;
  const ProgrammingLatencyModel model(24, rng);
  f.add(static_cast<std::uint64_t>(model.slowest_router()));
  for (int i = 0; i < 4; ++i) {
    for (std::size_t r = 0; r < model.n_routers(); ++r) {
      f.add(model.sample_transit(r, rng));
      f.add(model.sample_encap(r, rng));
    }
  }
  for (int i = 0; i < 32; ++i) {
    f.add(sample_csdn_tprop(rng));
    f.add(sample_csdn_tcomp(rng));
    f.add(sample_dsdn_hop_process(rng));
    f.add(sample_dsdn_tprog(rng));
    f.add(sample_dsdn_tcomp(rng));
  }
  EXPECT_EQ(f.h, 0xcab41787d2bf06f6ULL) << "0x" << std::hex << f.h;
}

}  // namespace
}  // namespace dsdn::metrics
