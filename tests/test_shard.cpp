#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>
#include <vector>

#include "hier/plane_runtime.hpp"
#include "topo/zoo.hpp"
#include "traffic/gravity.hpp"
#include "util/rng.hpp"

namespace dsdn::hier {
namespace {

using metrics::PriorityClass;

// ---- make_planes: EBB-style capacity striping ----

TEST(MakePlanes, SplitPreservesStructureAndStripesCapacity) {
  const auto base = topo::make_geant();
  const auto planes = make_planes(base, 4);
  ASSERT_EQ(planes.size(), 4u);
  for (const auto& plane : planes) {
    EXPECT_EQ(plane.num_nodes(), base.num_nodes());
    EXPECT_EQ(plane.num_links(), base.num_links());
  }
  // Capacity striping: each plane link carries ~1/k of the base fiber
  // (remainder units may bump one plane by a kbps) and the stripes sum
  // back to the base capacity exactly.
  for (topo::LinkId l = 0; l < base.num_links(); ++l) {
    double sum = 0.0;
    for (const auto& plane : planes) {
      EXPECT_NEAR(plane.link(l).capacity_gbps,
                  base.link(l).capacity_gbps / 4.0, 1e-5);
      sum += plane.link(l).capacity_gbps;
    }
    EXPECT_NEAR(sum, base.link(l).capacity_gbps, 1e-9);
  }
  EXPECT_THROW(make_planes(base, 0), std::invalid_argument);
}

TEST(MakePlanes, StripingConservesCapacityWithIndivisibleRemainder) {
  // 10 Gbps across k=3 does not divide evenly (naive /k loses a third of
  // a kbps per fiber); quantized striping must conserve the total.
  topo::Topology base;
  base.add_node("a");
  base.add_node("b");
  base.add_node("c");
  base.add_duplex(0, 1, 10.0);
  base.add_duplex(1, 2, 99.999999);  // fractional-kbps stress
  base.add_duplex(0, 2, 0.001);      // 1000 units across 3 planes
  const auto planes = make_planes(base, 3);
  for (topo::LinkId l = 0; l < base.num_links(); ++l) {
    double sum = 0.0;
    double lo = 1e18, hi = 0.0;
    for (const auto& plane : planes) {
      sum += plane.link(l).capacity_gbps;
      lo = std::min(lo, plane.link(l).capacity_gbps);
      hi = std::max(hi, plane.link(l).capacity_gbps);
    }
    EXPECT_NEAR(sum, base.link(l).capacity_gbps, 1e-9) << "link " << l;
    // Remainder distribution is fair: stripes differ by at most one unit.
    EXPECT_LE(hi - lo, 1e-6 + 1e-12) << "link " << l;
  }
}

TEST(MakePlanes, SimplexBaseLinkKeepsEveryLinkId) {
  // Regression: striping a simplex link as a duplex added a phantom
  // reverse link and shifted every later id, so fail_conduit and
  // fail_fiber_in_plane -- which pass base ids to every plane -- cut the
  // wrong link. Plane link l must join base link l's endpoints.
  topo::Topology base;
  base.add_node("a");
  base.add_node("b");
  base.add_node("c");
  base.add_link(0, 1, 10.0);    // a->b simplex: id 0
  base.add_duplex(1, 2, 10.0);  // b<->c: ids 1, 2
  base.add_duplex(0, 2, 10.0);  // a<->c: ids 3, 4
  ASSERT_EQ(base.num_links(), 5u);
  for (const auto& plane : make_planes(base, 2)) {
    ASSERT_EQ(plane.num_links(), base.num_links());
    for (topo::LinkId l = 0; l < base.num_links(); ++l) {
      EXPECT_EQ(plane.link(l).src, base.link(l).src) << "link " << l;
      EXPECT_EQ(plane.link(l).dst, base.link(l).dst) << "link " << l;
      EXPECT_EQ(plane.link(l).reverse, base.link(l).reverse) << "link " << l;
    }
  }
}

// ---- place_flow: rendezvous placement ----

TEST(PlaceFlow, BalancesRateAcrossPlanes) {
  // No plane may carry more than 1/K + epsilon of the total rate -- the
  // property that makes 1/K capacity stripes sufficient.
  const auto base = topo::make_geant();
  traffic::GravityParams gp;
  gp.pair_fraction = 1.0;  // every metro pair, for a stable estimate
  const auto tm = traffic::generate_gravity(base, gp).aggregated();
  for (std::size_t k : {2, 4, 8}) {
    const std::vector<char> alive(k, 1);
    std::vector<double> rate(k, 0.0);
    for (const auto& d : tm.demands())
      rate[place_flow(d.src, d.dst, d.priority, alive)] += d.rate_gbps;
    for (std::size_t p = 0; p < k; ++p) {
      EXPECT_LT(rate[p],
                tm.total_rate_gbps() * (1.0 / static_cast<double>(k) + 0.10))
          << "k=" << k << " plane " << p;
    }
  }
}

TEST(PlaceFlow, StableAndInRangeOverSeededFlowKeys) {
  // place_flow is the one hash demands and packets both use; over seeded
  // random flow keys it must be stable call-to-call and in range.
  util::Rng rng(0x5EED);
  for (int i = 0; i < 1000; ++i) {
    const auto src = static_cast<topo::NodeId>(rng.uniform_int(0, 4000));
    const auto dst = static_cast<topo::NodeId>(rng.uniform_int(0, 4000));
    const auto priority =
        rng.bernoulli(0.5) ? PriorityClass::kHigh : PriorityClass::kLow;
    for (std::size_t k : {1, 3, 4}) {
      const std::vector<char> alive(k, 1);
      const std::size_t p = place_flow(src, dst, priority, alive);
      EXPECT_LT(p, k);
      EXPECT_EQ(place_flow(src, dst, priority, alive), p);
    }
  }
}

TEST(PlaceFlow, RendezvousMovesOnlyTheFailedPlanesFlows) {
  // HRW property: when plane 2 dies, exactly the flows whose all-alive
  // argmax was 2 re-place; every other flow keeps its plane. When it
  // returns, the same set -- and only it -- moves home.
  std::vector<char> all(4, 1);
  std::vector<char> degraded = all;
  degraded[2] = 0;
  std::size_t moved = 0, kept = 0;
  for (topo::NodeId src = 0; src < 40; ++src) {
    for (topo::NodeId dst = 0; dst < 40; ++dst) {
      if (src == dst) continue;
      std::size_t before = place_flow(src, dst, PriorityClass::kHigh, all);
      std::size_t after = place_flow(src, dst, PriorityClass::kHigh, degraded);
      if (before == 2) {
        EXPECT_NE(after, 2u);
        ++moved;
      } else {
        EXPECT_EQ(after, before);
        ++kept;
      }
      EXPECT_EQ(place_flow(src, dst, PriorityClass::kHigh, all), before);
    }
  }
  EXPECT_GT(moved, 0u);
  EXPECT_GT(kept, 0u);
  // Roughly 1/4 of flows lived on plane 2.
  double fraction = static_cast<double>(moved) /
                    static_cast<double>(moved + kept);
  EXPECT_NEAR(fraction, 0.25, 0.06);
  EXPECT_THROW(place_flow(0, 1, PriorityClass::kHigh, {0, 0}),
               std::logic_error);
}

}  // namespace
}  // namespace dsdn::hier
