#include <gtest/gtest.h>

#include "sim/convergence.hpp"
#include "solver_golden.hpp"
#include "topo/synthetic.hpp"
#include "topo/zoo.hpp"
#include "traffic/flow_group.hpp"
#include "traffic/gravity.hpp"
#include "traffic/matrix.hpp"

namespace dsdn::traffic {
namespace {

using metrics::PriorityClass;

TEST(Matrix, AddValidatesInput) {
  TrafficMatrix tm;
  EXPECT_THROW(tm.add({0, 0, PriorityClass::kHigh, 1.0}),
               std::invalid_argument);
  EXPECT_THROW(tm.add({0, 1, PriorityClass::kHigh, -1.0}),
               std::invalid_argument);
  tm.add({0, 1, PriorityClass::kHigh, 1.0});
  EXPECT_EQ(tm.size(), 1u);
}

TEST(Matrix, ScaledMultipliesRates) {
  TrafficMatrix tm;
  tm.add({0, 1, PriorityClass::kHigh, 2.0});
  tm.add({1, 0, PriorityClass::kLow, 3.0});
  const auto scaled = tm.scaled(1.5);
  EXPECT_DOUBLE_EQ(scaled.total_rate_gbps(), 7.5);
  EXPECT_DOUBLE_EQ(tm.total_rate_gbps(), 5.0);
  EXPECT_THROW(tm.scaled(-1.0), std::invalid_argument);
}

TEST(Matrix, FromFiltersBySource) {
  TrafficMatrix tm;
  tm.add({0, 1, PriorityClass::kHigh, 1.0});
  tm.add({2, 1, PriorityClass::kHigh, 1.0});
  tm.add({0, 2, PriorityClass::kLow, 1.0});
  EXPECT_EQ(tm.from(0).size(), 2u);
  EXPECT_EQ(tm.from(1).size(), 0u);
}

TEST(Matrix, AggregatedMergesDuplicateKeys) {
  TrafficMatrix tm;
  tm.add({0, 1, PriorityClass::kHigh, 1.0});
  tm.add({0, 1, PriorityClass::kHigh, 2.5});
  tm.add({0, 1, PriorityClass::kLow, 1.0});
  const auto agg = tm.aggregated();
  EXPECT_EQ(agg.size(), 2u);
  EXPECT_DOUBLE_EQ(agg.total_rate_gbps(), 4.5);
}

TEST(Gravity, NormalizesToTargetUtilization) {
  const auto topo = topo::make_abilene();
  GravityParams params;
  params.target_max_utilization = 0.5;
  const auto tm = generate_gravity(topo, params);
  EXPECT_GT(tm.size(), 0u);
  EXPECT_NEAR(shortest_path_max_utilization(topo, tm), 0.5, 1e-9);
}

TEST(Gravity, EmitsAllConfiguredClasses) {
  const auto topo = topo::make_abilene();
  const auto tm = generate_gravity(topo);
  bool seen[metrics::kNumPriorityClasses] = {};
  for (const Demand& d : tm.demands()) seen[static_cast<int>(d.priority)] = true;
  for (bool s : seen) EXPECT_TRUE(s);
}

TEST(Gravity, PairFractionSparsifies) {
  const auto topo = topo::make_geant();
  GravityParams dense;
  GravityParams sparse;
  sparse.pair_fraction = 0.2;
  const auto tm_dense = generate_gravity(topo, dense);
  const auto tm_sparse = generate_gravity(topo, sparse);
  EXPECT_LT(tm_sparse.size(), tm_dense.size() / 2);
}

TEST(Gravity, DeterministicUnderSeed) {
  const auto topo = topo::make_abilene();
  const auto a = generate_gravity(topo);
  const auto b = generate_gravity(topo);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.demands()[i].rate_gbps, b.demands()[i].rate_gbps);
  }
}

TEST(Gravity, SkipsIntraMetroPairs) {
  // Two routers in one metro exchange no WAN traffic.
  topo::Topology t;
  const auto a = t.add_node("a1", "m1");
  const auto b = t.add_node("a2", "m1");
  const auto c = t.add_node("b1", "m2");
  t.add_duplex(a, b, 100);
  t.add_duplex(b, c, 100);
  const auto tm = generate_gravity(t);
  for (const Demand& d : tm.demands()) {
    EXPECT_NE(t.node(d.src).metro, t.node(d.dst).metro);
  }
}

// Gravity rows and the shortest-path utilization that normalizes them,
// doubles by bit pattern: Abilene and GEANT over every pair, B4 over 15%
// and B2 over 1% of pairs, seeds 1 and 2 each, and B4 with three fibers
// down. Recorded when normalization still built one shortest-path tree
// per source; walking the path table must not move a bit.
TEST(GravityGolden, RowsAndShortestPathUtilizationArePinned) {
  const auto digest = [](const topo::Topology& topo, double pair_fraction,
                         std::uint64_t seed) {
    GravityParams gp;
    gp.pair_fraction = pair_fraction;
    gp.seed = seed;
    const TrafficMatrix tm = generate_gravity(topo, gp);
    golden::Fnv f;
    f.add(static_cast<std::uint64_t>(tm.size()));
    for (const Demand& d : tm.demands()) {
      f.add(static_cast<std::uint64_t>(d.src));
      f.add(static_cast<std::uint64_t>(d.dst));
      f.add(static_cast<std::uint64_t>(d.priority));
      f.add(d.rate_gbps);
    }
    f.add(shortest_path_max_utilization(topo, tm));
    return f.h;
  };
  struct Case {
    const char* name;
    topo::Topology topo;
    double pair_fraction;
    std::array<std::uint64_t, 2> golden;  // seeds 1, 2
  };
  topo::Topology b4_cut = topo::make_b4_like();
  for (topo::LinkId fiber : sim::pick_failure_fibers(b4_cut, 3, 22))
    b4_cut.set_duplex_up(fiber, false);
  const Case cases[] = {
      {"abilene", topo::make_abilene(), 1.0,
       {0x21d4c006a791e80c, 0x0fb886a5837923a5}},
      {"geant", topo::make_geant(), 1.0,
       {0xd6f61660bfb6a4e0, 0xab24629b27671dd0}},
      {"b4", topo::make_b4_like(), 0.15,
       {0x21cc1987b001af18, 0xf3e1609b95f9dfb7}},
      {"b2", topo::make_b2_like(), 0.01,
       {0x7d208ba0e2124b51, 0xb6d43f7926d28a8c}},
      {"b4 three fibers down", b4_cut, 0.15,
       {0x8c7a2987efe69b6a, 0xf3e1609b95f9dfb7}},
  };
  for (const Case& c : cases) {
    for (std::uint64_t seed = 1; seed <= 2; ++seed) {
      const std::uint64_t h = digest(c.topo, c.pair_fraction, seed);
      EXPECT_EQ(h, c.golden[seed - 1])
          << c.name << " seed " << seed << ": 0x" << std::hex << h;
    }
  }
}

TEST(FlowGroups, PartitionCoversEveryDemandOnce) {
  const auto topo = topo::make_b4_like();
  GravityParams params;
  params.pair_fraction = 0.1;
  const auto tm = generate_gravity(topo, params);
  const auto groups = group_flows(topo, tm);
  std::size_t covered = 0;
  double volume = 0;
  for (const auto& g : groups) {
    covered += g.demand_indices.size();
    volume += g.total_rate_gbps;
  }
  EXPECT_EQ(covered, tm.size());
  EXPECT_NEAR(volume, tm.total_rate_gbps(), 1e-6);
}

TEST(FlowGroups, KeyedByClassAndMetroPair) {
  const auto topo = topo::make_abilene();
  const auto tm = generate_gravity(topo);
  for (const auto& g : group_flows(topo, tm)) {
    for (std::size_t idx : g.demand_indices) {
      const Demand& d = tm.demands()[idx];
      EXPECT_EQ(d.priority, g.key.priority);
      EXPECT_EQ(topo.node(d.src).metro, g.key.src_metro);
      EXPECT_EQ(topo.node(d.dst).metro, g.key.dst_metro);
    }
  }
}

TEST(FlowGroups, ClassFilterWorks) {
  const auto topo = topo::make_abilene();
  const auto tm = generate_gravity(topo);
  const auto high =
      group_flows_of_class(topo, tm, PriorityClass::kHigh);
  EXPECT_GT(high.size(), 0u);
  for (const auto& g : high) {
    EXPECT_EQ(g.key.priority, PriorityClass::kHigh);
  }
}

}  // namespace
}  // namespace dsdn::traffic
