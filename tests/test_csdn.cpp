#include <gtest/gtest.h>

#include "csdn/controller.hpp"
#include "topo/synthetic.hpp"
#include "topo/zoo.hpp"
#include "traffic/gravity.hpp"

namespace dsdn::csdn {
namespace {

TEST(Cpn, PartitionBookkeeping) {
  ControlPlaneNetwork cpn;
  EXPECT_TRUE(cpn.can_reach_controller(3));
  cpn.set_partitioned(3, true);
  EXPECT_FALSE(cpn.can_reach_controller(3));
  EXPECT_EQ(cpn.num_partitioned(), 1u);
  cpn.set_partitioned(3, false);
  EXPECT_TRUE(cpn.can_reach_controller(3));
}

TEST(Programming, PathGatedBySlowestTransit) {
  const auto topo = topo::make_line(5);
  util::Rng boot(1);
  metrics::ProgrammingLatencyModel model(topo.num_nodes(), boot);
  util::Rng rng(2);
  te::Path p;
  for (std::size_t i = 0; i + 1 < 5; ++i)
    p.links.push_back(topo.find_link(static_cast<topo::NodeId>(i),
                                     static_cast<topo::NodeId>(i + 1)));
  const auto t = two_phase_program(topo, p, model, rng);
  EXPECT_GT(t.transit_complete_s, 0.0);
  EXPECT_GT(t.enabled_s, t.transit_complete_s);  // encap comes after acks
}

TEST(Programming, SingleHopPathHasNoTransitPhase) {
  const auto topo = topo::make_line(2);
  util::Rng boot(1);
  metrics::ProgrammingLatencyModel model(topo.num_nodes(), boot);
  util::Rng rng(2);
  te::Path p;
  p.links = {topo.find_link(0, 1)};
  const auto t = two_phase_program(topo, p, model, rng);
  EXPECT_DOUBLE_EQ(t.transit_complete_s, 0.0);
  EXPECT_GT(t.enabled_s, 0.0);
}

TEST(Programming, LongerPathsSlowerInExpectation) {
  const auto topo = topo::make_line(12);
  util::Rng boot(1);
  metrics::ProgrammingLatencyModel model(topo.num_nodes(), boot);
  util::Rng rng(2);
  te::Path shortp, longp;
  shortp.links = {topo.find_link(0, 1), topo.find_link(1, 2)};
  for (std::size_t i = 0; i + 1 < 12; ++i)
    longp.links.push_back(topo.find_link(static_cast<topo::NodeId>(i),
                                         static_cast<topo::NodeId>(i + 1)));
  double short_sum = 0, long_sum = 0;
  for (int i = 0; i < 200; ++i) {
    short_sum += two_phase_program(topo, shortp, model, rng).enabled_s;
    long_sum += two_phase_program(topo, longp, model, rng).enabled_s;
  }
  EXPECT_GT(long_sum, short_sum);  // max over more transits stochastically dominates
}

TEST(CsdnController, SolveMatchesSharedSolver) {
  const auto topo = topo::make_abilene();
  const auto tm = traffic::generate_gravity(topo);
  CsdnController controller(&topo, 5);
  const auto central = controller.solve(tm);
  const auto direct = te::Solver().solve(topo, tm);
  ASSERT_EQ(central.allocations.size(), direct.allocations.size());
  for (std::size_t i = 0; i < central.allocations.size(); ++i) {
    EXPECT_DOUBLE_EQ(central.allocations[i].allocated_gbps,
                     direct.allocations[i].allocated_gbps);
  }
}

TEST(CsdnController, ReconvergenceTimingOrdered) {
  const auto topo = topo::make_abilene();
  const auto tm = traffic::generate_gravity(topo);
  CsdnController controller(&topo, 5);
  const auto solution = controller.solve(tm);
  std::vector<char> changed(solution.allocations.size(), 1);
  const auto timing = controller.time_reconvergence(100.0, solution, changed);
  EXPECT_GT(timing.t_learned, 100.0);
  EXPECT_GT(timing.t_computed, timing.t_learned);
  EXPECT_GE(timing.t_converged, timing.t_computed);
  EXPECT_EQ(timing.demand_switch.size(), solution.allocations.size());
  for (const auto& [demand, when] : timing.demand_switch) {
    EXPECT_GE(when, timing.t_computed);
    EXPECT_LE(when, timing.t_converged);
  }
}

TEST(CsdnController, UnchangedDemandsNotReprogrammed) {
  const auto topo = topo::make_abilene();
  const auto tm = traffic::generate_gravity(topo);
  CsdnController controller(&topo, 5);
  const auto solution = controller.solve(tm);
  std::vector<char> changed(solution.allocations.size(), 0);
  changed[0] = 1;
  const auto timing = controller.time_reconvergence(0.0, solution, changed);
  EXPECT_EQ(timing.demand_switch.size(), 1u);
}

TEST(CsdnController, PartitionedHeadendFailsStatic) {
  const auto topo = topo::make_abilene();
  const auto tm = traffic::generate_gravity(topo);
  CsdnController controller(&topo, 5);
  const auto solution = controller.solve(tm);
  const topo::NodeId victim = solution.allocations[0].demand.src;
  controller.cpn().set_partitioned(victim, true);
  std::vector<char> changed(solution.allocations.size(), 1);
  const auto timing = controller.time_reconvergence(0.0, solution, changed);
  for (const auto& [demand, when] : timing.demand_switch) {
    EXPECT_NE(solution.allocations[demand].demand.src, victim);
  }
}

TEST(ChangedDemands, DetectsPathAndWeightChanges) {
  te::Solution a, b;
  te::Allocation alloc;
  alloc.demand = {0, 1, metrics::PriorityClass::kHigh, 1.0};
  alloc.allocated_gbps = 1.0;
  te::WeightedPath wp;
  wp.path.links = {4};
  wp.weight = 1.0;
  alloc.paths.push_back(wp);
  a.allocations.push_back(alloc);
  b.allocations.push_back(alloc);
  EXPECT_EQ(changed_demands(a, b), (std::vector<char>{0}));
  b.allocations[0].paths[0].weight = 0.5;
  EXPECT_EQ(changed_demands(a, b), (std::vector<char>{1}));
  b = a;
  b.allocations[0].paths[0].path.links = {5};
  EXPECT_EQ(changed_demands(a, b), (std::vector<char>{1}));
}

}  // namespace
}  // namespace dsdn::csdn
