// Parameterized end-to-end sweep across the external (TopologyZoo)
// networks: every subsystem -- TE, sublabels, FRR planning, the full
// controller emulation -- must hold its invariants on every topology we
// ship, not just the fixtures it was developed against.

#include <gtest/gtest.h>

#include "dataplane/sublabel.hpp"
#include "sim/convergence.hpp"
#include "sim/emulation.hpp"
#include "te/solver.hpp"
#include "topo/builder.hpp"
#include "topo/zoo.hpp"
#include "traffic/gravity.hpp"

namespace dsdn {
namespace {

class ZooSweep : public ::testing::TestWithParam<std::size_t> {
 protected:
  topo::Topology topo_ = topo::zoo_catalog()[GetParam()].factory();
  const char* name_ = topo::zoo_catalog()[GetParam()].name;
};

TEST_P(ZooSweep, SolverFeasibleAtEveryLoadLevel) {
  for (const double util : {0.3, 0.9, 1.8}) {
    traffic::GravityParams gp;
    gp.target_max_utilization = util;
    const auto tm = traffic::generate_gravity(topo_, gp);
    const auto sol = te::Solver().solve(topo_, tm);
    for (double r : sol.residual_capacity(topo_)) {
      EXPECT_GE(r, -1e-6) << name_ << " util " << util;
    }
    EXPECT_GT(sol.total_allocated_gbps(), 0.0);
  }
}

TEST_P(ZooSweep, SublabelDataPlaneDeliversDiameterPath) {
  const auto a = dataplane::assign_sublabels(topo_);
  std::vector<dataplane::SublabelFib> fibs;
  for (topo::NodeId n = 0; n < topo_.num_nodes(); ++n) {
    fibs.push_back(dataplane::SublabelFib::build(topo_, n, a));
  }
  // The longest shortest path from node 0.
  const te::PathTables paths = te::PathTables::of(topo_);
  te::Path longest, p;
  for (topo::NodeId d = 1; d < topo_.num_nodes(); ++d) {
    p.links.clear();
    if (paths.up_path(0, d, p.links) && p.hops() > longest.hops())
      longest = p;
  }
  ASSERT_FALSE(longest.empty()) << name_;
  const auto r = dataplane::forward_sublabel(
      topo_, fibs, 0, dataplane::encode_sublabel_route(longest, a));
  EXPECT_TRUE(r.delivered) << name_;
  EXPECT_EQ(r.final_node, longest.dst(topo_)) << name_;
}

TEST_P(ZooSweep, FailureDrillThroughRealControllers) {
  // Full controller emulation is O(nodes * solve); cap at ESNet size.
  if (topo_.num_nodes() > 70) GTEST_SKIP() << "emulation sweep capped";
  traffic::GravityParams gp;
  gp.pair_fraction = topo_.num_nodes() > 30 ? 0.1 : 0.5;
  auto tm = traffic::generate_gravity(topo_, gp);
  sim::DsdnEmulation wan(topo_, tm);
  wan.bootstrap();
  ASSERT_TRUE(wan.views_converged()) << name_;

  const auto fibers = sim::pick_failure_fibers(wan.network(), 2, GetParam());
  for (topo::LinkId fiber : fibers) {
    wan.fail_fiber(fiber);
    ASSERT_TRUE(wan.views_converged()) << name_;
  }
  util::Rng rng(GetParam() + 100);
  const auto& demands = wan.demands().demands();
  for (int i = 0; i < 25; ++i) {
    const auto& d = rng.pick(demands);
    const auto r = wan.send_packet(d.src, wan.address_of(d.dst), d.priority);
    EXPECT_EQ(r.outcome, dataplane::ForwardOutcome::kDelivered)
        << name_ << " " << d.src << "->" << d.dst;
  }
  for (topo::LinkId fiber : fibers) wan.repair_fiber(fiber);
  EXPECT_TRUE(wan.views_converged()) << name_;
}

TEST_P(ZooSweep, BypassPlansCoverAndAvoidProtectees) {
  const auto plan = dataplane::BypassPlan::compute(
      topo_, dataplane::BypassStrategy::kCapacityAware);
  for (const topo::Link& l : topo_.links()) {
    for (const te::Path& p : plan.candidates(l.id)) {
      EXPECT_EQ(p.src(topo_), l.src);
      EXPECT_EQ(p.dst(topo_), l.dst);
      for (topo::LinkId bl : p.links) {
        EXPECT_NE(bl, l.id);
        EXPECT_NE(bl, l.reverse);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllZooTopologies, ZooSweep,
                         ::testing::Range<std::size_t>(0, 4),
                         [](const auto& suite_info) {
                           return std::string(
                               topo::zoo_catalog()[suite_info.param].name);
                         });

}  // namespace
}  // namespace dsdn
