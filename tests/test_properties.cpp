// Cross-cutting property tests for the invariants called out in DESIGN.md
// §5, swept across seeds/topologies with parameterized gtest.

#include <gtest/gtest.h>

#include <set>

#include "dataplane/sublabel.hpp"
#include "sim/convergence.hpp"
#include "sim/emulation.hpp"
#include "sim/flow_eval.hpp"
#include "te/ksp.hpp"
#include "te/solver.hpp"
#include "topo/builder.hpp"
#include "topo/synthetic.hpp"
#include "topo/zoo.hpp"
#include "traffic/gravity.hpp"

namespace dsdn {
namespace {

using metrics::PriorityClass;

// ---------- TE solver properties over random workloads ----------

class SolverPropertyTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SolverPropertyTest, CapacityNeverExceededAndPathsValid) {
  const auto topo = topo::make_geant();
  traffic::GravityParams gp;
  gp.seed = GetParam();
  gp.target_max_utilization = 0.4 + 0.25 * static_cast<double>(GetParam() % 5);
  const auto tm = traffic::generate_gravity(topo, gp);
  const auto sol = te::Solver().solve(topo, tm);

  for (double r : sol.residual_capacity(topo)) EXPECT_GE(r, -1e-6);
  for (const auto& a : sol.allocations) {
    EXPECT_LE(a.allocated_gbps, a.demand.rate_gbps + 1e-6);
    for (const auto& wp : a.paths) {
      EXPECT_TRUE(wp.path.is_valid(topo));
      EXPECT_EQ(wp.path.src(topo), a.demand.src);
      EXPECT_EQ(wp.path.dst(topo), a.demand.dst);
      EXPECT_GT(wp.weight, 0.0);
      EXPECT_LE(wp.weight, 1.0 + 1e-9);
    }
  }
}

TEST_P(SolverPropertyTest, HigherClassNeverStarvedByLower) {
  // Strict priority: summed over the network, the high class's admitted
  // fraction is >= the low class's.
  const auto topo = topo::make_geant();
  traffic::GravityParams gp;
  gp.seed = GetParam() ^ 0xFACE;
  gp.target_max_utilization = 1.6;  // force scarcity
  const auto tm = traffic::generate_gravity(topo, gp);
  const auto sol = te::Solver().solve(topo, tm);
  double offered[metrics::kNumPriorityClasses] = {};
  double admitted[metrics::kNumPriorityClasses] = {};
  for (const auto& a : sol.allocations) {
    offered[static_cast<int>(a.demand.priority)] += a.demand.rate_gbps;
    admitted[static_cast<int>(a.demand.priority)] += a.allocated_gbps;
  }
  const double high_frac = admitted[0] / offered[0];
  const double low_frac = admitted[2] / offered[2];
  EXPECT_GE(high_frac + 1e-9, low_frac);
}

TEST_P(SolverPropertyTest, CacheNeverChangesFeasibility) {
  // The table-backed solve is the search-only solve, bit for bit.
  const auto topo = topo::make_abilene();
  traffic::GravityParams gp;
  gp.seed = GetParam();
  const auto tm = traffic::generate_gravity(topo, gp);
  const auto sol = te::Solver().solve(topo, tm);
  for (double r : sol.residual_capacity(topo)) EXPECT_GE(r, -1e-6);
  te::SolverOptions search_only;
  search_only.path_table = false;
  const auto plain = te::Solver(search_only).solve(topo, tm);
  ASSERT_EQ(sol.allocations.size(), plain.allocations.size());
  for (std::size_t i = 0; i < sol.allocations.size(); ++i) {
    const te::Allocation& a = sol.allocations[i];
    const te::Allocation& b = plain.allocations[i];
    EXPECT_EQ(a.allocated_gbps, b.allocated_gbps) << "demand " << i;
    ASSERT_EQ(a.paths.size(), b.paths.size()) << "demand " << i;
    for (std::size_t p = 0; p < a.paths.size(); ++p) {
      EXPECT_EQ(a.paths[p].path, b.paths[p].path) << "demand " << i;
      EXPECT_EQ(a.paths[p].weight, b.paths[p].weight) << "demand " << i;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SolverPropertyTest,
                         ::testing::Range<std::uint64_t>(1, 9));

// ---------- k-shortest-path properties ----------

class KspPropertyTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(KspPropertyTest, PathsSortedDistinctLoopless) {
  const auto topo = topo::make_cogentco();
  util::Rng rng(GetParam());
  for (int trial = 0; trial < 6; ++trial) {
    const auto s = static_cast<topo::NodeId>(
        rng.uniform_int(0, static_cast<std::int64_t>(topo.num_nodes()) - 1));
    const auto d = static_cast<topo::NodeId>(
        rng.uniform_int(0, static_cast<std::int64_t>(topo.num_nodes()) - 1));
    if (s == d) continue;
    const auto paths = te::k_shortest_paths(topo, s, d, 6);
    ASSERT_FALSE(paths.empty());
    std::set<std::vector<topo::LinkId>> seen;
    double last_cost = 0;
    for (const auto& p : paths) {
      EXPECT_TRUE(p.is_valid(topo));
      EXPECT_EQ(p.src(topo), s);
      EXPECT_EQ(p.dst(topo), d);
      EXPECT_TRUE(seen.insert(p.links).second);
      EXPECT_GE(p.igp_cost(topo) + 1e-9, last_cost);
      last_cost = p.igp_cost(topo);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, KspPropertyTest,
                         ::testing::Values(3, 17, 31));

// ---------- Sublabel properties over random graphs ----------

class SublabelPropertyTest : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(SublabelPropertyTest, RandomGraphLabelingLocallyUnique) {
  topo::detail::GeoNetworkParams params;
  params.n_nodes = 60;
  params.n_hubs = 12;
  params.extra_core_chords = 10;
  params.seed = GetParam();
  const auto topo = topo::detail::make_geo_network(params);
  const auto a = dataplane::assign_sublabels(topo);
  for (const auto& n : topo.nodes()) {
    std::set<dataplane::Sublabel> seen;
    for (auto l : n.in_links) EXPECT_TRUE(seen.insert(a.link_sublabel[l]).second);
    for (auto l : n.out_links) EXPECT_TRUE(seen.insert(a.link_sublabel[l]).second);
  }
  // Tables build without ambiguity on every router.
  for (topo::NodeId n = 0; n < topo.num_nodes(); ++n) {
    EXPECT_NO_THROW(dataplane::SublabelFib::build(topo, n, a));
  }
}

TEST_P(SublabelPropertyTest, EncodedPathsForwardToIntendedEgress) {
  topo::detail::GeoNetworkParams params;
  params.n_nodes = 40;
  params.n_hubs = 10;
  params.seed = GetParam() ^ 0xABCD;
  const auto topo = topo::detail::make_geo_network(params);
  const auto a = dataplane::assign_sublabels(topo);
  std::vector<dataplane::SublabelFib> fibs;
  for (topo::NodeId n = 0; n < topo.num_nodes(); ++n)
    fibs.push_back(dataplane::SublabelFib::build(topo, n, a));

  util::Rng rng(GetParam());
  for (int trial = 0; trial < 25; ++trial) {
    const auto s = static_cast<topo::NodeId>(
        rng.uniform_int(0, static_cast<std::int64_t>(topo.num_nodes()) - 1));
    const auto d = static_cast<topo::NodeId>(
        rng.uniform_int(0, static_cast<std::int64_t>(topo.num_nodes()) - 1));
    if (s == d) continue;
    const auto p = te::shortest_path(topo, s, d);
    if (!p) continue;
    const auto r = dataplane::forward_sublabel(
        topo, fibs, s, dataplane::encode_sublabel_route(*p, a));
    EXPECT_TRUE(r.delivered);
    EXPECT_EQ(r.final_node, d);
    EXPECT_EQ(r.hops, p->hops());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SublabelPropertyTest,
                         ::testing::Values(0x11, 0x22, 0x33, 0x44));

// ---------- Consensus-free convergence over random failures ----------

class EmulationPropertyTest : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(EmulationPropertyTest, ViewsAndDeliveryConvergeAfterRandomFailures) {
  auto topo = topo::make_geant();
  traffic::GravityParams gp;
  gp.pair_fraction = 0.3;
  gp.seed = GetParam();
  auto tm = traffic::generate_gravity(topo, gp);
  sim::DsdnEmulation emu(topo, tm);
  emu.bootstrap();

  // Fail two random (connectivity-preserving) fibers, then repair one.
  const auto fibers =
      sim::pick_failure_fibers(emu.network(), 2, GetParam());
  for (topo::LinkId f : fibers) emu.fail_fiber(f);
  EXPECT_TRUE(emu.views_converged());
  if (!fibers.empty()) emu.repair_fiber(fibers.front());
  EXPECT_TRUE(emu.views_converged());

  // Sample deliveries over pairs that actually have measured demand (a
  // headend only programs routes for demands it carries); they must still
  // deliver despite the failures.
  util::Rng rng(GetParam() ^ 0x77);
  const auto& demands = emu.demands().demands();
  for (int trial = 0; trial < 20; ++trial) {
    const auto& dem = rng.pick(demands);
    const auto r =
        emu.send_packet(dem.src, emu.address_of(dem.dst), dem.priority);
    EXPECT_EQ(r.outcome, dataplane::ForwardOutcome::kDelivered)
        << dem.src << "->" << dem.dst << ": "
        << dataplane::forward_outcome_name(r.outcome);
    EXPECT_EQ(r.final_node, dem.dst);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, EmulationPropertyTest,
                         ::testing::Values(5, 6, 7));

// ---------- Loss-evaluation properties ----------

class LossPropertyTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(LossPropertyTest, LossBoundedAndMonotoneInDemand) {
  const auto topo = topo::make_abilene();
  traffic::GravityParams gp;
  gp.seed = GetParam();
  gp.target_max_utilization = 0.8;
  const auto tm = traffic::generate_gravity(topo, gp);
  const auto sol = te::Solver().solve(topo, tm);
  const auto routing = sim::InstalledRouting::from_solution(sol);

  const auto r1 = sim::evaluate_loss(topo, tm, routing);
  for (double l : r1.loss) {
    EXPECT_GE(l, 0.0);
    EXPECT_LE(l, 1.0);
  }
  // Scaling offered traffic (same routing) cannot reduce any loss.
  const auto heavier = tm.scaled(2.0);
  const auto r2 = sim::evaluate_loss(topo, heavier, routing);
  double mean1 = 0, mean2 = 0;
  for (double l : r1.loss) mean1 += l;
  for (double l : r2.loss) mean2 += l;
  EXPECT_GE(mean2 + 1e-9, mean1);
}

INSTANTIATE_TEST_SUITE_P(Seeds, LossPropertyTest, ::testing::Values(1, 2, 3));

}  // namespace
}  // namespace dsdn
