#include <gtest/gtest.h>

#include "core/controller.hpp"
#include "core/upgrade.hpp"
#include "te/dijkstra.hpp"
#include "topo/synthetic.hpp"
#include "topo/zoo.hpp"
#include "traffic/gravity.hpp"

namespace dsdn::core {
namespace {

using metrics::PriorityClass;

TEST(UpgradeTlv, RoundTrips) {
  NodeStateUpdate nsu;
  nsu.origin = 3;
  nsu.seq = 1;
  nsu.tlvs.push_back(make_algorithm_tlv(PathingAlgorithm::kShortestPath));
  EXPECT_EQ(validate_nsu(nsu), NsuValidity::kValid);
  EXPECT_EQ(parse_algorithm_tlv(nsu), PathingAlgorithm::kShortestPath);
}

TEST(UpgradeTlv, AbsentOrGarbledIsNullopt) {
  NodeStateUpdate none;
  EXPECT_FALSE(parse_algorithm_tlv(none).has_value());
  NodeStateUpdate garbled;
  garbled.tlvs.push_back({kAlgorithmTlvType, "xx"});  // wrong length
  EXPECT_FALSE(parse_algorithm_tlv(garbled).has_value());
  NodeStateUpdate bogus;
  bogus.tlvs.push_back({kAlgorithmTlvType, std::string(1, '\x7f')});
  EXPECT_FALSE(parse_algorithm_tlv(bogus).has_value());
  NodeStateUpdate other_type;
  other_type.tlvs.push_back({0x1234, std::string(1, '\x01')});
  EXPECT_FALSE(parse_algorithm_tlv(other_type).has_value());
}

TEST(UpgradeTlv, StateDbMapUsesFallbackForSilentRouters) {
  const auto topo = topo::make_ring(4);
  StateDb db(topo);
  NodeStateUpdate legacy;
  legacy.origin = 2;
  legacy.seq = 1;
  legacy.tlvs.push_back(make_algorithm_tlv(PathingAlgorithm::kShortestPath));
  db.apply(legacy);
  const auto map = algorithm_map_from_state(db);
  EXPECT_EQ(map[0], PathingAlgorithm::kMaxMinFairTe);  // fallback
  EXPECT_EQ(map[2], PathingAlgorithm::kShortestPath);
}

TEST(MixedSolver, AllTeMatchesStockSolver) {
  const auto topo = topo::make_geant();
  const auto tm = traffic::generate_gravity(topo);
  MixedAlgorithmSolver mixed(
      [](topo::NodeId) { return PathingAlgorithm::kMaxMinFairTe; });
  const auto a = mixed.solve(topo, tm, nullptr);
  const auto b = te::Solver().solve(topo, tm);
  ASSERT_EQ(a.allocations.size(), b.allocations.size());
  for (std::size_t i = 0; i < a.allocations.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.allocations[i].allocated_gbps,
                     b.allocations[i].allocated_gbps);
  }
}

TEST(MixedSolver, LegacyRouterDemandsPinnedToShortestPath) {
  const auto topo = topo::make_geant();
  const auto tm = traffic::generate_gravity(topo).aggregated();
  const topo::NodeId legacy_router = 4;
  MixedAlgorithmSolver mixed([&](topo::NodeId n) {
    return n == legacy_router ? PathingAlgorithm::kShortestPath
                              : PathingAlgorithm::kMaxMinFairTe;
  });
  const auto sol = mixed.solve(topo, tm, nullptr);
  for (const auto& a : sol.allocations) {
    if (a.demand.src != legacy_router) continue;
    ASSERT_EQ(a.paths.size(), 1u) << "legacy demand must be single-path";
    const auto sp = te::shortest_path(topo, a.demand.src, a.demand.dst);
    ASSERT_TRUE(sp.has_value());
    EXPECT_EQ(a.paths[0].path, *sp);
    EXPECT_DOUBLE_EQ(a.allocated_gbps, a.demand.rate_gbps);
  }
}

TEST(MixedSolver, TeTrafficAvoidsCapacityConsumedByLegacy) {
  // Two demands share a 10G bottleneck a->b; the legacy router's demand
  // is pinned there, so the TE demand must route around (or shrink).
  topo::Topology topo;
  const auto a = topo.add_node("a", "ma");
  const auto b = topo.add_node("b", "mb");
  const auto c = topo.add_node("c", "mc");
  const auto d = topo.add_node("d", "md");
  topo.add_duplex(a, b, 10, 1.0);   // shortest a->b
  topo.add_duplex(a, c, 10, 2.0);
  topo.add_duplex(c, b, 10, 2.0);
  topo.add_duplex(d, a, 10, 1.0);   // d's traffic enters via a
  traffic::TrafficMatrix tm;
  tm.add({d, b, PriorityClass::kHigh, 8.0});  // legacy (via a, then a->b)
  tm.add({a, b, PriorityClass::kHigh, 8.0});  // TE
  MixedAlgorithmSolver mixed([&](topo::NodeId n) {
    return n == d ? PathingAlgorithm::kShortestPath
                  : PathingAlgorithm::kMaxMinFairTe;
  });
  const auto sol = mixed.solve(topo, tm, nullptr);
  // The TE demand found only 2G left on a->b; most must detour via c.
  const auto& te_alloc = sol.allocations[1];
  EXPECT_NEAR(te_alloc.allocated_gbps, 8.0, 0.1);
  double via_c = 0.0;
  for (const auto& wp : te_alloc.paths) {
    if (wp.path.node_sequence(topo) ==
        std::vector<topo::NodeId>({a, c, b})) {
      via_c += wp.weight;
    }
  }
  EXPECT_GT(via_c, 0.5);
}

TEST(MixedSolver, ConsensusAcrossMixedControllers) {
  // The rollout invariant: a legacy router's own shortest-path choice is
  // exactly what upgraded routers predict for it, so the union of
  // everyone's own rows is one coherent placement.
  const auto topo = topo::make_abilene();
  traffic::GravityParams gp;
  gp.pair_fraction = 0.5;
  const auto tm = traffic::generate_gravity(topo, gp).aggregated();
  const topo::NodeId legacy_router = 7;
  auto algo_of = [&](topo::NodeId n) {
    return n == legacy_router ? PathingAlgorithm::kShortestPath
                              : PathingAlgorithm::kMaxMinFairTe;
  };
  MixedAlgorithmSolver upgraded(algo_of);
  const auto prediction = upgraded.solve(topo, tm, nullptr);
  // What the legacy router actually installs for itself:
  for (const auto& alloc : prediction.allocations) {
    if (alloc.demand.src != legacy_router || alloc.paths.empty()) continue;
    const auto own = te::shortest_path(topo, alloc.demand.src,
                                       alloc.demand.dst);
    ASSERT_TRUE(own.has_value());
    EXPECT_EQ(alloc.paths[0].path, *own);
  }
}

TEST(MixedSolver, PluggedIntoControllerViaSolveApi) {
  const auto topo = topo::make_ring(4);
  traffic::TrafficMatrix tm;
  tm.add({0, 2, PriorityClass::kHigh, 1.0});
  const auto prefixes = topo::assign_router_prefixes(topo);
  SimTelemetry telemetry(&topo, &tm, prefixes);

  ControllerConfig cc;
  cc.self = 0;
  Controller controller(cc, topo);
  controller.set_solve_api(std::make_unique<MixedAlgorithmSolver>(
      [](topo::NodeId n) {
        return n == 1 ? PathingAlgorithm::kShortestPath
                      : PathingAlgorithm::kMaxMinFairTe;
      }));
  controller.originate(telemetry);
  const auto result = controller.recompute();
  EXPECT_EQ(result.own_allocations, 1u);
  EXPECT_GT(result.encap.routes_installed, 0u);
}

// A mixed-fleet member advertises its algorithm and installs the
// node-segment FIB once its view's algorithm TLVs show an SR member; a
// router outside a mixed fleet advertises none and installs none.
TEST(MixedSolver, SegmentFibFollowsTheViewsAlgorithmTlvs) {
  const auto topo = topo::make_ring(4);
  traffic::TrafficMatrix tm;
  tm.add({0, 2, PriorityClass::kHigh, 1.0});
  const auto prefixes = topo::assign_router_prefixes(topo);
  SimTelemetry telemetry(&topo, &tm, prefixes);

  ControllerConfig cc;
  cc.self = 0;
  cc.algorithm = PathingAlgorithm::kMaxMinFairTe;
  Controller member(cc, topo);
  EXPECT_EQ(parse_algorithm_tlv(member.originate(telemetry).nsu),
            PathingAlgorithm::kMaxMinFairTe);
  EXPECT_EQ(member.recompute().sr.targets, 0u);

  ControllerConfig sr_cc;
  sr_cc.self = 2;
  sr_cc.algorithm = PathingAlgorithm::kSegmentRouting;
  Controller sr_router(sr_cc, topo);
  const NodeStateUpdate sr_nsu = sr_router.originate(telemetry).nsu;
  EXPECT_EQ(parse_algorithm_tlv(sr_nsu), PathingAlgorithm::kSegmentRouting);
  member.handle_nsu(sr_nsu, topo::kInvalidLink);
  EXPECT_EQ(member.recompute().sr.targets, topo.num_nodes() - 1);

  ControllerConfig plain;
  plain.self = 1;
  Controller outside(plain, topo);
  EXPECT_FALSE(parse_algorithm_tlv(outside.originate(telemetry).nsu));
  outside.handle_nsu(sr_nsu, topo::kInvalidLink);
  EXPECT_EQ(outside.recompute().sr.targets, 0u);
}

}  // namespace
}  // namespace dsdn::core
