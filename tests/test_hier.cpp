#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <set>

#include "hier/solver.hpp"
#include "te/parallel_solver.hpp"
#include "topo/synthetic.hpp"
#include "topo/zoo.hpp"
#include "traffic/gravity.hpp"

namespace dsdn::hier {
namespace {

// Every node assigned, every region non-empty and connected over
// intra-region links, no metro split across regions.
void expect_partition_sane(const topo::Topology& topo,
                           const RegionPartition& part) {
  ASSERT_EQ(part.region_of.size(), topo.num_nodes());
  ASSERT_EQ(part.members.size(), part.n_regions);
  std::size_t total = 0;
  for (std::size_t r = 0; r < part.n_regions; ++r) {
    EXPECT_FALSE(part.members[r].empty()) << "region " << r;
    total += part.members[r].size();
    for (topo::NodeId n : part.members[r]) {
      EXPECT_EQ(part.region_of[n], r);
    }
    // Connectivity: BFS from the first member over intra-region links.
    std::set<topo::NodeId> seen{part.members[r].front()};
    std::vector<topo::NodeId> queue{part.members[r].front()};
    while (!queue.empty()) {
      topo::NodeId n = queue.back();
      queue.pop_back();
      for (topo::LinkId lid : topo.node(n).out_links) {
        const topo::Link& l = topo.link(lid);
        if (part.region_of[l.dst] != r || seen.count(l.dst)) continue;
        seen.insert(l.dst);
        queue.push_back(l.dst);
      }
    }
    EXPECT_EQ(seen.size(), part.members[r].size())
        << "region " << r << " disconnected";
  }
  EXPECT_EQ(total, topo.num_nodes());
  // Metro atomicity.
  std::map<std::string, std::uint32_t> metro_region;
  for (const topo::Node& n : topo.nodes()) {
    if (n.metro.empty()) continue;
    auto [it, inserted] = metro_region.emplace(n.metro, part.region_of[n.id]);
    EXPECT_EQ(it->second, part.region_of[n.id])
        << "metro " << n.metro << " split";
  }
}

TEST(Partition, B4RegionsAreConnectedMetroAtomicAndBalanced) {
  const auto topo = topo::make_b4_like();
  const auto part = partition_regions(topo);
  expect_partition_sane(topo, part);
  EXPECT_GE(part.n_regions, 2u);
  // Balance: largest region within ~3x of the smallest (farthest-first
  // seeds + capped growth; loose bound, metros are atomic).
  std::size_t lo = topo.num_nodes(), hi = 0;
  for (const auto& m : part.members) {
    lo = std::min(lo, m.size());
    hi = std::max(hi, m.size());
  }
  EXPECT_LE(hi, 3 * lo + 10);
}

TEST(Partition, DeterministicAndHonorsRequestedCount) {
  const auto topo = topo::make_b2_like({.scale = 0.25});
  PartitionOptions options;
  options.n_regions = 6;
  const auto a = partition_regions(topo, options);
  const auto b = partition_regions(topo, options);
  EXPECT_EQ(a.region_of, b.region_of);
  EXPECT_EQ(a.n_regions, 6u);
  expect_partition_sane(topo, a);
}

TEST(Partition, ZooTopologyWithoutMetrosDegradesToNodeGranularity) {
  const auto topo = topo::make_abilene();
  PartitionOptions options;
  options.n_regions = 3;
  const auto part = partition_regions(topo, options);
  expect_partition_sane(topo, part);
  EXPECT_EQ(part.n_regions, 3u);
}

TEST(Logical, AggregatesBorderCapacityAndTransit) {
  const auto topo = topo::make_b4_like();
  const auto part = partition_regions(topo);
  const auto logical = build_logical(topo, part);
  ASSERT_EQ(logical.graph.num_nodes(), part.n_regions);
  ASSERT_EQ(logical.members.size(), logical.graph.num_links());

  // Every logical link's capacity is the sum of its up members, and
  // members map back through logical_of.
  for (topo::LinkId ll = 0; ll < logical.graph.num_links(); ++ll) {
    double cap = 0.0;
    for (topo::LinkId m : logical.members[ll]) {
      EXPECT_TRUE(topo.link(m).up);
      EXPECT_EQ(logical.logical_of[m], ll);
      EXPECT_NE(part.region_of[topo.link(m).src],
                part.region_of[topo.link(m).dst]);
      cap += topo.link(m).capacity_gbps;
    }
    EXPECT_NEAR(logical.graph.link(ll).capacity_gbps, cap, 1e-9);
  }
  // Transit matrix: diagonal infinite, off-diagonal positive for borders
  // of a connected region.
  for (const LogicalNode& ln : logical.nodes) {
    for (std::size_t i = 0; i < ln.borders.size(); ++i) {
      EXPECT_TRUE(std::isinf(ln.transit(i, i)));
      for (std::size_t j = 0; j < ln.borders.size(); ++j) {
        if (i != j) {
          EXPECT_GT(ln.transit(i, j), 0.0);
        }
      }
    }
  }
}

TEST(Logical, DownedFiberLeavesTheLogicalView) {
  auto topo = topo::make_b4_like();
  const auto part = partition_regions(topo);
  const auto before = build_logical(topo, part);
  // Cut one inter-region fiber and rebuild.
  topo::LinkId cut = topo::kInvalidLink;
  for (const topo::Link& l : topo.links()) {
    if (part.region_of[l.src] != part.region_of[l.dst] &&
        l.reverse != topo::kInvalidLink && l.id < l.reverse) {
      cut = l.id;
      break;
    }
  }
  ASSERT_NE(cut, topo::kInvalidLink);
  topo.set_duplex_up(cut, false);
  const auto after = build_logical(topo, part);
  EXPECT_EQ(after.logical_of[cut], topo::kInvalidLink);
  // The affected logical link lost exactly that member's capacity (or
  // disappeared entirely).
  topo::LinkId ll = before.logical_of[cut];
  double lost = topo.link(cut).capacity_gbps;
  bool found = false;
  for (topo::LinkId al = 0; al < after.graph.num_links(); ++al) {
    if (after.graph.link(al).src == before.graph.link(ll).src &&
        after.graph.link(al).dst == before.graph.link(ll).dst) {
      EXPECT_NEAR(after.graph.link(al).capacity_gbps,
                  before.graph.link(ll).capacity_gbps - lost, 1e-9);
      found = true;
    }
  }
  if (!found) {
    EXPECT_NEAR(before.graph.link(ll).capacity_gbps, lost, 1e-9);
  }
}

class HierSolveTest : public ::testing::Test {
 protected:
  HierSolveTest() : topo_(topo::make_b4_like()) {
    traffic::GravityParams gp;
    gp.pair_fraction = 0.2;
    gp.seed = 0x41E5;
    tm_ = traffic::generate_gravity(topo_, gp).aggregated();
    hierarchy_ = build_hierarchy(topo_);
  }

  topo::Topology topo_;
  traffic::TrafficMatrix tm_;
  Hierarchy hierarchy_;
};

TEST_F(HierSolveTest, SolutionIsFeasibleOrderedAndWithinGapBound) {
  HierSolveStats stats;
  const auto hier = solve_hierarchical(topo_, tm_, hierarchy_, {}, &stats);
  const auto flat = te::Solver().solve(topo_, tm_);

  GapOptions gap_options;
  gap_options.max_gap_fraction = 0.25;  // B4 is small; bench gates 0.10 at B2+
  const auto report =
      check_optimality_gap(topo_, tm_, hier, flat, gap_options);
  for (const auto& v : report.violations) ADD_FAILURE() << v;
  EXPECT_TRUE(report.ok());
  EXPECT_GT(report.hier_total_gbps, 0.0);
  EXPECT_EQ(stats.n_regions, hierarchy_.partition.n_regions);
  EXPECT_GT(stats.segment_demands, 0u);
}

TEST_F(HierSolveTest, DeterministicAcrossRunsAndPoolSizes) {
  const auto a = solve_hierarchical(topo_, tm_, hierarchy_);
  te::ThreadPool pool(4);
  HierOptions options;
  options.pool = &pool;
  const auto b = solve_hierarchical(topo_, tm_, hierarchy_, options);
  ASSERT_EQ(a.allocations.size(), b.allocations.size());
  for (std::size_t i = 0; i < a.allocations.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.allocations[i].allocated_gbps,
                     b.allocations[i].allocated_gbps);
    EXPECT_EQ(a.allocations[i].paths, b.allocations[i].paths);
  }
}

TEST_F(HierSolveTest, GapHarnessCatchesPlantedViolations) {
  auto hier = solve_hierarchical(topo_, tm_, hierarchy_);
  const auto flat = te::Solver().solve(topo_, tm_);

  // Over-allocation past the demanded rate.
  auto broken = hier;
  std::size_t victim = 0;
  for (std::size_t i = 0; i < broken.allocations.size(); ++i) {
    if (broken.allocations[i].allocated_gbps > 0) {
      victim = i;
      break;
    }
  }
  broken.allocations[victim].allocated_gbps =
      broken.allocations[victim].demand.rate_gbps * 2.0;
  EXPECT_FALSE(check_optimality_gap(topo_, tm_, broken, flat).ok());

  // A path over a down link.
  auto stale = hier;
  topo::Topology cut_topo = topo_;
  topo::LinkId used = topo::kInvalidLink;
  for (const auto& a : stale.allocations) {
    if (!a.paths.empty() && !a.paths[0].path.empty()) {
      used = a.paths[0].path.links[0];
      break;
    }
  }
  ASSERT_NE(used, topo::kInvalidLink);
  cut_topo.set_duplex_up(used, false);
  EXPECT_FALSE(check_optimality_gap(cut_topo, tm_, stale, flat).ok());

  // Reordered allocations.
  auto shuffled = hier;
  ASSERT_GE(shuffled.allocations.size(), 2u);
  std::swap(shuffled.allocations[0], shuffled.allocations[1]);
  EXPECT_FALSE(check_optimality_gap(topo_, tm_, shuffled, flat).ok());
}

TEST(HierSolve, IntraRegionOnlyWorkloadSkipsTheTopSolve) {
  const auto topo = topo::make_b4_like();
  const auto hierarchy = build_hierarchy(topo);
  // Demands confined to one region.
  std::uint32_t r = 0;
  const auto& members = hierarchy.partition.members[r];
  ASSERT_GE(members.size(), 2u);
  traffic::TrafficMatrix tm;
  tm.add({members[0], members[1], metrics::PriorityClass::kHigh, 5.0});
  HierSolveStats stats;
  const auto sol = solve_hierarchical(topo, tm, hierarchy, {}, &stats);
  EXPECT_EQ(stats.logical_demands, 0u);
  ASSERT_EQ(sol.allocations.size(), 1u);
  EXPECT_NEAR(sol.allocations[0].allocated_gbps, 5.0, 1e-6);
  for (const auto& wp : sol.allocations[0].paths) {
    for (topo::LinkId l : wp.path.links) {
      EXPECT_EQ(hierarchy.partition.region_of[topo.link(l).src], r);
      EXPECT_EQ(hierarchy.partition.region_of[topo.link(l).dst], r);
    }
  }
}

}  // namespace
}  // namespace dsdn::hier
