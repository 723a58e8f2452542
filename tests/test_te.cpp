#include <gtest/gtest.h>

#include <memory>
#include <stdexcept>

#include "obs/metrics.hpp"
#include "te/dijkstra.hpp"
#include "te/incremental.hpp"
#include "te/ksp.hpp"
#include "te/path_cache.hpp"
#include "te/solver.hpp"
#include "te/thread_pool.hpp"
#include "te_reference.hpp"
#include "topo/builder.hpp"
#include "topo/synthetic.hpp"
#include "topo/zoo.hpp"
#include "traffic/gravity.hpp"

namespace dsdn::te {
namespace {

using metrics::PriorityClass;

topo::Topology diamond(double b_metric = 1.0, double c_metric = 2.0) {
  // a -> {b, c} -> d; by default the b branch is cheaper.
  topo::Topology t;
  const auto a = t.add_node("a");
  const auto b = t.add_node("b");
  const auto c = t.add_node("c");
  const auto d = t.add_node("d");
  t.add_duplex(a, b, 10, b_metric);
  t.add_duplex(b, d, 10, b_metric);
  t.add_duplex(a, c, 10, c_metric);
  t.add_duplex(c, d, 10, c_metric);
  return t;
}

void expect_same_solution(const Solution& a, const Solution& b) {
  ASSERT_EQ(a.allocations.size(), b.allocations.size());
  for (std::size_t i = 0; i < a.allocations.size(); ++i) {
    const Allocation& x = a.allocations[i];
    const Allocation& y = b.allocations[i];
    ASSERT_EQ(x.allocated_gbps, y.allocated_gbps) << "alloc " << i;
    ASSERT_EQ(x.paths.size(), y.paths.size()) << "alloc " << i;
    for (std::size_t p = 0; p < x.paths.size(); ++p) {
      ASSERT_EQ(x.paths[p].path, y.paths[p].path) << "alloc " << i;
      ASSERT_EQ(x.paths[p].weight, y.paths[p].weight) << "alloc " << i;
    }
  }
}

TEST(Dijkstra, FindsCheapestPath) {
  const auto t = diamond();
  const auto p = shortest_path(t, 0, 3);
  ASSERT_TRUE(p.has_value());
  EXPECT_EQ(p->node_sequence(t), (std::vector<topo::NodeId>{0, 1, 3}));
  EXPECT_DOUBLE_EQ(p->igp_cost(t), 2.0);
}

TEST(Dijkstra, RespectsDownLinks) {
  auto t = diamond();
  t.set_duplex_up(t.find_link(0, 1), false);
  const auto p = shortest_path(t, 0, 3);
  ASSERT_TRUE(p.has_value());
  EXPECT_EQ(p->node_sequence(t), (std::vector<topo::NodeId>{0, 2, 3}));
}

TEST(Dijkstra, ReturnsNulloptWhenDisconnected) {
  auto t = diamond();
  t.set_duplex_up(t.find_link(0, 1), false);
  t.set_duplex_up(t.find_link(0, 2), false);
  EXPECT_FALSE(shortest_path(t, 0, 3).has_value());
}

TEST(Dijkstra, CapacityConstraintDivertsPath) {
  const auto t = diamond();
  std::vector<double> residual(t.num_links(), 100.0);
  residual[t.find_link(0, 1)] = 0.5;  // cheap branch has no room
  SpConstraints c;
  c.residual_gbps = &residual;
  c.min_residual = 1.0;
  const auto p = shortest_path(t, 0, 3, c);
  ASSERT_TRUE(p.has_value());
  EXPECT_EQ(p->node_sequence(t), (std::vector<topo::NodeId>{0, 2, 3}));
}

TEST(Dijkstra, LinkAllowedMaskExcludes) {
  const auto t = diamond();
  std::vector<char> allowed(t.num_links(), 1);
  allowed[t.find_link(0, 1)] = 0;
  SpConstraints c;
  c.link_allowed = &allowed;
  const auto p = shortest_path(t, 0, 3, c);
  ASSERT_TRUE(p.has_value());
  EXPECT_EQ(p->node_sequence(t).at(1), 2u);
}

TEST(Dijkstra, RejectsSrcEqualsDst) {
  const auto t = diamond();
  EXPECT_THROW(shortest_path(t, 0, 0), std::invalid_argument);
}

TEST(Dijkstra, DistancesFromARoot) {
  // One-way ring a -> b -> c -> a: distances from a follow the ring
  // forward under the caller's link costs. (Distances *to* a target are
  // SrUnderlay's, tested with segment routing.)
  topo::Topology t;
  const auto a = t.add_node("a");
  const auto b = t.add_node("b");
  const auto c = t.add_node("c");
  t.add_link(a, b, 10);
  t.add_link(b, c, 10);
  t.add_link(c, a, 10);
  const std::vector<double> cost = {1.0, 2.0, 4.0};
  EXPECT_EQ(shortest_distances(t, a, cost),
            (std::vector<double>{0.0, 1.0, 3.0}));
}

TEST(Dijkstra, TreeMatchesPointQueries) {
  const auto t = topo::make_abilene();
  const auto tree = shortest_path_tree(t, 0);
  for (topo::NodeId d = 1; d < t.num_nodes(); ++d) {
    const auto p = shortest_path(t, 0, d);
    ASSERT_TRUE(p.has_value());
    EXPECT_DOUBLE_EQ(tree[d].igp_cost(t), p->igp_cost(t)) << "dst " << d;
  }
}

TEST(Dijkstra, ShortestPathMinimizesMetricNotDelay) {
  topo::Topology t;
  const auto a = t.add_node("a");
  const auto b = t.add_node("b");
  const auto c = t.add_node("c");
  t.add_duplex(a, b, 10, /*igp=*/1.0, /*delay=*/0.050);  // cheap but slow
  t.add_duplex(a, c, 10, 5.0, 0.001);
  t.add_duplex(c, b, 10, 5.0, 0.001);
  EXPECT_EQ(shortest_path(t, a, b)->hops(), 1u);
}

TEST(PathValidity, DetectsLoopsAndBreaks) {
  const auto t = diamond();
  Path good;
  good.links = {t.find_link(0, 1), t.find_link(1, 3)};
  EXPECT_TRUE(good.is_valid(t));
  Path broken;
  broken.links = {t.find_link(0, 1), t.find_link(2, 3)};  // discontinuous
  EXPECT_FALSE(broken.is_valid(t));
  Path looped;
  looped.links = {t.find_link(0, 1), t.find_link(1, 0)};  // returns to 0
  EXPECT_FALSE(looped.is_valid(t));
}

TEST(Ksp, ReturnsOrderedLooplessPaths) {
  const auto t = diamond();
  const auto paths = k_shortest_paths(t, 0, 3, 5);
  ASSERT_EQ(paths.size(), 2u);  // only two loopless routes exist
  EXPECT_LE(paths[0].igp_cost(t), paths[1].igp_cost(t));
  for (const auto& p : paths) EXPECT_TRUE(p.is_valid(t));
  EXPECT_NE(paths[0], paths[1]);
}

TEST(Ksp, RingHasExactlyTwoPaths) {
  const auto t = topo::make_ring(6);
  const auto paths = k_shortest_paths(t, 0, 3, 10);
  ASSERT_EQ(paths.size(), 2u);
  EXPECT_EQ(paths[0].hops() + paths[1].hops(), 6u);
}

TEST(Ksp, KZeroAndDisconnected) {
  const auto t = diamond();
  EXPECT_TRUE(k_shortest_paths(t, 0, 3, 0).empty());
  auto broken = t;
  broken.set_duplex_up(broken.find_link(0, 1), false);
  broken.set_duplex_up(broken.find_link(0, 2), false);
  EXPECT_TRUE(k_shortest_paths(broken, 0, 3, 4).empty());
}

TEST(Ksp, ProducesDistinctPathsOnRealTopology) {
  const auto t = topo::make_geant();
  const auto paths = k_shortest_paths(t, 0, 15, 8);
  EXPECT_GE(paths.size(), 3u);
  for (std::size_t i = 0; i < paths.size(); ++i) {
    EXPECT_TRUE(paths[i].is_valid(t));
    for (std::size_t j = i + 1; j < paths.size(); ++j) {
      EXPECT_NE(paths[i], paths[j]);
    }
    if (i > 0) {
      EXPECT_GE(paths[i].igp_cost(t), paths[i - 1].igp_cost(t));
    }
  }
}

traffic::TrafficMatrix single_demand(double rate) {
  traffic::TrafficMatrix tm;
  tm.add({0, 3, PriorityClass::kHigh, rate});
  return tm;
}

// ---- PathCache (Fig 15 table) ----

// The search-only solver every table-backed solve must reproduce.
Solution solve_without_table(const topo::Topology& t,
                             const traffic::TrafficMatrix& tm,
                             const std::vector<double>* residual = nullptr) {
  SolverOptions opt;
  opt.path_table = false;
  return Solver(opt).solve(t, tm, nullptr, residual);
}

std::uint64_t counter(const char* name) {
  const auto snap = obs::Registry::global().snapshot();
  const auto it = snap.counters.find(name);
  return it == snap.counters.end() ? std::uint64_t{0} : it->second;
}

// A table path that clears the sliver threshold is taken without a
// search; one that does not (here the b branch is saturated through
// residual_override) falls back to a search, which finds the c branch.
// Both solves equal the search-only solve.
TEST(PathCache, HitsWhenFeasibleMissesWhenNot) {
  const auto t = diamond();
  const auto tm = single_demand(5.0);

  SolveStats hit;
  const auto a = Solver().solve(t, tm, &hit);
  expect_same_solution(a, solve_without_table(t, tm));
  EXPECT_GT(hit.table_paths, 0u);
  EXPECT_EQ(hit.path_searches, 0u);
  ASSERT_EQ(a.allocations[0].paths.size(), 1u);
  EXPECT_EQ(a.allocations[0].paths[0].path.node_sequence(t).at(1), 1u);

  std::vector<double> residual(t.num_links(), 10.0);
  residual[t.find_link(0, 1)] = 0.0;  // table path now below threshold
  SolveStats miss;
  const auto b = Solver().solve(t, tm, &miss, &residual);
  expect_same_solution(b, solve_without_table(t, tm, &residual));
  EXPECT_EQ(miss.table_paths, 0u);
  EXPECT_GT(miss.path_searches, 0u);
  ASSERT_EQ(b.allocations[0].paths.size(), 1u);
  EXPECT_EQ(b.allocations[0].paths[0].path.node_sequence(t).at(1), 2u);
}

TEST(PathCache, SurvivesLinkLossAndRestoration) {
  // One Solver keeps its table across full loss and restoration (§5.3):
  // link state is not part of the key, so nothing is rebuilt. With the b
  // branch down the table path a->b->d crosses a down link, and the
  // pair's detour row (a->c->d over the up links) answers instead of a
  // search.
  auto t = diamond();
  const Solver solver;
  const auto tm = single_demand(5.0);
  const topo::LinkId fiber = t.find_link(0, 1);
  solver.solve(t, tm);
  const std::uint64_t builds = counter("te.table.builds");

  t.set_duplex_up(fiber, false);
  SolveStats down_stats;
  const auto down = solver.solve(t, tm, &down_stats);
  expect_same_solution(down, solve_without_table(t, tm));
  EXPECT_GT(down_stats.table_paths, 0u);
  EXPECT_EQ(down_stats.path_searches, 0u);
  ASSERT_EQ(down.allocations[0].paths.size(), 1u);
  EXPECT_EQ(down.allocations[0].paths[0].path.node_sequence(t).at(1), 2u);

  t.set_duplex_up(fiber, true);
  SolveStats up_stats;
  const auto up = solver.solve(t, tm, &up_stats);
  expect_same_solution(up, solve_without_table(t, tm));
  EXPECT_GT(up_stats.table_paths, 0u);
  EXPECT_EQ(up_stats.path_searches, 0u);
  ASSERT_EQ(up.allocations[0].paths.size(), 1u);
  EXPECT_EQ(up.allocations[0].paths[0].path.node_sequence(t).at(1), 1u);
  EXPECT_EQ(counter("te.table.builds"), builds);
}

// Table paths are te::shortest_path over every link, up or down, for
// every ordered pair -- also when the table is built with links down.
TEST(PathCache, TablePathsAreStateObliviousShortestPaths) {
  SpConstraints every_link;
  every_link.require_up = false;
  for (auto t : {topo::make_abilene(), topo::make_geant(),
                 topo::make_b4_like()}) {
    for (int cuts = 0; cuts <= 2; cuts += 2) {
      for (int k = 0; k < cuts; ++k)
        t.set_duplex_up(static_cast<topo::LinkId>(4 * k + 1), false);
      const PathCache cache(t);
      for (topo::NodeId s = 0; s < t.num_nodes(); ++s) {
        ASSERT_EQ(cache.row(s).size(), t.num_nodes());
        EXPECT_EQ(cache.row(s)[s], topo::kInvalidLink);
        for (topo::NodeId d = 0; d < t.num_nodes(); ++d) {
          if (s == d) continue;
          const auto want = shortest_path(t, s, d, every_link);
          ASSERT_TRUE(want.has_value());
          ASSERT_EQ(cache.path(s, d), *want)
              << t.num_nodes() << " nodes, " << cuts << " cuts, " << s
              << " -> " << d;
        }
      }
    }
  }
}

// Detour rows are te::shortest_path over the up links for every ordered
// pair (nothing for an unreachable one), with one and with three fibers
// down; one link state of one table hands out one DetourTable.
TEST(PathCache, DetourRowsAreUpLinkShortestPaths) {
  for (auto t : {topo::make_abilene(), topo::make_geant(),
                 topo::make_b4_like()}) {
    std::shared_ptr<const DetourTable> previous;
    for (int cuts = 1; cuts <= 3; cuts += 2) {
      for (int k = 0; k < cuts; ++k)
        t.set_duplex_up(static_cast<topo::LinkId>(4 * k + 1), false);
      const auto table = PathCache::of(t);
      const auto detours = table->detours(t);
      EXPECT_EQ(table->detours(t), detours);
      EXPECT_NE(detours, previous);
      EXPECT_TRUE(detours->matches(*table, t));
      std::vector<topo::LinkId> scratch;
      for (topo::NodeId s = 0; s < t.num_nodes(); ++s) {
        const auto row = detours->row(s, scratch);
        EXPECT_TRUE(scratch.empty());  // nobody else was filling it
        ASSERT_EQ(row.size(), t.num_nodes());
        EXPECT_EQ(row[s], topo::kInvalidLink);
        for (topo::NodeId d = 0; d < t.num_nodes(); ++d) {
          if (s == d) continue;
          Path walked;
          for (topo::NodeId at = d; at != s && row[at] != topo::kInvalidLink;
               at = t.link(row[at]).src)
            walked.links.insert(walked.links.begin(), row[at]);
          const auto want = shortest_path(t, s, d);
          if (!want) {
            EXPECT_EQ(row[d], topo::kInvalidLink) << s << " -> " << d;
            continue;
          }
          ASSERT_EQ(walked, *want) << t.num_nodes() << " nodes, " << cuts
                                   << " cuts, " << s << " -> " << d;
        }
      }
      previous = detours;
    }
    t.set_duplex_up(1, true);
    EXPECT_FALSE(previous->matches(*PathCache::of(t), t));
  }
}

// The routers of a converged fleet solve one link state: the first solve
// fills the detour rows it needs and a second Solver of that state fills
// none, with the same table paths; both equal the search-only solve at
// 130% load (detours and searches both run). The table's slot keeps
// nothing alive: once both Solvers die, so do the rows.
TEST(PathCache, SolversOfOneLinkStateShareDetourRows) {
  auto t = topo::make_b4_like();
  traffic::GravityParams gp;
  gp.target_max_utilization = 1.3;
  const auto tm = traffic::generate_gravity(t, gp);
  for (topo::LinkId fiber : {1u, 5u, 9u, 13u}) t.set_duplex_up(fiber, false);
  const Solution want = solve_without_table(t, tm);

  std::weak_ptr<const DetourTable> seen;
  {
    const std::uint64_t rows = counter("te.table.detour_rows");
    const Solver first;
    SolveStats first_stats;
    expect_same_solution(first.solve(t, tm, &first_stats), want);
    const std::uint64_t filled = counter("te.table.detour_rows") - rows;
    EXPECT_GT(filled, 0u);
    EXPECT_LE(filled, t.num_nodes());
    EXPECT_GT(first_stats.path_searches, 0u);

    const Solver second;
    SolveStats second_stats;
    expect_same_solution(second.solve(t, tm, &second_stats), want);
    EXPECT_EQ(counter("te.table.detour_rows") - rows, filled);
    EXPECT_EQ(second_stats.table_paths, first_stats.table_paths);
    EXPECT_EQ(second_stats.path_searches, first_stats.path_searches);
    seen = PathCache::of(t)->detours(t);
  }
  EXPECT_TRUE(seen.expired());
}

// Regression: a table built before a metric change used to be used
// silently -- built on diamond(1, 2) and used on diamond(5, 1), it routed
// a->b->d where the search-only solve routes a->c->d. A table is now
// matched by its exact key, so one Solver solving both topologies in
// turn refetches the table each time and matches the search-only solve
// on both. Capacity and up/down changes keep the key.
TEST(PathCache, SolverRefetchesTableWhenMetricsChange) {
  const auto before = diamond(/*b_metric=*/1.0, /*c_metric=*/2.0);
  const auto after = diamond(/*b_metric=*/5.0, /*c_metric=*/1.0);
  const auto tm = single_demand(5.0);
  const Solver solver;
  for (int pass = 0; pass < 2; ++pass) {
    for (const topo::Topology* t : {&before, &after}) {
      SolveStats stats;
      const auto sol = solver.solve(*t, tm, &stats);
      expect_same_solution(sol, solve_without_table(*t, tm));
      EXPECT_GT(stats.table_paths, 0u);
      EXPECT_EQ(stats.path_searches, 0u);
      ASSERT_EQ(sol.allocations[0].paths.size(), 1u);
      EXPECT_EQ(sol.allocations[0].paths[0].path.node_sequence(*t).at(1),
                t == &before ? 1u : 2u)
          << "pass " << pass;
    }
  }
  EXPECT_TRUE(PathCache::of(after)->matches(after));
  EXPECT_FALSE(PathCache::of(after)->matches(before));

  auto degraded = before;
  degraded.set_duplex_up(degraded.find_link(0, 1), false);
  auto resized = before;
  resized.set_duplex_capacity(resized.find_link(0, 2), 40.0);
  EXPECT_TRUE(PathCache::of(before)->matches(degraded));
  EXPECT_TRUE(PathCache::of(before)->matches(resized));
}

// While a Solver holds a table, temporaries on the same topology -- a
// fresh Solver, DiffChecker::check's reference solve -- build nothing.
TEST(PathCache, HeldTableServesTemporariesWithoutABuild) {
  const auto t = topo::make_geant();
  const auto tm = traffic::generate_gravity(t);
  const Solver router;
  const auto sol = router.solve(t, tm);
  EXPECT_GT(router.path_table_bytes(), 0u);
  const std::uint64_t builds = counter("te.table.builds");
  SolveStats stats;
  expect_same_solution(Solver().solve(t, tm, &stats), sol);
  EXPECT_GT(stats.table_paths, 0u);
  EXPECT_TRUE(DiffChecker::check(t, tm, sol).ok());
  EXPECT_EQ(counter("te.table.builds") - builds, 0u);
  EXPECT_EQ(PathCache::of(t)->bytes(), router.path_table_bytes());
}

// The registry holds no table alive: once the last holder dies the table
// is freed, the next solve builds it again, and the expired entry is
// pruned on that insert. No other test in this binary keeps a table alive
// past its own end, so every other entry is expired here too.
TEST(PathCache, RegistryKeepsNothingAliveAndPrunesOnInsert) {
  const auto t = topo::make_abilene();
  const auto tm = traffic::generate_gravity(t);
  std::weak_ptr<const PathCache> seen;
  {
    const Solver holder;
    holder.solve(t, tm);
    seen = PathCache::of(t);
    EXPECT_FALSE(seen.expired());
    const Solver copy = holder;  // copies share the table
    EXPECT_EQ(copy.path_table_bytes(), holder.path_table_bytes());
  }
  EXPECT_TRUE(seen.expired());
  EXPECT_GE(PathCache::interned(), 1u);

  const std::uint64_t builds = counter("te.table.builds");
  const Solver again;
  again.solve(t, tm);
  EXPECT_EQ(counter("te.table.builds") - builds, 1u);
  EXPECT_EQ(PathCache::interned(), 1u);
}

// ---- Solver ----

TEST(Solver, SatisfiableDemandFullyAllocated) {
  const auto t = diamond();
  Solver solver;
  const auto sol = solver.solve(t, single_demand(5.0));
  ASSERT_EQ(sol.allocations.size(), 1u);
  EXPECT_NEAR(sol.allocations[0].allocated_gbps, 5.0, 1e-6);
  ASSERT_FALSE(sol.allocations[0].paths.empty());
  for (const auto& wp : sol.allocations[0].paths) {
    EXPECT_TRUE(wp.path.is_valid(t));
    EXPECT_EQ(wp.path.src(t), 0u);
    EXPECT_EQ(wp.path.dst(t), 3u);
  }
}

TEST(Solver, OverloadSplitsAcrossParallelPaths) {
  const auto t = diamond();  // 10G per branch
  Solver solver;
  const auto sol = solver.solve(t, single_demand(15.0));
  EXPECT_NEAR(sol.allocations[0].allocated_gbps, 15.0, 1e-6);
  EXPECT_GE(sol.allocations[0].paths.size(), 2u);
  // No link oversubscribed.
  for (double r : sol.residual_capacity(t)) EXPECT_GE(r, -1e-6);
}

TEST(Solver, CapsAtNetworkCapacity) {
  const auto t = diamond();
  Solver solver;
  const auto sol = solver.solve(t, single_demand(50.0));
  // Both branches total 20G.
  EXPECT_NEAR(sol.allocations[0].allocated_gbps, 20.0, 0.1);
  for (double r : sol.residual_capacity(t)) EXPECT_GE(r, -1e-6);
}

TEST(Solver, MaxMinFairWithinClass) {
  // Two equal-priority demands share one 10G bottleneck: ~5G each.
  const auto t = topo::make_line(2, 10.0);
  traffic::TrafficMatrix tm;
  tm.add({0, 1, PriorityClass::kHigh, 20.0});
  tm.add({0, 1, PriorityClass::kHigh, 20.0});
  Solver solver;
  const auto sol = solver.solve(t, tm);
  EXPECT_NEAR(sol.allocations[0].allocated_gbps, 5.0, 0.8);
  EXPECT_NEAR(sol.allocations[1].allocated_gbps, 5.0, 0.8);
  EXPECT_NEAR(sol.total_allocated_gbps(), 10.0, 1e-6);
}

TEST(Solver, MaxMinSmallDemandSatisfiedFirst) {
  // Max-min: a 1G demand is fully served; the elephant gets the rest.
  const auto t = topo::make_line(2, 10.0);
  traffic::TrafficMatrix tm;
  tm.add({0, 1, PriorityClass::kHigh, 1.0});
  tm.add({0, 1, PriorityClass::kHigh, 100.0});
  Solver solver;
  const auto sol = solver.solve(t, tm);
  EXPECT_NEAR(sol.allocations[0].allocated_gbps, 1.0, 0.05);
  EXPECT_NEAR(sol.allocations[1].allocated_gbps, 9.0, 0.05);
}

TEST(Solver, StrictPriorityAcrossClasses) {
  // High-priority demand takes the bottleneck before low priority.
  const auto t = topo::make_line(2, 10.0);
  traffic::TrafficMatrix tm;
  tm.add({0, 1, PriorityClass::kLow, 10.0});
  tm.add({0, 1, PriorityClass::kHigh, 8.0});
  Solver solver;
  const auto sol = solver.solve(t, tm);
  EXPECT_NEAR(sol.allocations[1].allocated_gbps, 8.0, 1e-6);
  EXPECT_NEAR(sol.allocations[0].allocated_gbps, 2.0, 0.05);
}

TEST(Solver, DeterministicAcrossRuns) {
  const auto t = topo::make_geant();
  const auto tm = traffic::generate_gravity(t);
  Solver solver;
  const auto a = solver.solve(t, tm);
  const auto b = solver.solve(t, tm);
  ASSERT_EQ(a.allocations.size(), b.allocations.size());
  for (std::size_t i = 0; i < a.allocations.size(); ++i) {
    EXPECT_EQ(a.allocations[i].paths.size(), b.allocations[i].paths.size());
    EXPECT_DOUBLE_EQ(a.allocations[i].allocated_gbps,
                     b.allocations[i].allocated_gbps);
    for (std::size_t p = 0; p < a.allocations[i].paths.size(); ++p) {
      EXPECT_EQ(a.allocations[i].paths[p].path,
                b.allocations[i].paths[p].path);
      EXPECT_DOUBLE_EQ(a.allocations[i].paths[p].weight,
                       b.allocations[i].paths[p].weight);
    }
  }
}

TEST(Solver, ParallelMatchesSerial) {
  // The consensus-free property requires identical output regardless of
  // thread count (path search is parallel, allocation serialized).
  const auto t = topo::make_geant();
  const auto tm = traffic::generate_gravity(t);
  ThreadPool pool(4);
  SolverOptions serial;
  SolverOptions parallel;
  parallel.pool = &pool;
  const auto a = Solver(serial).solve(t, tm);
  const auto b = Solver(parallel).solve(t, tm);
  ASSERT_EQ(a.allocations.size(), b.allocations.size());
  for (std::size_t i = 0; i < a.allocations.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.allocations[i].allocated_gbps,
                     b.allocations[i].allocated_gbps);
  }
}

TEST(Solver, CachedSolveRemainsFeasibleAndComplete) {
  // Table paths are taken only where a search would return them, so the
  // table-backed solve is the search-only one bit for bit.
  const auto t = topo::make_geant();
  const auto tm = traffic::generate_gravity(t);
  SolveStats stats;
  const auto cached = Solver().solve(t, tm, &stats);
  const auto plain = solve_without_table(t, tm);
  expect_same_solution(cached, plain);
  for (double r : cached.residual_capacity(t)) EXPECT_GE(r, -1e-6);
  EXPECT_GT(stats.table_paths, 0u);
}

TEST(Solver, WeightsSumToOnePerDemand) {
  const auto t = topo::make_abilene();
  const auto tm = traffic::generate_gravity(t);
  const auto sol = Solver().solve(t, tm);
  for (const auto& a : sol.allocations) {
    if (a.allocated_gbps <= 0) continue;
    double w = 0;
    for (const auto& wp : a.paths) w += wp.weight;
    EXPECT_NEAR(w, 1.0, 1e-6);
  }
}

TEST(Solver, StatsPopulated) {
  // At 130% load some table paths saturate, so searches run too.
  const auto t = topo::make_abilene();
  traffic::GravityParams gp;
  gp.target_max_utilization = 1.3;
  const auto tm = traffic::generate_gravity(t, gp);
  SolveStats stats;
  Solver().solve(t, tm, &stats);
  EXPECT_GT(stats.rounds, 0u);
  EXPECT_GT(stats.path_searches, 0u);
  EXPECT_GT(stats.wall_time_s, 0.0);
  EXPECT_GE(stats.wall_time_s,
            stats.path_search_time_s);  // components within total
}

TEST(Solver, FixedQuantumWorkScalesWithDemand) {
  // The Fig 14 mechanism: with a fixed progressive-filling quantum, more
  // offered demand means more waterfill rounds and more path searches.
  const auto t = topo::make_geant();
  const auto tm = traffic::generate_gravity(t);
  double max_rate = 0;
  for (const auto& d : tm.demands()) max_rate = std::max(max_rate, d.rate_gbps);
  SolverOptions opt;
  opt.quantum_gbps = max_rate / 8.0;
  SolveStats light, heavy;
  Solver(opt).solve(t, tm.scaled(0.5), &light);
  Solver(opt).solve(t, tm.scaled(2.0), &heavy);
  EXPECT_GT(heavy.path_searches, light.path_searches);
}

TEST(Solver, DownLinkNeverCarriesTraffic) {
  auto t = topo::make_abilene();
  const auto fiber = t.find_link(0, 1);
  t.set_duplex_up(fiber, false);
  const auto tm = traffic::generate_gravity(topo::make_abilene());
  const auto sol = Solver().solve(t, tm);
  for (const auto& a : sol.allocations) {
    for (const auto& wp : a.paths) {
      for (topo::LinkId l : wp.path.links) {
        EXPECT_TRUE(t.link(l).up);
      }
    }
  }
}

TEST(Solver, ResidualOverrideStillClampsDownLinks) {
  // Regression: the down-link zeroing used to live only in the
  // default-residual branch, so a what-if solve seeded with a stale
  // residual snapshot could place traffic on links that had since gone
  // down. The clamp must apply to the override branch too.
  auto t = diamond();
  std::vector<double> residual(t.num_links());
  for (const auto& l : t.links()) residual[l.id] = l.capacity_gbps;
  // The b branch goes down *after* the residual snapshot was taken.
  t.set_duplex_up(t.find_link(0, 1), false);

  traffic::TrafficMatrix tm;
  tm.add({0, 3, PriorityClass::kHigh, 4.0});
  const auto sol = Solver().solve(t, tm, nullptr, &residual);
  ASSERT_EQ(sol.allocations.size(), 1u);
  EXPECT_NEAR(sol.allocations[0].allocated_gbps, 4.0, 1e-6);
  for (const auto& wp : sol.allocations[0].paths) {
    for (topo::LinkId l : wp.path.links) EXPECT_TRUE(t.link(l).up);
  }
}

TEST(Solver, RoundCapFreezesAreCounted) {
  // A fixed 0.01G quantum needs 800 rounds to fill the 8G demand, twice
  // the kMaxRounds cap: it is frozen half-filled and must show up in
  // SolveStats::frozen_demands.
  const auto t = diamond();
  traffic::TrafficMatrix tm;
  tm.add({0, 3, PriorityClass::kHigh, 8.0});
  SolverOptions opt;
  opt.quantum_gbps = 0.01;
  SolveStats stats;
  const auto sol = Solver(opt).solve(t, tm, &stats);
  EXPECT_EQ(stats.rounds, detail::kMaxRounds);
  EXPECT_EQ(stats.frozen_demands, 1u);
  EXPECT_EQ(stats.frozen_round_cap, 1u);
  EXPECT_EQ(stats.frozen_no_path, 0u);
  EXPECT_NEAR(sol.allocations[0].allocated_gbps,
              0.01 * static_cast<double>(detail::kMaxRounds), 1e-6);

  // An unconstrained solve freezes nothing.
  SolveStats ok;
  Solver().solve(t, tm, &ok);
  EXPECT_EQ(ok.frozen_demands, 0u);
}

TEST(Solver, NoPathFreezesAreCounted) {
  // Starvation accounting: a demand that exhausts the network's capacity
  // is frozen because no feasible path remains -- a different cause than
  // the round cap, and one that used to exit the active set uncounted.
  const auto t = topo::make_line(2, 10.0);  // one 10G bottleneck
  traffic::TrafficMatrix tm;
  tm.add({0, 1, PriorityClass::kHigh, 20.0});
  const auto check = [&](const auto& solver) {
    SolveStats stats;
    const auto sol = solver.solve(t, tm, &stats);
    EXPECT_NEAR(sol.allocations[0].allocated_gbps, 10.0, 1e-6);
    EXPECT_EQ(stats.frozen_no_path, 1u);
    EXPECT_EQ(stats.frozen_round_cap, 0u);
    EXPECT_EQ(stats.frozen_demands, 1u);
  };
  check(Solver());
  check(ReferenceSolver());
}

TEST(Solver, DrainedRoundPathIsResearchedNotSpun) {
  // Two same-priority demands contend for one bottleneck link. With a
  // full-rate quantum the first demand drains the link in the serialized
  // grant loop; the second demand's round path is then infeasible. It
  // must be re-searched (and here frozen as no-path) in the same round,
  // not kept spinning on a sub-epsilon grant until kMaxRounds fires.
  const auto t = topo::make_line(2, 10.0);
  traffic::TrafficMatrix tm;
  tm.add({0, 1, PriorityClass::kHigh, 10.0});
  tm.add({0, 1, PriorityClass::kHigh, 10.0});
  SolverOptions opt;
  opt.quantum_gbps = 10.0;
  const auto check = [&](const auto& solver) {
    SolveStats stats;
    const auto sol = solver.solve(t, tm, &stats);
    EXPECT_EQ(stats.rounds, 1u);  // no wasted spin rounds
    EXPECT_EQ(stats.frozen_no_path, 1u);
    EXPECT_EQ(stats.frozen_round_cap, 0u);
    EXPECT_NEAR(sol.allocations[0].allocated_gbps, 10.0, 1e-6);
    EXPECT_NEAR(sol.allocations[1].allocated_gbps, 0.0, 1e-9);
  };
  check(Solver(opt));
  check(ReferenceSolver(opt));
}

TEST(Solver, DrainedRoundPathResearchFindsAlternate) {
  // Same contention, but an alternate branch exists: the re-search must
  // divert the drained demand onto it within the same round instead of
  // wasting a round on a zero grant.
  const auto t = diamond();  // two 10G branches
  traffic::TrafficMatrix tm;
  tm.add({0, 3, PriorityClass::kHigh, 10.0});
  tm.add({0, 3, PriorityClass::kHigh, 10.0});
  SolverOptions opt;
  opt.quantum_gbps = 10.0;
  const auto check = [&](const auto& solver) {
    SolveStats stats;
    const auto sol = solver.solve(t, tm, &stats);
    EXPECT_EQ(stats.rounds, 1u);
    EXPECT_EQ(stats.frozen_demands, 0u);
    EXPECT_NEAR(sol.allocations[0].allocated_gbps, 10.0, 1e-6);
    EXPECT_NEAR(sol.allocations[1].allocated_gbps, 10.0, 1e-6);
    for (double r : sol.residual_capacity(t)) EXPECT_GE(r, -1e-6);
  };
  check(Solver(opt));
  check(ReferenceSolver(opt));
}

TEST(Solver, PooledAndUnpooledStatsAgree) {
  // A serial solve reports the same work statistics as one on an
  // external pool, and wall_time_s measures the solve alone.
  const auto t = diamond();
  traffic::TrafficMatrix tm;
  tm.add({0, 3, PriorityClass::kHigh, 5.0});

  SolverOptions unpooled;
  SolveStats a;
  Solver(unpooled).solve(t, tm, &a);

  ThreadPool shared(4);
  SolverOptions pooled = unpooled;
  pooled.pool = &shared;
  SolveStats b;
  Solver(pooled).solve(t, tm, &b);

  EXPECT_EQ(a.rounds, b.rounds);
  EXPECT_EQ(a.path_searches, b.path_searches);
  EXPECT_EQ(a.frozen_demands, b.frozen_demands);
  EXPECT_GT(a.wall_time_s, 0.0);
  EXPECT_GT(b.wall_time_s, 0.0);
  // A trivial solve is microseconds. Generous bound so the assertion
  // only trips on accounting regressions, not scheduler noise.
  EXPECT_LT(a.wall_time_s, 0.25);
  EXPECT_LT(b.wall_time_s, 0.25);
}

}  // namespace
}  // namespace dsdn::te

#include <atomic>
#include <thread>

#include "te/thread_pool.hpp"

namespace dsdn::te {
namespace {

TEST(ThreadPool, CoversEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(101);
  pool.parallel_for(101, [&](std::size_t i) { hits[i].fetch_add(1); });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, InlineWhenSingleThreaded) {
  ThreadPool pool(1);
  const auto caller = std::this_thread::get_id();
  std::vector<std::thread::id> seen(8);
  pool.parallel_for(8, [&](std::size_t i) {
    seen[i] = std::this_thread::get_id();
  });
  for (const auto& id : seen) EXPECT_EQ(id, caller);
}

TEST(ThreadPool, HandlesFewerItemsThanWorkersAndZero) {
  ThreadPool pool(8);
  std::atomic<int> count{0};
  pool.parallel_for(3, [&](std::size_t) { count.fetch_add(1); });
  EXPECT_EQ(count.load(), 3);
  pool.parallel_for(0, [&](std::size_t) { count.fetch_add(1); });
  EXPECT_EQ(count.load(), 3);
}

TEST(ThreadPool, ZeroThreadsMeansInline) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.n_threads(), 1u);
  int sum = 0;
  pool.parallel_for(5, [&](std::size_t i) { sum += static_cast<int>(i); });
  EXPECT_EQ(sum, 10);
}

}  // namespace
}  // namespace dsdn::te
