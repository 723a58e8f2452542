// Warm-start incremental TE recompute: equivalence with the full
// solver, affected-set classification, fallback behavior, and the
// DiffChecker contract under randomized link-flap / demand-churn
// sequences (the ISSUE 4 acceptance suite).

#include <gtest/gtest.h>

#include <cmath>

#include "te/incremental.hpp"
#include "te/solver.hpp"
#include "topo/builder.hpp"
#include "topo/synthetic.hpp"
#include "topo/zoo.hpp"
#include "traffic/gravity.hpp"
#include "util/rng.hpp"

namespace dsdn::te {
namespace {

using metrics::PriorityClass;

topo::Topology diamond() {
  // a -> {b, c} -> d, 10G per link, with the b branch cheaper.
  topo::Topology t;
  const auto a = t.add_node("a");
  const auto b = t.add_node("b");
  const auto c = t.add_node("c");
  const auto d = t.add_node("d");
  t.add_duplex(a, b, 10, 1.0);
  t.add_duplex(b, d, 10, 1.0);
  t.add_duplex(a, c, 10, 2.0);
  t.add_duplex(c, d, 10, 2.0);
  return t;
}

ViewDelta link_delta(const topo::Topology& t, topo::LinkId fiber) {
  ViewDelta d;
  d.full = false;
  d.changed_links = {fiber, t.link(fiber).reverse};
  return d;
}

ViewDelta demand_delta(topo::NodeId origin) {
  ViewDelta d;
  d.full = false;
  d.changed_demand_origins = {origin};
  return d;
}

TEST(IncrementalSolver, ColdSolveMatchesFullSolver) {
  const auto t = topo::make_abilene();
  const auto tm = traffic::generate_gravity(t);
  IncrementalSolver inc;
  IncrementalStats stats;
  const Solution warm = inc.solve(t, tm, ViewDelta{}, &stats);
  const Solution ref = Solver().solve(t, tm);

  EXPECT_FALSE(stats.incremental);
  EXPECT_EQ(stats.total_demands, tm.size());
  EXPECT_EQ(inc.full_solves(), 1u);
  // The solver is deterministic, so a full-delta warm solve is the
  // identical solution, allocation by allocation.
  ASSERT_EQ(warm.allocations.size(), ref.allocations.size());
  for (std::size_t i = 0; i < warm.allocations.size(); ++i) {
    EXPECT_DOUBLE_EQ(warm.allocations[i].allocated_gbps,
                     ref.allocations[i].allocated_gbps);
    EXPECT_EQ(warm.allocations[i].paths, ref.allocations[i].paths);
  }
}

TEST(IncrementalSolver, EmptyDeltaReusesEveryAllocation) {
  const auto t = topo::make_abilene();
  const auto tm = traffic::generate_gravity(t);
  IncrementalSolver inc;
  const Solution first = inc.solve(t, tm, ViewDelta{});

  ViewDelta empty;
  empty.full = false;
  IncrementalStats stats;
  const Solution second = inc.solve(t, tm, empty, &stats);

  EXPECT_TRUE(stats.incremental);
  EXPECT_EQ(stats.affected_demands, 0u);
  EXPECT_EQ(stats.reused_allocations, tm.size());
  EXPECT_DOUBLE_EQ(stats.reuse_fraction, 1.0);
  ASSERT_EQ(second.allocations.size(), first.allocations.size());
  for (std::size_t i = 0; i < first.allocations.size(); ++i) {
    EXPECT_EQ(second.allocations[i].paths, first.allocations[i].paths);
  }
}

TEST(IncrementalSolver, SingleLinkFailureReleasesOnlyTouchedDemands) {
  auto t = topo::make_abilene();
  const auto tm = traffic::generate_gravity(t);
  IncrementalSolver inc;
  const Solution before = inc.solve(t, tm, ViewDelta{});

  // Fiber 0-1 carries 30 of the 330 demands, under the fallback
  // threshold: the solve takes the reuse side.
  const auto fiber = t.find_link(0, 1);
  t.set_duplex_up(fiber, false);
  IncrementalStats stats;
  const Solution after = inc.solve(t, tm, link_delta(t, fiber), &stats);

  EXPECT_TRUE(stats.incremental);
  EXPECT_FALSE(stats.fallback);
  EXPECT_GT(stats.affected_demands, 0u);
  EXPECT_GT(stats.reused_allocations, 0u);
  // Exactly the demands whose previous paths crossed the failed fiber
  // (either direction) were released; everything else kept its paths.
  const auto rev = t.link(fiber).reverse;
  ASSERT_EQ(after.allocations.size(), before.allocations.size());
  for (std::size_t i = 0; i < before.allocations.size(); ++i) {
    bool touched = false;
    for (const auto& wp : before.allocations[i].paths) {
      for (topo::LinkId l : wp.path.links) {
        if (l == fiber || l == rev) touched = true;
      }
    }
    if (!touched) {
      EXPECT_EQ(after.allocations[i].paths, before.allocations[i].paths)
          << "untouched demand " << i << " was re-routed";
    }
    for (const auto& wp : after.allocations[i].paths) {
      for (topo::LinkId l : wp.path.links) {
        EXPECT_TRUE(t.link(l).up);
      }
    }
  }
  // The merged solution honors the full-solver invariants.
  const auto report = DiffChecker::check(t, tm, after);
  EXPECT_TRUE(report.ok()) << report.violations.front();
}

TEST(IncrementalSolver, RepairTriggersFullSolve) {
  auto t = diamond();
  traffic::TrafficMatrix tm;
  tm.add({0, 3, PriorityClass::kHigh, 15.0});  // needs both 10G branches
  // Two demands off the c branch (d->b, b->a), so a cut of that branch
  // affects one demand in three, under the fallback threshold.
  tm.add({3, 1, PriorityClass::kHigh, 1.0});
  tm.add({1, 0, PriorityClass::kHigh, 1.0});
  IncrementalSolver inc;
  const Solution full = inc.solve(t, tm, ViewDelta{});
  EXPECT_NEAR(full.allocations[0].allocated_gbps, 15.0, 0.1);

  // The c branch fails: only 10G fit, re-placed on the reuse side.
  const auto fiber = t.find_link(0, 2);
  t.set_duplex_up(fiber, false);
  IncrementalStats cut_stats;
  const Solution degraded =
      inc.solve(t, tm, link_delta(t, fiber), &cut_stats);
  EXPECT_TRUE(cut_stats.incremental);
  EXPECT_NEAR(degraded.allocations[0].allocated_gbps, 10.0, 0.1);

  // Repair: freed capacity cascades through the waterfill (kept
  // allocations on detours would block what a cold solve places through
  // the restored link), so the solver must take the full solve.
  t.set_duplex_up(fiber, true);
  IncrementalStats stats;
  const Solution repaired = inc.solve(t, tm, link_delta(t, fiber), &stats);
  EXPECT_FALSE(stats.incremental);
  EXPECT_TRUE(stats.fallback);
  EXPECT_NEAR(repaired.allocations[0].allocated_gbps, 15.0, 0.1);
}

TEST(IncrementalSolver, FallbackWhenDeltaTouchesTooMuch) {
  auto t = topo::make_abilene();
  const auto tm = traffic::generate_gravity(t);
  IncrementalSolver inc;
  inc.solve(t, tm, ViewDelta{});

  // Fibers 0-1 and 3-4 fail together (one SRLG): the cut touches more
  // than kFullSolveThreshold of the demands and the graph stays
  // connected.
  const auto fiber = t.find_link(0, 1);
  const auto other = t.find_link(3, 4);
  t.set_duplex_up(fiber, false);
  t.set_duplex_up(other, false);
  ASSERT_TRUE(topo::is_strongly_connected(t));
  ViewDelta delta = link_delta(t, fiber);
  delta.changed_links.push_back(other);
  delta.changed_links.push_back(t.link(other).reverse);
  IncrementalStats stats;
  const Solution sol = inc.solve(t, tm, delta, &stats);

  EXPECT_TRUE(stats.fallback);
  EXPECT_FALSE(stats.incremental);
  EXPECT_EQ(stats.reused_allocations, 0u);
  EXPECT_EQ(inc.fallbacks(), 1u);
  EXPECT_EQ(inc.full_solves(), 2u);
  // The fallback is a plain full solve: identical to the scratch solver.
  const Solution ref = Solver().solve(t, tm);
  ASSERT_EQ(sol.allocations.size(), ref.allocations.size());
  for (std::size_t i = 0; i < sol.allocations.size(); ++i) {
    EXPECT_EQ(sol.allocations[i].paths, ref.allocations[i].paths);
  }
}

TEST(IncrementalSolver, DemandChurnAddsAndDropsRows) {
  const auto t = topo::make_abilene();
  traffic::TrafficMatrix tm;
  tm.add({0, 5, PriorityClass::kHigh, 1.0});
  tm.add({3, 8, PriorityClass::kLow, 2.0});
  IncrementalSolver inc;
  inc.solve(t, tm, ViewDelta{});

  // Origin 7 starts advertising: only the new row is affected, one
  // demand in three, under the fallback threshold.
  tm.add({7, 2, PriorityClass::kIntermediate, 3.0});
  IncrementalStats stats;
  Solution sol = inc.solve(t, tm, demand_delta(7), &stats);
  EXPECT_TRUE(stats.incremental);
  EXPECT_EQ(stats.affected_demands, 1u);
  EXPECT_EQ(stats.reused_allocations, 2u);
  ASSERT_EQ(sol.allocations.size(), 3u);
  EXPECT_GT(sol.allocations[2].allocated_gbps, 0.0);

  // Origin 0 re-rates its row upward and origin 3 withdraws entirely.
  // The withdrawal gives its allocation back, so the solver takes the
  // full solve (freed-capacity fallback); the solution keeps shape: one
  // allocation per remaining demand.
  traffic::TrafficMatrix smaller;
  smaller.add({0, 5, PriorityClass::kHigh, 4.0});
  smaller.add({7, 2, PriorityClass::kIntermediate, 3.0});
  ViewDelta d;
  d.full = false;
  d.changed_demand_origins = {0, 3};
  sol = inc.solve(t, smaller, d, &stats);
  EXPECT_FALSE(stats.incremental);
  EXPECT_TRUE(stats.fallback);
  ASSERT_EQ(sol.allocations.size(), 2u);
  EXPECT_NEAR(sol.allocations[0].allocated_gbps, 4.0, 1e-6);
  const auto report = DiffChecker::check(t, smaller, sol);
  EXPECT_TRUE(report.ok()) << report.violations.front();
}

TEST(IncrementalSolver, DuplicateDemandRowsDisableWarmStart) {
  // Two identical (src, dst, class) rows cannot be keyed; the solver
  // must stay correct by refusing to warm-start, not by mis-merging.
  const auto t = diamond();
  traffic::TrafficMatrix tm;
  tm.add({0, 3, PriorityClass::kHigh, 2.0});
  tm.add({0, 3, PriorityClass::kHigh, 3.0});
  IncrementalSolver inc;
  inc.solve(t, tm, ViewDelta{});

  ViewDelta empty;
  empty.full = false;
  IncrementalStats stats;
  const Solution sol = inc.solve(t, tm, empty, &stats);
  EXPECT_FALSE(stats.incremental);
  EXPECT_EQ(inc.full_solves(), 2u);
  ASSERT_EQ(sol.allocations.size(), 2u);
  EXPECT_NEAR(sol.allocations[0].allocated_gbps + sol.allocations[1].allocated_gbps,
              5.0, 1e-6);

  // The same keys again: the key index is not rebuilt, and its verdict
  // still refuses to warm-start.
  inc.solve(t, tm, empty, &stats);
  EXPECT_FALSE(stats.incremental);
  EXPECT_EQ(inc.full_solves(), 3u);
}

TEST(IncrementalSolver, DuplicatedRowIsReleasedNotKeptTwice) {
  // A warm solver meets a matrix that repeats a row it placed: the copy
  // maps to the same previous allocation, so it is released and placed
  // in what is left instead of carrying that allocation a second time.
  const auto t = diamond();
  traffic::TrafficMatrix tm;
  tm.add({0, 3, PriorityClass::kHigh, 8.0});
  tm.add({3, 0, PriorityClass::kHigh, 1.0});
  tm.add({1, 2, PriorityClass::kHigh, 1.0});
  IncrementalSolver inc;
  inc.solve(t, tm, ViewDelta{});

  // One row of four released: under the fallback threshold.
  traffic::TrafficMatrix twice = tm;
  twice.add(tm.demands()[0]);
  ViewDelta empty;
  empty.full = false;
  IncrementalStats stats;
  const Solution sol = inc.solve(t, twice, empty, &stats);
  EXPECT_TRUE(stats.incremental);
  EXPECT_EQ(stats.affected_demands, 1u);
  const auto report = DiffChecker::check(t, twice, sol);
  EXPECT_TRUE(report.ok()) << report.violations.front();
}

TEST(IncrementalSolver, PermutedRowsMatchByKey) {
  // The same key set in a different order takes the key index instead of
  // matching row i to row i; every demand must get the allocation the
  // unpermuted run gives it. Only kept rows move (reversed among
  // themselves), so both warm solves re-waterfill the same released rows
  // in the same order.
  auto t = topo::make_abilene();
  const auto tm = traffic::generate_gravity(t);
  IncrementalSolver plain, permuted;
  const Solution intact = plain.solve(t, tm, ViewDelta{});
  permuted.solve(t, tm, ViewDelta{});

  const auto fiber = t.find_link(0, 1);
  const auto rev = t.link(fiber).reverse;
  std::vector<std::size_t> kept;
  for (std::size_t i = 0; i < intact.allocations.size(); ++i) {
    bool touched = false;
    for (const auto& wp : intact.allocations[i].paths) {
      for (topo::LinkId l : wp.path.links) touched |= l == fiber || l == rev;
    }
    if (!touched) kept.push_back(i);
  }
  std::vector<traffic::Demand> rows = tm.demands();
  for (std::size_t k = 0; k < kept.size(); ++k)
    rows[kept[k]] = tm.demands()[kept[kept.size() - 1 - k]];
  const traffic::TrafficMatrix shuffled(rows);

  t.set_duplex_up(fiber, false);
  IncrementalStats plain_stats, permuted_stats;
  const Solution a =
      plain.solve(t, tm, link_delta(t, fiber), &plain_stats);
  const Solution b =
      permuted.solve(t, shuffled, link_delta(t, fiber), &permuted_stats);
  ASSERT_TRUE(plain_stats.incremental);
  ASSERT_TRUE(permuted_stats.incremental);
  EXPECT_GT(plain_stats.affected_demands, 0u);
  EXPECT_EQ(permuted_stats.affected_demands, plain_stats.affected_demands);
  ASSERT_EQ(b.allocations.size(), a.allocations.size());
  for (std::size_t i = 0; i < rows.size(); ++i) {
    std::size_t j = 0;
    while (!(tm.demands()[j] == rows[i])) ++j;
    EXPECT_EQ(b.allocations[i].demand, a.allocations[j].demand);
    EXPECT_EQ(b.allocations[i].allocated_gbps, a.allocations[j].allocated_gbps)
        << "demand " << j;
    EXPECT_EQ(b.allocations[i].paths, a.allocations[j].paths) << "demand " << j;
  }
}

TEST(IncrementalSolver, ResetDropsWarmState) {
  const auto t = topo::make_abilene();
  const auto tm = traffic::generate_gravity(t);
  IncrementalSolver inc;
  inc.solve(t, tm, ViewDelta{});
  inc.reset();
  ViewDelta empty;
  empty.full = false;
  IncrementalStats stats;
  inc.solve(t, tm, empty, &stats);
  EXPECT_FALSE(stats.incremental);
  EXPECT_EQ(inc.full_solves(), 2u);
}

TEST(DiffChecker, CatchesViolations) {
  const auto t = diamond();
  traffic::TrafficMatrix tm;
  tm.add({0, 3, PriorityClass::kHigh, 4.0});
  Solution sol = Solver().solve(t, tm);
  ASSERT_TRUE(DiffChecker::check(t, tm, sol).ok());

  // Over-allocation.
  Solution over = sol;
  over.allocations[0].allocated_gbps = 9.0;
  auto report = DiffChecker::check(t, tm, over);
  EXPECT_FALSE(report.ok());

  // Shape mismatch.
  Solution short_sol;
  EXPECT_FALSE(DiffChecker::check(t, tm, short_sol).ok());

  // Path over a down link.
  auto broken_topo = t;
  broken_topo.set_duplex_up(t.find_link(0, 1), false);
  report = DiffChecker::check(broken_topo, tm, sol);
  EXPECT_FALSE(report.ok());

  // Capacity conservation: duplicate the placed load way past 10G.
  Solution heavy = sol;
  heavy.allocations[0].allocated_gbps = 4.0;
  for (auto& wp : heavy.allocations[0].paths) wp.weight *= 4.0;
  report = DiffChecker::check(t, tm, heavy);
  EXPECT_FALSE(report.ok());
}

// ---- Randomized churn: the acceptance suite ----
//
// A long random sequence of connectivity-preserving link flaps, repairs,
// and demand re-rates. Every step checks the incremental solver's result
// with DiffChecker against a fresh full solve and asserts zero
// violations -- i.e. the warm-start path never produces an infeasible or
// capacity-violating solution and stays within throughput tolerance of
// the full solver.
void churn_suite(topo::Topology t, traffic::TrafficMatrix tm,
                 std::size_t n_steps, std::uint64_t seed) {
  IncrementalSolver inc;
  inc.solve(t, tm, ViewDelta{});

  // Duplex fiber representatives that are safe to fail.
  std::vector<topo::LinkId> fibers;
  for (const auto& l : t.links()) {
    if (l.reverse != topo::kInvalidLink && l.id < l.reverse)
      fibers.push_back(l.id);
  }
  util::Rng rng(seed);
  std::vector<topo::LinkId> downed;
  std::size_t incremental_steps = 0;
  for (std::size_t step = 0; step < n_steps; ++step) {
    ViewDelta delta;
    delta.full = false;
    const double roll = rng.uniform();
    if (roll < 0.4 && !downed.empty()) {
      // Repair a random downed fiber.
      const std::size_t k = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(downed.size()) - 1));
      const topo::LinkId f = downed[k];
      downed.erase(downed.begin() + static_cast<std::ptrdiff_t>(k));
      t.set_duplex_up(f, true);
      delta.changed_links = {f, t.link(f).reverse};
    } else if (roll < 0.7) {
      // Fail a random fiber, but never disconnect the graph.
      const topo::LinkId f = rng.pick(fibers);
      if (!t.link(f).up) continue;
      t.set_duplex_up(f, false);
      if (!topo::is_strongly_connected(t)) {
        t.set_duplex_up(f, true);
        continue;
      }
      downed.push_back(f);
      delta.changed_links = {f, t.link(f).reverse};
    } else {
      // Re-rate every demand of a random origin.
      const auto& rows = tm.demands();
      if (rows.empty()) continue;
      const topo::NodeId origin =
          rows[static_cast<std::size_t>(rng.uniform_int(
                  0, static_cast<std::int64_t>(rows.size()) - 1))]
              .src;
      traffic::TrafficMatrix next;
      for (const auto& d : rows) {
        traffic::Demand nd = d;
        if (d.src == origin) nd.rate_gbps *= rng.uniform(0.5, 1.5);
        next.add(nd);
      }
      tm = std::move(next);
      delta.changed_demand_origins = {origin};
    }

    IncrementalStats stats;
    const Solution sol = inc.solve(t, tm, delta, &stats);
    const auto report = DiffChecker::check(t, tm, sol);
    ASSERT_TRUE(report.ok())
        << "step " << step << " violated the differential check: "
        << report.violations.front();
    if (stats.incremental) ++incremental_steps;
  }
  // The suite must actually exercise the warm path, not fall back on
  // every step.
  EXPECT_GT(incremental_steps, n_steps / 4);
}

TEST(IncrementalChurn, AbileneRandomizedFlapsAndDemandChurn) {
  const auto t = topo::make_abilene();
  churn_suite(t, traffic::generate_gravity(t), 60, 0xAB11E7E);
}

TEST(IncrementalChurn, B4LikeRandomizedFlapsAndDemandChurn) {
  // A scaled-down B4-like instance (same generator, fewer metros) keeps
  // the per-step full reference solve affordable in CI.
  topo::B4LikeParams params;
  params.n_metros = 8;
  params.routers_per_metro = 2;
  const auto t = topo::make_b4_like(params);
  traffic::GravityParams gp;
  gp.pair_fraction = 0.5;
  churn_suite(t, traffic::generate_gravity(t, gp), 40, 0xB4B4B4);
}

}  // namespace
}  // namespace dsdn::te
