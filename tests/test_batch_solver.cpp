#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <functional>
#include <limits>
#include <optional>
#include <queue>

#include "obs/metrics.hpp"
#include "sim/scenario.hpp"
#include "solver_golden.hpp"
#include "te/batch_solver.hpp"
#include "te/dijkstra.hpp"
#include "te/incremental.hpp"
#include "te/solver.hpp"
#include "te/thread_pool.hpp"
#include "te_reference.hpp"
#include "topo/builder.hpp"
#include "topo/synthetic.hpp"
#include "topo/zoo.hpp"
#include "traffic/gravity.hpp"
#include "util/rng.hpp"

namespace dsdn::te {
namespace {

using metrics::PriorityClass;

// Exact (bitwise) solution equality: the batched solver's contract is
// that cacheless solves reproduce the reference per-demand waterfill to
// the last ULP, at any pool size.
void expect_bit_identical(const Solution& a, const Solution& b,
                          const std::string& context) {
  ASSERT_EQ(a.allocations.size(), b.allocations.size()) << context;
  for (std::size_t i = 0; i < a.allocations.size(); ++i) {
    const Allocation& x = a.allocations[i];
    const Allocation& y = b.allocations[i];
    ASSERT_EQ(x.allocated_gbps, y.allocated_gbps)
        << context << " alloc " << i;
    ASSERT_EQ(x.paths.size(), y.paths.size()) << context << " alloc " << i;
    for (std::size_t p = 0; p < x.paths.size(); ++p) {
      ASSERT_EQ(x.paths[p].path, y.paths[p].path)
          << context << " alloc " << i << " path " << p;
      ASSERT_EQ(x.paths[p].weight, y.paths[p].weight)
          << context << " alloc " << i << " path " << p;
    }
  }
}

SolverOptions pooled(ThreadPool& pool) {
  SolverOptions opt;
  opt.pool = &pool;
  return opt;
}

TEST(BatchWaterfill, BitIdenticalToReferenceAcrossSeedsAndPoolSizes) {
  // The determinism sweep: for 16 gravity seeds on two real topologies,
  // the solver at pool sizes 1/4/8 must reproduce the reference solver
  // bit-for-bit (the batched SSSP must introduce no ordering
  // nondeterminism).
  ThreadPool pools[] = {ThreadPool(1), ThreadPool(4), ThreadPool(8)};
  const topo::Topology topos[] = {topo::make_abilene(), topo::make_geant()};
  for (const auto& t : topos) {
    for (std::uint64_t seed = 0; seed < 16; ++seed) {
      traffic::GravityParams gp;
      gp.seed = seed;
      gp.target_max_utilization = 0.9;  // some contention every seed
      const auto tm = traffic::generate_gravity(t, gp);
      const auto reference = ReferenceSolver().solve(t, tm);
      for (ThreadPool& pool : pools) {
        const auto batch = Solver(pooled(pool)).solve(t, tm);
        expect_bit_identical(reference, batch,
                             "seed " + std::to_string(seed) + " threads " +
                                 std::to_string(pool.n_threads()) +
                                 " nodes " + std::to_string(t.num_nodes()));
      }
    }
  }
}

TEST(BatchWaterfill, BitIdenticalUnderOverloadAndDownLinks) {
  // Heavy contention drives the drained-path re-search and no-path
  // freeze codepaths in both solvers; a down fiber exercises the CSR
  // up-link filtering. Parity must survive all of it.
  auto t = topo::make_geant();
  t.set_duplex_up(t.links().front().id, false);
  traffic::GravityParams gp;
  gp.seed = 7;
  gp.target_max_utilization = 2.0;  // well past capacity
  const auto tm = traffic::generate_gravity(t, gp);
  ThreadPool pool(4);
  SolveStats ref_stats, batch_stats;
  const auto reference = ReferenceSolver().solve(t, tm, &ref_stats);
  const auto batch = Solver(pooled(pool)).solve(t, tm, &batch_stats);
  expect_bit_identical(reference, batch, "overload");
  EXPECT_EQ(ref_stats.rounds, batch_stats.rounds);
  // Validated cross-round path reuse makes batch searches a subset of the
  // reference's one-search-per-active-demand-per-round count.
  EXPECT_LE(batch_stats.path_searches, ref_stats.path_searches);
  EXPECT_GT(batch_stats.path_searches, 0u);
  EXPECT_EQ(ref_stats.frozen_no_path, batch_stats.frozen_no_path);
  EXPECT_EQ(ref_stats.frozen_round_cap, batch_stats.frozen_round_cap);
  EXPECT_GT(ref_stats.frozen_demands, 0u);  // the sweep has teeth
}

TEST(BatchWaterfill, BitIdenticalWithResidualOverride) {
  const auto t = topo::make_abilene();
  const auto tm = traffic::generate_gravity(t);
  std::vector<double> residual(t.num_links());
  for (const auto& l : t.links()) residual[l.id] = l.capacity_gbps * 0.5;
  const auto reference = ReferenceSolver().solve(t, tm, nullptr, &residual);
  const auto batch = Solver().solve(t, tm, nullptr, &residual);
  expect_bit_identical(reference, batch, "residual override");
}

TEST(BatchWaterfill, CachedSolvesMatchCachedReference) {
  // A table-seeded solve takes a table path only where a search would
  // return it, so it matches the (always searching) reference.
  const auto t = topo::make_geant();
  const auto tm = traffic::generate_gravity(t);
  SolveStats stats;
  expect_bit_identical(ReferenceSolver().solve(t, tm),
                       Solver().solve(t, tm, &stats), "cached");
  EXPECT_GT(stats.table_paths, 0u);
}

TEST(BatchWaterfill, DiffCheckerParityOverScenarioEras) {
  // Walk the scenario harness's deterministic cut/repair schedule,
  // solving each topology era with the solver and validating it through
  // the DiffChecker against a reference solve -- zero violations, and
  // (cacheless) exact parity era by era.
  const auto base = topo::make_abilene();
  const auto tm = traffic::generate_gravity(base);
  ThreadPool pool(4);
  for (std::uint64_t seed : {1ull, 2ull, 3ull}) {
    sim::Scenario scenario(base, tm, sim::ScenarioOptions{}, seed);
    auto era = base;
    std::size_t eras_checked = 0;
    for (const auto& ev : scenario.schedule()) {
      if (ev.kind == sim::ScenarioEventKind::kFiberCut) {
        for (topo::LinkId l : ev.fibers) era.set_duplex_up(l, false);
      } else if (ev.kind == sim::ScenarioEventKind::kFiberRepair) {
        for (topo::LinkId l : ev.fibers) era.set_duplex_up(l, true);
      } else {
        continue;
      }
      const auto batch = Solver(pooled(pool)).solve(era, tm);
      const auto reference = ReferenceSolver().solve(era, tm);
      const auto report = DiffChecker::check_against(
          era, tm, batch, reference, DiffChecker::Options{});
      EXPECT_TRUE(report.ok())
          << "seed " << seed << " era " << eras_checked << ": "
          << (report.violations.empty() ? "" : report.violations.front());
      expect_bit_identical(reference, batch,
                           "era " + std::to_string(eras_checked));
      ++eras_checked;
    }
    EXPECT_GT(eras_checked, 0u) << "seed " << seed;
  }
}

std::uint64_t counter(const char* name) {
  const auto snap = obs::Registry::global().snapshot();
  const auto it = snap.counters.find(name);
  return it == snap.counters.end() ? std::uint64_t{0} : it->second;
}

// Gravity at 130% load: enough table paths saturate that a solve runs
// batched searches beside its table walks.
traffic::TrafficMatrix overloaded_gravity(const topo::Topology& t) {
  traffic::GravityParams gp;
  gp.target_max_utilization = 1.3;
  return traffic::generate_gravity(t, gp);
}

TEST(BatchWaterfill, BucketingRunsFewerSsspsThanSearches) {
  // Bucketing is what makes the path search a *batch* search: one SSSP
  // serves every demand of a (source, residual-rank) bucket, so a solve
  // runs strictly fewer SSSPs than batched demand searches.
  const auto t = topo::make_geant();
  const auto tm = overloaded_gravity(t);
  const std::uint64_t batches0 = counter("te.batch.sssp_batches");
  const std::uint64_t searches0 = counter("te.batch.batched_searches");
  SolveStats stats;
  Solver().solve(t, tm, &stats);
  const std::uint64_t batches = counter("te.batch.sssp_batches") - batches0;
  const std::uint64_t searches =
      counter("te.batch.batched_searches") - searches0;
  EXPECT_GT(batches, 0u);
  EXPECT_GT(searches, batches);
  // Batched searches are the solve's searches minus grant re-searches.
  EXPECT_LE(searches, stats.path_searches);
}

TEST(BatchWaterfill, EmitsBatchCounters) {
  // Deltas around this test's own solve: the counters are process-wide,
  // and earlier tests in the binary bump them too.
  const auto t = topo::make_abilene();
  const auto tm = overloaded_gravity(t);
  const char* const names[] = {"te.batch.solves", "te.batch.sssp_batches",
                               "te.batch.interned_paths",
                               "te.batch.table_paths", "te.solver.solves"};
  std::vector<std::uint64_t> before;
  for (const char* name : names) before.push_back(counter(name));
  Solver().solve(t, tm);
  for (std::size_t i = 0; i < before.size(); ++i) {
    // te.solver.solves: the shared counters still move.
    EXPECT_GT(counter(names[i]) - before[i], 0u) << names[i];
  }
}

TEST(BatchWaterfill, SsspWorkspaceReuseAcrossEpochs) {
  // The workspace's epoch stamping must isolate runs: a second SSSP on
  // the same scratch must not see the first run's dist/pred state.
  const auto t = topo::make_abilene();
  const Solver solver;
  const auto tm1 = traffic::generate_gravity(t);
  traffic::GravityParams gp;
  gp.seed = 99;
  const auto tm2 = traffic::generate_gravity(t, gp);
  const auto first = solver.solve(t, tm1);
  const auto again = solver.solve(t, tm1);
  solver.solve(t, tm2);  // interleave different demand set
  const auto third = solver.solve(t, tm1);
  expect_bit_identical(first, again, "workspace reuse");
  expect_bit_identical(first, third, "workspace reuse after interleave");
}

// ---- The SSSP kernel's queue, and the kernel against te::shortest_path ----

TEST(RadixHeap, PopsTheBinaryHeapSequenceOnMonotoneRuns) {
  // Random monotone push/pop runs (every push >= the last pop) against
  // std::priority_queue under std::greater: the pop sequences must be
  // identical. Keys come from a small set, so equal keys (popped in node
  // order) are common, plus +0.0, the smallest subnormals, one-ULP
  // neighbours, DBL_MAX and +inf. A third of the runs stop with entries
  // left, so the next run starts with clear() on a non-empty heap.
  using Entry = std::pair<double, std::uint32_t>;
  const double tiny = std::numeric_limits<double>::denorm_min();
  const double big = std::numeric_limits<double>::max();
  const double inf = std::numeric_limits<double>::infinity();
  const std::vector<double> keys = {  // ascending
      0.0, tiny, 2 * tiny, 0.25, std::nextafter(1.0, 0.0), 1.0,
      std::nextafter(1.0, 2.0), 1.5, 2.0, 3.0, 1e300,
      std::nextafter(big, 0.0), big, inf};
  util::Rng rng(2024);
  RadixHeap heap;
  std::size_t pops = 0;
  for (int run = 0; run < 3000; ++run) {
    heap.clear();
    ASSERT_TRUE(heap.empty());
    std::priority_queue<Entry, std::vector<Entry>, std::greater<>> ref;
    double last = 0.0;
    const auto ops = rng.uniform_int(1, 120);
    for (std::int64_t op = 0; op < ops; ++op) {
      if (ref.empty() || rng.uniform_int(0, 2) != 0) {
        double key;
        if (rng.uniform_int(0, 3) == 0) {
          // Off the set: the last pop plus a multiple of 1/4, or one ULP.
          const auto step = rng.uniform_int(0, 4);
          key = step == 4 ? std::nextafter(last, inf) : last + 0.25 * step;
        } else {
          const auto lo = static_cast<std::int64_t>(
              std::lower_bound(keys.begin(), keys.end(), last) - keys.begin());
          key = keys[static_cast<std::size_t>(rng.uniform_int(
              lo, static_cast<std::int64_t>(keys.size()) - 1))];
        }
        const auto node = static_cast<std::uint32_t>(rng.uniform_int(0, 5));
        heap.push(key, node);
        ref.emplace(key, node);
      } else {
        const Entry got = heap.pop();
        ASSERT_EQ(got, ref.top()) << "run " << run << " op " << op;
        ref.pop();
        last = got.first;
        ++pops;
      }
      ASSERT_EQ(heap.empty(), ref.empty());
    }
    if (run % 3 == 0) continue;  // leave entries for the next clear()
    while (!ref.empty()) {
      ASSERT_EQ(heap.pop(), ref.top()) << "drain of run " << run;
      ref.pop();
      ++pops;
    }
    ASSERT_TRUE(heap.empty());
  }
  EXPECT_GT(pops, 50000u);
}

// Unit metrics on a grid with some doubled links: many equal-cost paths,
// so tie-breaks decide almost every pop. The last node is isolated (an
// unreachable target).
topo::Topology tie_heavy_grid(std::size_t w, std::size_t h) {
  topo::Topology t;
  for (std::size_t i = 0; i <= w * h; ++i) t.add_node(std::to_string(i));
  for (std::size_t r = 0; r < h; ++r) {
    for (std::size_t c = 0; c < w; ++c) {
      const auto v = static_cast<topo::NodeId>(r * w + c);
      const double cap = 10.0 * static_cast<double>(1 + (r * 7 + c * 3) % 9);
      if (c + 1 < w) {
        t.add_duplex(v, v + 1, cap, 1.0);
        if ((r + c) % 3 == 0) t.add_duplex(v, v + 1, cap / 2, 1.0);
      }
      if (r + 1 < h)
        t.add_duplex(v, static_cast<topo::NodeId>(v + w), cap, 1.0);
    }
  }
  return t;
}

// A ring with every link doubled and chords across it whose metric ties
// the way round.
topo::Topology tie_heavy_ring(std::size_t n) {
  topo::Topology t;
  for (std::size_t i = 0; i < n; ++i) t.add_node(std::to_string(i));
  for (std::size_t i = 0; i < n; ++i) {
    const auto a = static_cast<topo::NodeId>(i);
    const auto b = static_cast<topo::NodeId>((i + 1) % n);
    t.add_duplex(a, b, 40.0, 1.0);
    t.add_duplex(a, b, 20.0 + 10.0 * static_cast<double>(i % 4), 1.0);
  }
  for (std::size_t i = 0; i < n / 2; i += 3) {
    t.add_duplex(static_cast<topo::NodeId>(i),
                 static_cast<topo::NodeId>(i + n / 2), 30.0,
                 static_cast<double>(n / 2));
  }
  return t;
}

// The predecessor chain the last sssp() left for `dst`, as a path.
std::optional<Path> extracted_path(const BatchGraph& g,
                                   const SsspWorkspace& ws,
                                   std::uint32_t src, std::uint32_t dst) {
  if (!ws.reached(dst)) return std::nullopt;
  Path p;
  for (std::uint32_t at = dst; at != src;) {
    const std::uint32_t lid = ws.pred_link[at];
    if (lid == topo::kInvalidLink) return std::nullopt;
    p.links.push_back(lid);
    at = g.link_src[lid];
  }
  std::reverse(p.links.begin(), p.links.end());
  return p;
}

TEST(BatchSssp, MatchesShortestPathOnTieHeavyGraphs) {
  // The kernel's early-stopped multi-target runs at random residual
  // thresholds must extract, for every target, exactly the links of
  // te::shortest_path under the same constraints. Target lists carry
  // duplicates and unreachable nodes. One workspace serves every run;
  // midway its epoch is set to 0xffffffff so the next run crosses the
  // stamp wrap with stale stamps from earlier runs still in place.
  auto grid = tie_heavy_grid(9, 7);
  auto ring = tie_heavy_ring(24);
  auto cut_grid = grid;
  cut_grid.set_duplex_up(cut_grid.node(10).out_links.front(), false);
  const topo::Topology* graphs[] = {&grid, &ring, &cut_grid};
  util::Rng rng(77);
  SsspWorkspace ws;
  std::size_t compared = 0, unreachable = 0, runs = 0;
  for (int pass = 0; pass < 2; ++pass) {
    for (const topo::Topology* t : graphs) {
      const BatchGraph g = build_batch_graph(*t, CsrView::kUpLinks);
      std::vector<double> residual(t->num_links());
      for (double& r : residual)
        r = 10.0 * static_cast<double>(rng.uniform_int(0, 9));
      const auto n = static_cast<std::int64_t>(t->num_nodes());
      for (int trial = 0; trial < 60; ++trial) {
        if (pass == 1 && trial == 0) ws.epoch = 0xffffffffu;
        const auto src = static_cast<std::uint32_t>(rng.uniform_int(0, n - 1));
        const double threshold =
            10.0 * static_cast<double>(rng.uniform_int(0, 6));
        std::vector<std::uint32_t> targets;
        const auto count = rng.uniform_int(1, 8);
        for (std::int64_t k = 0; k < count; ++k) {
          const auto v = static_cast<std::uint32_t>(rng.uniform_int(0, n - 1));
          if (v == src) continue;
          targets.push_back(v);
          if (rng.uniform_int(0, 3) == 0) targets.push_back(v);  // duplicate
        }
        sssp(g, residual, threshold, src, targets.data(), targets.size(), ws);
        ++runs;
        if (pass == 1 && trial == 0) {
          ASSERT_EQ(ws.epoch, 1u);
        }
        SpConstraints c;
        c.residual_gbps = &residual;
        c.min_residual = threshold;
        for (std::uint32_t dst : targets) {
          const auto expected = shortest_path(*t, src, dst, c);
          ASSERT_EQ(extracted_path(g, ws, src, dst), expected)
              << "nodes " << t->num_nodes() << " src " << src << " dst "
              << dst << " threshold " << threshold << " run " << runs;
          ++compared;
          if (!expected) ++unreachable;
        }
      }
    }
  }
  EXPECT_GT(compared, 1000u);
  EXPECT_GT(unreachable, 50u);
  EXPECT_LT(unreachable, compared / 2);
}

// ---- Golden placements: the strict solver's output pinned bit for bit ----

// The corpus of tests/solver_golden.hpp through te::Solver at pool sizes
// 1 and 4 (both walking the path table) and with path_table = false (the
// search path alone). All three reproduce the same digests on this
// corpus. The tables pin the production solver on their own,
// independently of ReferenceSolver.
void expect_strict_golden(const topo::Topology& base, double pair_fraction,
                          const golden::GoldenTable& golden,
                          const std::string& name) {
  for (std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    ThreadPool pool(threads);
    const Solver solver(pooled(pool));
    golden::expect_golden_digests(
        base, pair_fraction, golden,
        (name + " pool " + std::to_string(threads)).c_str(),
        [&](const topo::Topology& view, const traffic::TrafficMatrix& tm,
            const std::vector<double>* residual) {
          return solver.solve(view, tm, nullptr, residual);
        });
  }
  SolverOptions search_only;
  search_only.path_table = false;
  golden::expect_golden_digests(
      base, pair_fraction, golden, (name + " no table").c_str(),
      [&](const topo::Topology& view, const traffic::TrafficMatrix& tm,
          const std::vector<double>* residual) {
        return Solver(search_only).solve(view, tm, nullptr, residual);
      });
}

TEST(StrictGolden, AbileneDigestsArePinned) {
  constexpr golden::GoldenTable kGolden = {{
      {0x853e94fd08a03f72, 0xfa8178a95aa499e7, 0x8c2b81c50304ae31},
      {0x04b3b3fbc518dfd8, 0x75692e3291c930c6, 0xcfb9595eda637f9d},
      {0x7c800df8a00955ef, 0x08acc0646700e22b, 0xfebb3b583076c551},
      {0xca1170d02bd85514, 0x738d1f372b3fb693, 0x477bd740db390d26},
      {0xe711e1144aea07c0, 0x86352771ee2c014d, 0x4d2ea81c6df04c92},
      {0x7d9adcbe2a1a1910, 0x3a1542b693a7f374, 0x1df9d79b9c02836b},
      {0x5c632b482b96eb95, 0x8dbdde593d66909d, 0xe92953b4e406034e},
      {0x81f083d7ede14abc, 0x53c9200abefc7f19, 0x25083532e1ed73a7},
  }};
  expect_strict_golden(topo::make_abilene(), 1.0, kGolden, "abilene");
}

TEST(StrictGolden, GeantDigestsArePinned) {
  constexpr golden::GoldenTable kGolden = {{
      {0xe25ae017385c2628, 0x043b2154d75733b8, 0x60eaf4e6bd3336c9},
      {0xc8ab330a06b3690d, 0x434da9ff3b6c563f, 0x954170d391ee6ba1},
      {0xdb26e66f81f8fff6, 0x23874627ae5ea9ff, 0x3fc795d94b9965af},
      {0x242cd78f784a86bb, 0xfb8ff03ed95a8fbf, 0x1fd26ea9e254c011},
      {0x6175822d68f22509, 0xba9665a4f372c737, 0xfafc6e0ceef168e9},
      {0x5d44c8a31d7c69ac, 0x635454424a2befcc, 0x64ddf3d393b9afe3},
      {0x90bcda2f6bd7739c, 0x9247a163f7697df5, 0x2253393eb56dce01},
      {0xdfd7e540f47b8a81, 0x852207e1edceb91f, 0xce2beabe3bacf254},
  }};
  expect_strict_golden(topo::make_geant(), 1.0, kGolden, "geant");
}

TEST(StrictGolden, B4DigestsArePinned) {
  constexpr golden::GoldenTable kGolden = {{
      {0xf40e832a965aee96, 0xd5fd8f6ca63b3cef, 0xeb54073450d1244b},
      {0xd4aa80d121318c00, 0x683b7fadbfa1ad74, 0x314012402c572b40},
      {0xcb2d10dde3570a40, 0xa26509408a71f9dc, 0xe2fcb546f316a960},
      {0x8e93916e3a4c2ea4, 0xa70353ae3f030458, 0xc08e53228ce903e4},
      {0x7162aae21d7d3b66, 0x6bd214302af0ec4c, 0xb653a9acd8215d2b},
      {0x05b41aaafa603603, 0xad0dd3adee4ae477, 0xaa15d1635e43f1ca},
      {0xec471891fddb6e7d, 0x93bf168944288064, 0x3e835b10491c8fa2},
      {0x3840e92e5c4aeefe, 0x5837e25265bb195b, 0xced28def57229c28},
  }};
  expect_strict_golden(topo::make_b4_like(), 0.15, kGolden, "b4");
}

}  // namespace
}  // namespace dsdn::te
