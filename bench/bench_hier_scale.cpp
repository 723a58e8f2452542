// Scale proof for the hierarchical plane runtime (ROADMAP item 1).
//
// Phase 1 -- solve scaling: flat te::Solver vs the two-level hierarchical
// solve on B2-growth-extrapolated topologies (1k-10k nodes). GATES at the
// largest (>= 1k node) point: hierarchical solve >= 5x faster than flat
// with a measured throughput gap <= 10% (check_optimality_gap).
//
// Phase 2 -- blast radius: K=4 planes; (a) deterministically fail/restore
// each plane and GATE exposed fraction < 1/K + slack per failure; (b) a
// seeded scenario swarm (plane-local cuts, cross-plane SRLGs, plane
// crash/rebalance/restore) that must come back with zero invariant
// violations. Quick mode runs a smoke-size swarm; DSDN_BENCH_SCALE=full
// runs the 100+-seed swarm the acceptance bar asks for.
//
// Exit status is the gate: non-zero when any bound is missed, so the CI
// artifact leg doubles as a regression tripwire.

#include <chrono>
#include <cmath>
#include <thread>

#include "bench_common.hpp"
#include "hier/scenario.hpp"
#include "hier/solver.hpp"
#include "te/parallel_solver.hpp"

using namespace dsdn;

namespace {

struct ScaleRow {
  std::string label;
  std::size_t nodes = 0;
  std::size_t demands = 0;
  std::size_t regions = 0;
  double flat_s = 0.0;
  double hier_s = 0.0;
  double build_s = 0.0;
  double speedup = 0.0;
  double gap = 0.0;
  bool gap_ok = true;
};

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

int main() {
  bench::banner("Hierarchical scale proof: two-level solve + plane blast radius");
  bench::BenchRun run("hier_scale");

  const bool full = bench::full_scale();
  std::size_t threads = std::thread::hardware_concurrency();
  if (threads == 0) threads = 4;
  te::ThreadPool pool(threads);

  // ---- Phase 1: flat vs hierarchical solve on the growth curve --------
  const std::size_t points = full ? 4 : 2;
  const double max_scale = full ? 10.0 : 2.0;
  const auto snaps = topo::b2_growth_extrapolated(points, max_scale);

  std::printf("phase 1: flat vs hierarchical solve (%zu threads)\n\n",
              threads);
  std::printf("%8s %7s %8s %8s %10s %10s %10s %9s %7s\n", "snap", "nodes",
              "demands", "regions", "flat", "hier", "build", "speedup",
              "gap");

  std::vector<ScaleRow> rows;
  for (std::size_t i = 0; i < snaps.size(); ++i) {
    const auto& snap = snaps[i];
    const double scale =
        points > 1 ? std::pow(max_scale, static_cast<double>(i) /
                                             static_cast<double>(points - 1))
                   : 1.0;
    traffic::GravityParams gp;
    // Shrink the pair fraction with scale so the demand count stays
    // bounded while node count grows (the Fig 16 regime).
    gp.pair_fraction = (full ? 0.02 : 0.01) / scale;
    gp.target_max_utilization = 0.6;
    gp.seed = 0xB2B2;
    const auto tm = traffic::generate_gravity(snap.topo, gp).aggregated();

    // Best-of-2 cold solves on each side: single-shot wall times on a
    // shared machine are too noisy to gate a ratio on.
    te::SolverOptions flat_options;
    flat_options.pool = &pool;
    te::Solution flat;
    double flat_s = 0.0;
    for (int rep = 0; rep < 2; ++rep) {
      te::SolveStats flat_stats;
      flat = te::Solver(flat_options).solve(snap.topo, tm, &flat_stats);
      flat_s = rep == 0 ? flat_stats.wall_time_s
                        : std::min(flat_s, flat_stats.wall_time_s);
    }

    const double build_start = now_s();
    const auto hierarchy = hier::build_hierarchy(snap.topo);
    const double build_s = now_s() - build_start;

    hier::HierOptions hier_options;
    hier_options.pool = &pool;
    hier::HierSolveStats hier_stats;
    te::Solution hsol;
    double hier_s = 0.0;
    for (int rep = 0; rep < 2; ++rep) {
      hsol = hier::solve_hierarchical(snap.topo, tm, hierarchy, hier_options,
                                      &hier_stats);
      hier_s = rep == 0 ? hier_stats.wall_time_s
                        : std::min(hier_s, hier_stats.wall_time_s);
    }

    hier::GapOptions gap_options;
    gap_options.max_gap_fraction = 0.10;
    const auto gap =
        hier::check_optimality_gap(snap.topo, tm, hsol, flat, gap_options);

    ScaleRow row;
    row.label = snap.label;
    row.nodes = snap.topo.num_nodes();
    row.demands = tm.size();
    row.regions = hier_stats.n_regions;
    row.flat_s = flat_s;
    row.hier_s = hier_s;
    row.build_s = build_s;
    row.speedup = row.hier_s > 0 ? row.flat_s / row.hier_s : 0.0;
    row.gap = gap.gap_fraction;
    row.gap_ok = gap.ok();
    rows.push_back(row);

    std::printf("%8s %7zu %8zu %8zu %10s %10s %10s %8.1fx %6.1f%%\n",
                row.label.c_str(), row.nodes, row.demands, row.regions,
                util::format_duration(row.flat_s).c_str(),
                util::format_duration(row.hier_s).c_str(),
                util::format_duration(row.build_s).c_str(), row.speedup,
                100.0 * row.gap);
    std::printf("         breakdown: top %s, regions %s, stitch %s, "
                "%zu logical / %zu segment rows\n",
                util::format_duration(hier_stats.top_solve_s).c_str(),
                util::format_duration(hier_stats.region_solve_s).c_str(),
                util::format_duration(hier_stats.stitch_s).c_str(),
                hier_stats.logical_demands, hier_stats.segment_demands);
    if (!gap.ok()) {
      for (const auto& v : gap.violations)
        std::printf("    gap violation: %s\n", v.c_str());
    }
  }

  // The gate point: the largest snapshot with >= 1000 nodes.
  const ScaleRow* gate = nullptr;
  for (const auto& row : rows) {
    if (row.nodes >= 1000) gate = &row;
  }
  if (gate == nullptr) gate = &rows.back();

  // Two independent verdicts: the solve gate (phase 1) and the 1/K
  // plane-containment bar (phase 2).
  bool solve_pass = true;
  std::printf("\ngate @ %s (%zu nodes): speedup %.1fx (need >= 5x), "
              "gap %.1f%% (need <= 10%%)\n",
              gate->label.c_str(), gate->nodes, gate->speedup,
              100.0 * gate->gap);
  if (gate->nodes < 1000) {
    std::printf("  [FAIL] no >= 1000-node snapshot in the sweep\n");
    solve_pass = false;
  }
  if (gate->speedup < 5.0) {
    std::printf("  [FAIL] hierarchical speedup %.1fx < 5x\n", gate->speedup);
    solve_pass = false;
  }
  if (!gate->gap_ok) {
    std::printf("  [FAIL] optimality-gap harness flagged violations\n");
    solve_pass = false;
  }

  run.out().param("threads", static_cast<std::uint64_t>(threads));
  run.out().param("scale_points", static_cast<std::uint64_t>(rows.size()));
  run.out().param("gate_nodes", static_cast<std::uint64_t>(gate->nodes));
  run.out().param("gate_demands", static_cast<std::uint64_t>(gate->demands));
  run.out().metric("flat_solve_s", gate->flat_s);
  run.out().metric("hier_solve_s", gate->hier_s);
  run.out().metric("hier_build_s", gate->build_s);
  run.out().metric("speedup", gate->speedup);
  run.out().metric("gap_fraction", gate->gap);

  // ---- Phase 2a: deterministic plane-failure blast radius -------------
  const std::size_t kPlanes = 4;
  std::printf("\nphase 2: plane blast radius (K=%zu planes)\n\n", kPlanes);

  const auto base = topo::make_geant();
  traffic::GravityParams gp;
  gp.pair_fraction = 0.4;
  gp.seed = 0xB1A5;
  const auto tm = traffic::generate_gravity(base, gp).aggregated();
  std::printf("base: %zu nodes, %zu links, %zu flows\n", base.num_nodes(),
              base.num_links(), tm.size());

  hier::PlaneRuntimeConfig config;
  config.planes = kPlanes;
  config.score_packets = 256;
  config.pool = &pool;
  hier::PlaneRuntime runtime(base, tm, config);
  runtime.bootstrap();

  bool containment_pass = true;
  metrics::EmpiricalDistribution exposed;
  double exposed_max = 0.0;
  const double bound = 1.0 / static_cast<double>(kPlanes) + 0.05;
  std::printf("\n%8s %14s %12s %14s %12s\n", "victim", "moved flows",
              "exposed", "hard drops", "bound");
  for (std::size_t p = 0; p < kPlanes; ++p) {
    const auto report = runtime.fail_plane(p);
    exposed.add(report.exposed_fraction);
    exposed_max = std::max(exposed_max, report.exposed_fraction);
    std::printf("%8zu %14zu %11.1f%% %14zu %11.1f%%\n", p,
                report.moved_flows, 100.0 * report.exposed_fraction,
                report.score_hard_drops, 100.0 * bound);
    if (report.exposed_fraction >= bound) {
      std::printf("  [FAIL] plane %zu exposed %.1f%% >= bound %.1f%%\n", p,
                  100.0 * report.exposed_fraction, 100.0 * bound);
      containment_pass = false;
    }
    if (report.score_hard_drops != 0) {
      std::printf("  [FAIL] plane %zu rebalance scored hard drops\n", p);
      containment_pass = false;
    }
    runtime.restore_plane(p);
  }

  // ---- Phase 2b: seeded scenario swarm --------------------------------
  const std::size_t n_seeds = full ? 120 : 25;
  hier::PlaneScenarioOptions scenario;
  scenario.planes = kPlanes;
  scenario.n_events = 8;
  scenario.score_packets = full ? 256 : 64;
  // Cold re-solve parity per plane per event is the tier-1 swarm leg's
  // job; here the swarm covers event-space breadth instead.
  scenario.invariants.check_solution_parity = full;

  const auto swarm_base = topo::make_abilene();
  traffic::GravityParams swarm_gp;
  swarm_gp.pair_fraction = 0.5;
  swarm_gp.seed = 0xABE;
  const auto swarm_tm =
      traffic::generate_gravity(swarm_base, swarm_gp).aggregated();

  std::size_t violations = 0, events = 0, rebalances = 0, checks = 0;
  for (std::uint64_t seed = 1; seed <= n_seeds; ++seed) {
    const auto r =
        hier::run_plane_scenario(swarm_base, swarm_tm, scenario, seed);
    violations += r.violations.size();
    events += r.events_applied;
    rebalances += r.rebalances;
    checks += r.invariant_checks;
    if (r.rebalances > 0) {
      exposed.add(r.max_exposed_fraction);
      exposed_max = std::max(exposed_max, r.max_exposed_fraction);
    }
    if (!r.ok()) {
      std::printf("  [FAIL] seed %llu:\n",
                  static_cast<unsigned long long>(seed));
      for (const auto& v : r.violations)
        std::printf("    %s\n", v.c_str());
      containment_pass = false;
    }
  }
  std::printf("\nswarm: %zu seeds, %zu events, %zu rebalances, "
              "%zu invariant checks, %zu violations\n",
              n_seeds, events, rebalances, checks, violations);
  std::printf("exposed fraction: mean %.1f%%, max %.1f%% "
              "(crash bound is 1/alive + slack per event)\n",
              100.0 * exposed.mean(), 100.0 * exposed_max);

  run.out().param("planes", static_cast<std::uint64_t>(kPlanes));
  run.out().param("swarm_seeds", static_cast<std::uint64_t>(n_seeds));
  run.out().metric("swarm_violations", static_cast<double>(violations));
  run.out().metric("swarm_rebalances", static_cast<double>(rebalances));
  run.out().metric("exposed_fraction_mean", exposed.mean());
  run.out().metric("exposed_fraction_max", exposed_max);
  run.out().series("exposed_fraction", exposed);

  std::printf("\nsolve gate: %s -- hierarchical solve %s the >= 5x / "
              "<= 10%% gate at %zu nodes.\n",
              solve_pass ? "PASS" : "FAIL", solve_pass ? "clears" : "misses",
              gate->nodes);
  std::printf("containment: %s -- plane failures %s the 1/K containment "
              "bar and the swarm is %s.\n",
              containment_pass ? "PASS" : "FAIL",
              containment_pass ? "stay inside" : "break",
              containment_pass ? "clean" : "not clean");
  const bool pass = solve_pass && containment_pass;
  run.out().metric("gates_passed", pass ? 1.0 : 0.0);
  return pass ? 0 : 1;
}
