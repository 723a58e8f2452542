// Blast radius of the sharded plane runtime (§6): K=4 planes; (a)
// deterministically fail/restore each plane and GATE exposed fraction
// < 1/K + slack per failure; (b) a seeded scenario swarm (plane-local
// cuts, cross-plane SRLGs, plane crash/rebalance/restore) that must come
// back with zero invariant violations. Quick mode runs a smoke-size
// swarm; DSDN_BENCH_SCALE=full runs the 100+-seed swarm the acceptance
// bar asks for.
//
// Exit status is the gate: non-zero when any bound is missed, so the CI
// artifact leg doubles as a regression tripwire.

#include "bench_common.hpp"
#include "hier/scenario.hpp"

using namespace dsdn;

int main() {
  bench::banner("Plane blast radius: fail/restore containment + swarm");
  bench::BenchRun run("hier_scale");

  const bool full = bench::full_scale();

  // ---- Deterministic plane-failure blast radius -----------------------
  const std::size_t kPlanes = 4;
  std::printf("plane blast radius (K=%zu planes)\n\n", kPlanes);

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

  // ---- Seeded scenario swarm -----------------------------------------
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

  std::printf("\ncontainment: %s -- plane failures %s the 1/K containment "
              "bar and the swarm is %s.\n",
              containment_pass ? "PASS" : "FAIL",
              containment_pass ? "stay inside" : "break",
              containment_pass ? "clean" : "not clean");
  run.out().metric("gates_passed", containment_pass ? 1.0 : 0.0);
  return containment_pass ? 0 : 1;
}
