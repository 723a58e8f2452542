// Figure 8 (a,b,c) + §5.1.1 headline: the three components of
// convergence time -- Tprop, Tcomp, Tprog -- for cSDN vs dSDN on the
// B4-scale network, plus the overall per-event network convergence time.
//
// Expected shape (paper): dSDN Tprop ~20x lower; dSDN Tcomp ~35% higher
// (router CPU); dSDN Tprog ~1000x lower; overall convergence 120-150x
// faster for dSDN.
//
// dSDN Tcomp here is *measured*: the real TE solver runs on this host and
// is scaled by the 1.9GHz/2.8GHz router-vs-server core-speed ratio.

#include <chrono>

#include "bench_common.hpp"
#include "sim/convergence.hpp"
#include "te/solver.hpp"

using namespace dsdn;

namespace {

metrics::EmpiricalDistribution measure_solver_times(
    const bench::Workload& w, std::size_t runs, double scale) {
  metrics::EmpiricalDistribution d;
  te::Solver solver;
  for (std::size_t i = 0; i < runs; ++i) {
    te::SolveStats stats;
    solver.solve(w.topo, w.tm, &stats);
    d.add(stats.wall_time_s * scale);
  }
  return d;
}

}  // namespace

int main() {
  bench::banner(
      "Figure 8: convergence components on B4 -- cSDN vs dSDN\n"
      "(dSDN Tcomp measured from real solver runs, router-CPU scaled)");

  bench::BenchRun run("fig08_convergence_components");
  const auto w = bench::b4_workload();
  bench::print_workload(w);
  run.workload(w);

  const std::size_t n_events = bench::full_scale() ? 400 : 150;
  run.out().param("n_events", n_events);

  // Tcomp is the same algorithm on the same inputs for both schemes;
  // measure it once on this host, then scale: x1 for the datacenter
  // server, x(2.8/1.9) for the router's slower control cores.
  const auto server_tcomp =
      measure_solver_times(w, bench::full_scale() ? 40 : 15, 1.0);
  const auto router_tcomp =
      server_tcomp.scaled(1.0 / metrics::kRouterCpuSpeedRatio);

  sim::DsdnConvergenceConfig dcfg;
  dcfg.n_events = n_events;
  dcfg.measured_tcomp = router_tcomp;
  const auto dsdn = sim::measure_dsdn_convergence(w.topo, dcfg);

  sim::CsdnConvergenceConfig ccfg;
  ccfg.n_events = n_events;
  ccfg.measured_tcomp = server_tcomp;
  const auto csdn = sim::measure_csdn_convergence(w.topo, w.tm, ccfg);

  std::printf("--- (a) Propagation time Tprop ---\n");
  std::printf("cSDN  %s\n", bench::dist_row(csdn.tprop).c_str());
  std::printf("dSDN  %s\n", bench::dist_row(dsdn.tprop).c_str());
  std::printf("  => cSDN/dSDN mean ratio: %.1fx (paper: ~20x)\n\n",
              csdn.tprop.mean() / dsdn.tprop.mean());

  std::printf("--- (b) Computation time Tcomp ---\n");
  std::printf("cSDN  %s\n", bench::dist_row(csdn.tcomp).c_str());
  std::printf("dSDN  %s\n", bench::dist_row(dsdn.tcomp).c_str());
  std::printf("  => dSDN/cSDN mean ratio: %.2fx (paper: ~1.35x)\n\n",
              dsdn.tcomp.mean() / csdn.tcomp.mean());

  std::printf("--- (c) Programming time Tprog ---\n");
  std::printf("cSDN  %s\n", bench::dist_row(csdn.tprog).c_str());
  std::printf("dSDN  %s\n", bench::dist_row(dsdn.tprog).c_str());
  std::printf("  => cSDN/dSDN mean ratio: %.0fx (paper: ~1000x)\n\n",
              csdn.tprog.mean() / dsdn.tprog.mean());

  std::printf("--- Overall per-event network convergence time ---\n");
  std::printf("cSDN  %s\n", bench::dist_row(csdn.total).c_str());
  std::printf("dSDN  %s\n", bench::dist_row(dsdn.total).c_str());
  std::printf("  => cSDN/dSDN mean ratio: %.0fx (paper: 120-150x)\n",
              csdn.total.mean() / dsdn.total.mean());

  // ---- Warm-start Tcomp: incremental recompute vs from-scratch ----
  // Single-link failures invalidate only the paths crossing the fiber;
  // the incremental solver re-waterfills just those demands. Both times
  // are wall-clock on this host for the identical post-failure view.
  // Every warm solution is diff-checked against the scratch one; a
  // violation fails the bench.
  sim::IncrementalTcompConfig icfg;
  icfg.n_events = bench::full_scale() ? 40 : 15;
  const auto inc = sim::measure_incremental_tcomp(w.topo, w.tm, icfg);
  std::printf("\n--- Tcomp per single-fiber failure: full vs warm-start ---\n");
  std::printf("full  %s\n", bench::dist_row(inc.full_s).c_str());
  std::printf("warm  %s\n", bench::dist_row(inc.incremental_s).c_str());
  std::printf(
      "  => warm-start speedup: %.1fx median, %.1fx mean; reuse %.0f%% of "
      "allocations (%zu fallbacks, %zu checker violations)\n",
      inc.full_s.median() / inc.incremental_s.median(),
      inc.full_s.mean() / inc.incremental_s.mean(),
      inc.reuse_fraction.mean() * 100.0, inc.fallbacks,
      inc.checker_violations);

  run.out().series("csdn.tprop_s", csdn.tprop);
  run.out().series("dsdn.tprop_s", dsdn.tprop);
  run.out().series("csdn.tcomp_s", csdn.tcomp);
  run.out().series("dsdn.tcomp_s", dsdn.tcomp);
  run.out().series("csdn.tprog_s", csdn.tprog);
  run.out().series("dsdn.tprog_s", dsdn.tprog);
  run.out().series("csdn.total_s", csdn.total);
  run.out().series("dsdn.total_s", dsdn.total);
  run.out().metric("tprop_ratio", csdn.tprop.mean() / dsdn.tprop.mean());
  run.out().metric("tcomp_ratio", dsdn.tcomp.mean() / csdn.tcomp.mean());
  run.out().metric("tprog_ratio", csdn.tprog.mean() / dsdn.tprog.mean());
  run.out().metric("total_ratio", csdn.total.mean() / dsdn.total.mean());
  run.out().series("te.full_solve_s", inc.full_s);
  run.out().series("te.incremental_s", inc.incremental_s);
  run.out().metric("incremental_speedup_median",
                   inc.full_s.median() / inc.incremental_s.median());
  run.out().metric("reuse_fraction_mean", inc.reuse_fraction.mean());
  run.out().metric("fallbacks", static_cast<double>(inc.fallbacks));
  run.out().metric("checker_violations",
                   static_cast<double>(inc.checker_violations));
  if (inc.checker_violations > 0) {
    std::printf("  [FAIL] warm-start solutions broke the differential "
                "check\n");
    return 1;
  }
  return 0;
}
