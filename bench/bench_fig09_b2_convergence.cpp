// Figure 9: total convergence time on the B2-scale network -- RSVP-TE vs
// dSDN. Expected shape: RSVP-TE has a higher median (paper: 45.5 s vs
// 29.8 s) and a much heavier tail (the signaling stampede can run 10+
// minutes); dSDN's time is dominated by Tcomp on the big topology.

#include "bench_common.hpp"
#include "rsvp/rsvp_te.hpp"
#include "topo/builder.hpp"
#include "sim/convergence.hpp"
#include "te/solver.hpp"

using namespace dsdn;

int main() {
  bench::banner("Figure 9: total convergence in B2 -- RSVP-TE vs dSDN");

  bench::BenchRun run("fig09_b2_convergence");
  auto w = bench::b2_workload(/*target_util=*/1.25);
  bench::print_workload(w);
  run.workload(w);

  const std::size_t n_events = bench::full_scale() ? 40 : 12;
  run.out().param("n_events", n_events);

  // ---- RSVP-TE: real signaling simulation ----
  rsvp::RsvpParams rp;
  rp.seed = 0x95;
  rsvp::RsvpTeNetwork rsvp_net(&w.topo, w.tm, rp);
  const std::size_t established = rsvp_net.establish_all();
  std::printf("RSVP-TE: established %zu/%zu LSPs\n", established, w.tm.size());

  // Failure events: the most heavily reserved fibers (a cut of a loaded
  // trunk is what triggers mass restoration), connectivity-preserving.
  std::vector<topo::LinkId> fibers;
  {
    std::vector<std::pair<double, topo::LinkId>> ranked;
    for (const topo::Link& l : w.topo.links()) {
      if (l.reverse == topo::kInvalidLink || l.id > l.reverse) continue;
      ranked.emplace_back(
          rsvp_net.reserved()[l.id] + rsvp_net.reserved()[l.reverse], l.id);
    }
    std::sort(ranked.rbegin(), ranked.rend());
    topo::Topology probe = w.topo;
    for (const auto& [load, fiber] : ranked) {
      if (fibers.size() >= n_events) break;
      probe.set_duplex_up(fiber, false);
      if (topo::is_strongly_connected(probe)) fibers.push_back(fiber);
      probe.set_duplex_up(fiber, true);
    }
  }

  metrics::EmpiricalDistribution rsvp_conv;
  std::size_t total_crankbacks = 0;
  for (topo::LinkId fiber : fibers) {
    const auto result = rsvp_net.fail_fiber(fiber);
    if (result.affected_lsps > 0) rsvp_conv.add(result.convergence_time_s);
    total_crankbacks += result.crankbacks;
    rsvp_net.repair_fiber(fiber);
  }
  std::printf("RSVP-TE: %zu crankbacks across %zu failure events\n\n",
              total_crankbacks, fibers.size());

  // ---- dSDN: flood + measured router Tcomp + local Tprog ----
  metrics::EmpiricalDistribution router_tcomp;
  {
    te::Solver solver;
    const std::size_t runs = bench::full_scale() ? 10 : 4;
    for (std::size_t i = 0; i < runs; ++i) {
      te::SolveStats stats;
      solver.solve(w.topo, w.tm, &stats);
      router_tcomp.add(stats.wall_time_s / metrics::kRouterCpuSpeedRatio);
    }
  }
  sim::DsdnConvergenceConfig dcfg;
  dcfg.n_events = n_events;
  dcfg.measured_tcomp = router_tcomp;
  const auto dsdn = sim::measure_dsdn_convergence(w.topo, dcfg);

  // ---- Warm-start Tcomp on B2 single-link failures ----
  // The acceptance scenario for the incremental solver: on B2 scale a
  // single fiber cut touches a small fraction of the demand set, so the
  // warm recompute should be several times faster than from scratch.
  // Every warm solution is diff-checked against the scratch one; a
  // violation fails the bench.
  sim::IncrementalTcompConfig icfg;
  icfg.n_events = bench::full_scale() ? 12 : 6;
  const auto inc = sim::measure_incremental_tcomp(w.topo, w.tm, icfg);
  std::printf("--- Router Tcomp per single-fiber failure ---\n");
  std::printf("full  %s\n", bench::dist_row(inc.full_s).c_str());
  std::printf("warm  %s\n", bench::dist_row(inc.incremental_s).c_str());
  std::printf(
      "  => warm-start speedup: %.1fx median; reuse %.0f%% of allocations"
      " (%zu fallbacks, %zu checker violations)\n\n",
      inc.full_s.median() / inc.incremental_s.median(),
      inc.reuse_fraction.mean() * 100.0, inc.fallbacks,
      inc.checker_violations);

  // dSDN convergence when routers keep warm TE state: Tcomp sampled from
  // the measured incremental distribution, router-CPU scaled.
  auto wcfg = dcfg;
  wcfg.measured_tcomp =
      inc.incremental_s.scaled(1.0 / metrics::kRouterCpuSpeedRatio);
  const auto dsdn_warm = sim::measure_dsdn_convergence(w.topo, wcfg);

  std::printf("--- Total convergence time ---\n");
  std::printf("RSVP-TE    %s\n", bench::dist_row(rsvp_conv).c_str());
  std::printf("dSDN       %s\n", bench::dist_row(dsdn.total).c_str());
  std::printf("dSDN warm  %s\n", bench::dist_row(dsdn_warm.total).c_str());
  std::printf(
      "\nshape checks: RSVP median > dSDN median: %s;"
      " RSVP p98/p50 tail stretch %.1fx vs dSDN %.1fx\n",
      rsvp_conv.median() > dsdn.total.median() ? "yes" : "NO",
      rsvp_conv.percentile(98) / rsvp_conv.median(),
      dsdn.total.percentile(98) / dsdn.total.median());
  std::printf(
      "dSDN on B2 is dominated by Tcomp (paper: Tprop/Tprog are O(100ms)):"
      " measured router Tcomp mean = %s\n",
      util::format_duration(router_tcomp.mean()).c_str());

  // ---- Lossy-flood mode: Fig 9 under injected NSU loss ----
  // Every flooding hop loses the transfer with probability p and pays
  // bounded exponential-backoff retransmits; local programming also
  // transiently fails at p per attempt. The claim under test: dSDN's
  // convergence degrades gracefully (bounded by the retransmit budget),
  // not catastrophically.
  std::printf("\n--- dSDN under injected flood loss (bounded retransmits) ---\n");
  for (const double loss : {0.0, 0.01, 0.05, 0.10}) {
    auto lcfg = dcfg;
    lcfg.flood_loss_prob = loss;
    lcfg.prog_fail_prob = loss;
    const auto lossy = sim::measure_dsdn_convergence(w.topo, lcfg);
    std::printf("%4.0f%%     %s\n", loss * 100,
                bench::dist_row(lossy.total).c_str());
  }

  run.out().param("established_lsps", established);
  run.out().metric("rsvp.crankbacks", static_cast<double>(total_crankbacks));
  run.out().series("rsvp.total_s", rsvp_conv);
  run.out().series("dsdn.total_s", dsdn.total);
  run.out().series("dsdn.router_tcomp_s", router_tcomp);
  run.out().metric("median_ratio",
                   rsvp_conv.median() / dsdn.total.median());
  run.out().series("te.full_solve_s", inc.full_s);
  run.out().series("te.incremental_s", inc.incremental_s);
  run.out().series("dsdn.warm_total_s", dsdn_warm.total);
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
