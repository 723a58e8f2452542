// Figure 19 (Appendix B): distribution of transit-entry and encap-entry
// programming times in cSDN, aggregated over all routers and for the
// most-loaded (slowest) router.
//
// Expected shape: per-router medians vary ~10x across routers; each
// router's p99 sits 4-11x above its median; the slowest router's tail
// reaches tens of seconds -- which is why two-phase programming of a path
// (gated by its slowest transit router) gives cSDN its long Tprog.

#include "bench_common.hpp"
#include "csdn/programming.hpp"
#include "te/solver.hpp"

using namespace dsdn;

int main() {
  bench::banner("Figure 19: cSDN programming time distributions");

  const auto w = bench::b4_workload();
  util::Rng boot(0x19);
  metrics::ProgrammingLatencyModel model(w.topo.num_nodes(), boot);
  util::Rng rng(0x519);

  const std::size_t events_per_router = bench::full_scale() ? 20000 : 4000;
  metrics::EmpiricalDistribution agg_transit, agg_encap;
  metrics::EmpiricalDistribution max_transit, max_encap;
  const std::size_t slowest = model.slowest_router();
  for (std::size_t r = 0; r < w.topo.num_nodes(); ++r) {
    for (std::size_t i = 0; i < events_per_router / w.topo.num_nodes() + 1;
         ++i) {
      agg_transit.add(model.sample_transit(r, rng));
      agg_encap.add(model.sample_encap(r, rng));
    }
  }
  for (std::size_t i = 0; i < events_per_router; ++i) {
    max_transit.add(model.sample_transit(slowest, rng));
    max_encap.add(model.sample_encap(slowest, rng));
  }

  std::printf("%-18s %s\n", "Aggregate Transit",
              bench::dist_row(agg_transit).c_str());
  std::printf("%-18s %s\n", "Aggregate Encap",
              bench::dist_row(agg_encap).c_str());
  std::printf("%-18s %s\n", "Max Transit",
              bench::dist_row(max_transit).c_str());
  std::printf("%-18s %s\n\n", "Max Encap",
              bench::dist_row(max_encap).c_str());

  std::printf("tail stretch (p99/p50): aggregate transit %.1fx, "
              "slowest router transit %.1fx (paper: 4x-11x)\n",
              agg_transit.percentile(99) / agg_transit.median(),
              max_transit.percentile(99) / max_transit.median());
  std::printf("slowest/aggregate transit median ratio: %.1fx "
              "(paper: ~10x spread across routers)\n\n",
              max_transit.median() / agg_transit.median());

  // Consequence for whole-path programming: sample two-phase times over
  // the workload's real TE paths.
  const auto solution = te::Solver().solve(w.topo, w.tm);
  metrics::EmpiricalDistribution path_prog;
  for (const auto& a : solution.allocations) {
    for (const auto& wp : a.paths) {
      path_prog.add(
          csdn::two_phase_program(w.topo, wp.path, model, rng).enabled_s);
    }
  }
  std::printf("two-phase per-path programming over %zu real TE paths:\n  %s\n",
              path_prog.size(), bench::dist_row(path_prog).c_str());
  std::printf("network-wide Tprog is gated by the slowest path: p98 = %s\n",
              util::format_duration(path_prog.percentile(98)).c_str());
  return 0;
}
