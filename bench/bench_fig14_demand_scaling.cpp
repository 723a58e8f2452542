// Figure 14: Tcomp for B2 with the traffic demand scaled by a constant
// multiplier (0.25 .. 2.0) on a static topology, with 4 cores available
// to the router's TE (guaranteeing 2 cores for other control-plane use).
//
// Expected shape: runtime grows roughly linearly with the demand
// multiplier; the router curve sits ~1/0.68 above the server curve.
//
// The progressive-filling quantum is pinned to the base (1.0x) matrix so
// that heavier matrices genuinely take more waterfill rounds, as in the
// paper's solver.

#include <thread>

#include "bench_common.hpp"

#include "metrics/calibration.hpp"
#include "te/solver.hpp"
#include "te/thread_pool.hpp"

using namespace dsdn;

int main() {
  bench::banner("Figure 14: Tcomp vs traffic-demand multiplier (B2)");

  bench::BenchRun run("fig14_demand_scaling");
  const auto w = bench::b2_workload();
  bench::print_workload(w, "(at 1.0x)");
  run.workload(w);

  double max_rate = 0;
  for (const auto& d : w.tm.demands())
    max_rate = std::max(max_rate, d.rate_gbps);

  te::ThreadPool pool(std::min<std::size_t>(
      4, std::max<std::size_t>(1, std::thread::hardware_concurrency())));
  te::SolverOptions opt;
  opt.pool = &pool;
  opt.quantum_gbps = max_rate / 8.0;
  te::Solver solver(opt);

  std::printf("%11s  %18s  %18s  %8s\n", "multiplier", "Datacenter Server",
              "Arista Router", "rounds");
  double first = 0, last = 0;
  const double multipliers[] = {0.25, 0.5, 0.75, 1.0, 1.25, 1.5, 1.75, 2.0};
  for (const double m : multipliers) {
    const auto tm = w.tm.scaled(m);
    te::SolveStats stats;
    solver.solve(w.topo, tm, &stats);
    const double server = stats.wall_time_s;
    const double router = server / metrics::kRouterCpuSpeedRatio;
    std::printf("%10.2fx  %18s  %18s  %8zu\n", m,
                util::format_duration(server).c_str(),
                util::format_duration(router).c_str(), stats.rounds);
    if (m == multipliers[0]) first = server;
    last = server;
    char key[48];
    std::snprintf(key, sizeof(key), "tcomp_server_s.%.2fx", m);
    run.out().metric(key, server);
  }
  std::printf("\nshape check: 2.0x demand costs %.1fx the 0.25x solve "
              "(paper: roughly linear growth, still under the RSVP-TE "
              "convergence threshold at 2x)\n",
              last / first);
  run.out().metric("growth_2x_over_quarter", last / first);
  return 0;
}
