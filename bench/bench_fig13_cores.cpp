// Figure 13: Tcomp for the B2 workload as a function of the number of
// cores running TE, for a datacenter server (2.8 GHz cores) vs an Arista
// router (1.9 GHz cores).
//
// Methodology: the real solver is run at every thread count this host
// has; beyond that, the curve is extrapolated with Amdahl's law using the
// *measured* serial fraction (the solver's serialized flow-assignment
// step -- the same step the paper identifies as the flattening cause).
// Router times are server times scaled by the 1.9/2.8 core-speed ratio.
//
// The curve and its fit run with SolverOptions::path_table off: the
// search-bound solve the paper's Fig 13 measures. Over the Fig 15 table
// a B2 solve runs almost no searches, so it has nothing to spread over
// cores; its 1-thread median is printed beside the curve.
//
// Expected shape: improvement up to ~5 cores, then flat; the router curve
// sits ~40% above the server curve at every core count.

#include <atomic>
#include <chrono>
#include <thread>

#include "bench_common.hpp"

#include "core/introspection.hpp"
#include "metrics/calibration.hpp"
#include "te/path_cache.hpp"
#include "te/solver.hpp"
#include "te/thread_pool.hpp"

using namespace dsdn;

int main() {
  bench::banner("Figure 13: Tcomp vs number of cores (B2)");

  bench::BenchRun run("fig13_cores");
  const auto w = bench::b2_workload();
  bench::print_workload(w);
  run.workload(w);

  const std::size_t hw = std::max<std::size_t>(
      1, std::thread::hardware_concurrency());
  const std::size_t runs = bench::full_scale() ? 5 : 3;
  run.out().param("hw_threads", hw);
  run.out().param("runs", runs);

  // Per-call dispatch overhead of parallel_for on a tiny index space --
  // the persistent pool's replacement for the seed's per-call thread
  // spawn+join, which polluted exactly the small-n rounds that dominate
  // late waterfill iterations.
  {
    te::ThreadPool pool(8);
    std::atomic<std::size_t> sink{0};
    constexpr int kReps = 2000;
    const auto t0 = std::chrono::steady_clock::now();
    for (int rep = 0; rep < kReps; ++rep) {
      pool.parallel_for(8, [&](std::size_t i) {
        sink.fetch_add(i, std::memory_order_relaxed);
      });
    }
    const double per_call =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count() /
        kReps;
    std::printf("parallel_for dispatch overhead (n=8, 8-thread pool%s): "
                "%.1f us/call\n\n",
                hw < 8 ? ", oversubscribed" : "", per_call * 1e6);
    run.out().metric("dispatch_overhead_us", per_call * 1e6);
  }

  te::SolverOptions no_table;
  no_table.path_table = false;

  // Cold-solve medians, single-threaded: without the table (the solve
  // the curve below scales) and over a built table (what a router that
  // keeps its table runs).
  const auto cold_median = [&](const te::Solver& solver) {
    std::vector<double> times;
    for (std::size_t r = 0; r < runs; ++r) {
      te::SolveStats s;
      solver.solve(w.topo, w.tm, &s);
      times.push_back(s.wall_time_s);
    }
    std::sort(times.begin(), times.end());
    return times[times.size() / 2];
  };
  {
    const double batch_med = cold_median(te::Solver(no_table));
    const auto table = te::PathCache::of(w.topo);
    const double table_med = cold_median(te::Solver());
    std::printf("cold solve median (1 thread, %zu runs): %s without the "
                "path table, %s over it\n\n",
                runs, util::format_duration(batch_med).c_str(),
                util::format_duration(table_med).c_str());
    run.out().metric("cold_median_batch_s", batch_med);
    run.out().metric("cold_median_table_s", table_med);
  }

  // Measure at each available thread count, sharing one persistent pool
  // per thread count across the repeat runs (workers spawn once).
  std::vector<std::pair<std::size_t, double>> measured;
  double alloc_share = 0.0;  // timer-based share of the serialized step
  for (std::size_t threads = 1; threads <= hw; ++threads) {
    te::ThreadPool pool(threads);
    te::SolverOptions opt = no_table;
    opt.pool = &pool;
    te::Solver solver(opt);
    double best = 1e18;
    te::SolveStats stats;
    for (std::size_t r = 0; r < runs; ++r) {
      te::SolveStats s;
      solver.solve(w.topo, w.tm, &s);
      if (s.wall_time_s < best) {
        best = s.wall_time_s;
        stats = s;
      }
    }
    measured.emplace_back(threads, best);
    if (threads == 1) {
      alloc_share = (stats.wall_time_s - stats.path_search_time_s) /
                    stats.wall_time_s;
    }
  }

  // The honest-scaling checkpoint: one solve on an 8-thread pool (the
  // acceptance point tracked in EXPERIMENTS.md), with the pool's own
  // scheduling counters. Oversubscribed when the host has fewer cores.
  {
    te::ThreadPool pool(8);
    te::SolverOptions opt = no_table;
    opt.pool = &pool;
    te::Solver solver(opt);
    double best = 1e18;
    for (std::size_t r = 0; r < runs; ++r) {
      te::SolveStats s;
      solver.solve(w.topo, w.tm, &s);
      best = std::min(best, s.wall_time_s);
    }
    std::printf("8-thread solve%s: %s best-of-%zu\n",
                hw < 8 ? " (oversubscribed)" : "",
                util::format_duration(best).c_str(), runs);
    std::printf("%s\n", core::render_pool_stats(pool.stats()).c_str());
    run.out().metric("tcomp_8thread_best_s", best);
  }

  // Fit Amdahl T(n) = serial + parallel/n to the *measured* points: the
  // effective serial share includes the serialized allocation step plus
  // per-round dispatch and imbalance overheads -- exactly what makes
  // the paper's curve flatten around 5 cores. With fewer than two
  // measured thread counts (single-core hosts) the fit is singular; fall
  // back to the timer-based split of the 1-core solve.
  double serial_time, parallel_time;
  bool fitted = false;
  if (measured.size() >= 2) {
    double s11 = 0, s1x = 0, sx1 = 0, sxx = 0, sy = 0, sxy = 0;
    for (const auto& [n, t] : measured) {
      const double x = 1.0 / static_cast<double>(n);
      s11 += 1;
      s1x += x;
      sx1 += x;
      sxx += x * x;
      sy += t;
      sxy += x * t;
    }
    const double det = s11 * sxx - s1x * sx1;
    if (std::abs(det) > 1e-12) {
      serial_time = (sxx * sy - s1x * sxy) / det;
      parallel_time = (s11 * sxy - sx1 * sy) / det;
      serial_time = std::max(serial_time, 0.0);
      fitted = std::isfinite(serial_time) && std::isfinite(parallel_time);
    }
  }
  if (!fitted) {
    const double t1 = measured.front().second;
    serial_time = alloc_share * t1;
    parallel_time = t1 - serial_time;
  }

  std::printf("serialized flow-assignment step (timers): %.0f%% of the "
              "1-core solve;\neffective serial share %s: %.0f%%\n\n",
              100.0 * alloc_share,
              fitted ? "fitted from measured scaling"
                     : "from timers (too few cores to fit)",
              100.0 * serial_time / (serial_time + parallel_time));
  std::printf("%6s  %18s  %18s\n", "cores", "Datacenter Server",
              "Arista Router");
  for (std::size_t cores = 1; cores <= 16; ++cores) {
    double server;
    if (cores <= hw) {
      server = measured[cores - 1].second;
    } else {
      // Amdahl extrapolation from the measured split.
      server = serial_time + parallel_time / static_cast<double>(cores);
    }
    const double router = server / metrics::kRouterCpuSpeedRatio;
    std::printf("%6zu  %18s  %18s%s\n", cores,
                util::format_duration(server).c_str(),
                util::format_duration(router).c_str(),
                cores <= hw ? "  (measured)" : "  (Amdahl)");
  }

  // Where does adding a core stop paying? First core count whose
  // marginal improvement drops under 5%.
  std::size_t flat_at = 16;
  for (std::size_t cores = 2; cores <= 16; ++cores) {
    const double prev =
        serial_time + parallel_time / static_cast<double>(cores - 1);
    const double cur = serial_time + parallel_time / static_cast<double>(cores);
    if ((prev - cur) / prev < 0.05) {
      flat_at = cores;
      break;
    }
  }
  std::printf(
      "\nshape checks: marginal gain per extra core drops under 5%% at "
      "%zu cores (paper: flattens ~5); router/server ratio %.2fx at every "
      "point (paper: faster cores improve Tcomp up to ~41%%)\n",
      flat_at, 1.0 / metrics::kRouterCpuSpeedRatio);

  for (const auto& [n, t] : measured) {
    run.out().metric("tcomp_server_s." + std::to_string(n) + "core", t);
  }
  run.out().metric("serial_share",
                   serial_time / (serial_time + parallel_time));
  run.out().metric("flattens_at_cores", static_cast<double>(flat_at));
  return 0;
}
