// Ablation: sharded dSDN (§6 future work, EBB-style horizontal planes).
// The paper argues sharding is orthogonal to dSDN and would contain data
// plane failures to one shard. We quantify: the same base network and
// demand set run (a) as one dSDN plane and (b) as K independent planes
// of a hier::PlaneRuntime with striped capacity; for each fiber cut we
// measure the *blast fraction* -- what share of all flows could even be
// affected -- and the control-plane work (NSU deliveries) triggered by
// the event. Exits nonzero when K > 1 exposes more than 1/K + 5% of
// flows or disturbs more than one plane per event.

#include <algorithm>

#include "bench_common.hpp"
#include "hier/plane_runtime.hpp"
#include "sim/convergence.hpp"

using namespace dsdn;

int main() {
  bench::banner("Ablation: sharded dSDN -- failure containment");
  bench::BenchRun run("ablation_sharding");

  const auto base = topo::make_geant();
  traffic::GravityParams gp;
  gp.pair_fraction = 0.5;
  const auto tm = traffic::generate_gravity(base, gp).aggregated();
  std::printf("base network: %zu nodes, %zu links, %zu flows\n\n",
              base.num_nodes(), base.num_links(), tm.size());
  run.out().param("nodes", base.num_nodes());
  run.out().param("links", base.num_links());
  run.out().param("demands", tm.size());

  const auto fibers = sim::pick_failure_fibers(base, 4, 0x5A4D);
  run.out().param("failure_events", fibers.size());
  metrics::EmpiricalDistribution exposed_by_k;

  bool pass = true;
  std::printf("%8s %16s %18s %20s\n", "planes", "flows exposed",
              "NSU msgs/event", "planes disturbed");
  for (const std::size_t k : {std::size_t{1}, std::size_t{2},
                              std::size_t{4}}) {
    hier::PlaneRuntimeConfig config;
    config.planes = k;
    config.fib_cores = 0;  // control-plane containment only
    hier::PlaneRuntime runtime(base, tm, config);
    runtime.bootstrap();

    double exposed_total = 0;
    std::size_t msgs_total = 0;
    std::size_t disturbed_total = 0;
    std::size_t disturbed_max = 0;
    for (const topo::LinkId fiber : fibers) {
      // Fail the fiber in one plane (round-robin over events).
      const std::size_t victim = fiber % k;
      std::vector<std::size_t> before(k);
      for (std::size_t p = 0; p < k; ++p)
        before[p] = runtime.plane(p).messages_delivered();

      runtime.fail_fiber_in_plane(victim, fiber);

      std::size_t disturbed = 0, msgs = 0;
      for (std::size_t p = 0; p < k; ++p) {
        const std::size_t delta =
            runtime.plane(p).messages_delivered() - before[p];
        msgs += delta;
        if (delta > 0) ++disturbed;
      }
      exposed_total += static_cast<double>(
                           runtime.plane_demands(victim).size()) /
                       static_cast<double>(tm.size());
      msgs_total += msgs;
      disturbed_total += disturbed;
      disturbed_max = std::max(disturbed_max, disturbed);
      runtime.repair_fiber_in_plane(victim, fiber);
    }
    const double exposed_frac =
        exposed_total / static_cast<double>(fibers.size());
    std::printf("%8zu %15.1f%% %18zu %17.1f/%zu\n", k, 100.0 * exposed_frac,
                msgs_total / fibers.size(),
                static_cast<double>(disturbed_total) /
                    static_cast<double>(fibers.size()),
                k);
    exposed_by_k.add(exposed_frac);
    const std::string prefix = "k" + std::to_string(k) + "_";
    run.out().metric(prefix + "flows_exposed_fraction", exposed_frac);
    run.out().metric(prefix + "nsu_msgs_per_event",
                     static_cast<double>(msgs_total) /
                         static_cast<double>(fibers.size()));
    run.out().metric(prefix + "planes_disturbed",
                     static_cast<double>(disturbed_total) /
                         static_cast<double>(fibers.size()));

    if (k > 1) {
      const double bound = 1.0 / static_cast<double>(k) + 0.05;
      if (exposed_frac > bound) {
        std::printf("  [FAIL] K=%zu exposes %.1f%% of flows > %.1f%%\n", k,
                    100.0 * exposed_frac, 100.0 * bound);
        pass = false;
      }
      if (disturbed_max > 1) {
        std::printf("  [FAIL] K=%zu: a plane-local cut disturbed %zu "
                    "planes\n",
                    k, disturbed_max);
        pass = false;
      }
    }
  }
  run.out().series("flows_exposed_fraction_by_k", exposed_by_k);

  std::printf("\nshape check: with K planes only ~1/K of flows are even "
              "exposed to a fiber cut, and exactly one plane's control "
              "plane does any reconvergence work -- the EBB-style "
              "containment the paper projects for sharded dSDN: %s\n",
              pass ? "PASS" : "FAIL");
  return pass ? 0 : 1;
}
