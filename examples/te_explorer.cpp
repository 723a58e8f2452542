// TE explorer: run the B4-style max-min fair TE solver on the TopologyZoo
// networks and compare against plain IGP shortest-path routing -- the
// efficiency argument for (d/c)SDN over greedy distributed placement
// (§2.1: centralized TE reaches up to 60% higher utilization than
// RSVP-TE's greedy CSPF).
//
//   $ ./example_te_explorer

#include <cstdio>

#include "te/dijkstra.hpp"
#include "te/solver.hpp"
#include "topo/zoo.hpp"
#include "traffic/gravity.hpp"
#include "util/format.hpp"

using namespace dsdn;

int main() {
  std::printf("%-10s %6s %8s | %22s | %22s\n", "network", "nodes", "demands",
              "shortest-path routing", "max-min fair TE");
  std::printf("%-10s %6s %8s | %10s %11s | %10s %11s\n", "", "", "",
              "max-util", "admitted", "max-util", "admitted");

  for (const auto& entry : topo::zoo_catalog()) {
    const topo::Topology topo = entry.factory();
    // Push the network hard: 1.8x over what shortest paths can carry.
    traffic::GravityParams gp;
    gp.target_max_utilization = 1.8;
    const auto tm = traffic::generate_gravity(topo, gp).aggregated();

    // Baseline: everything on IGP shortest paths, drop the excess.
    std::vector<double> load(topo.num_links(), 0.0);
    double admitted_sp = 0.0;
    for (const auto& d : tm.demands()) {
      const auto p = te::shortest_path(topo, d.src, d.dst);
      if (!p) continue;
      // Admission up to the bottleneck's remaining capacity.
      double bottleneck = 1e18;
      for (topo::LinkId l : p->links) {
        bottleneck = std::min(bottleneck,
                              topo.link(l).capacity_gbps - load[l]);
      }
      const double rate = std::min(d.rate_gbps, std::max(0.0, bottleneck));
      for (topo::LinkId l : p->links) load[l] += rate;
      admitted_sp += rate;
    }
    double maxutil_sp = 0.0;
    for (std::size_t l = 0; l < load.size(); ++l) {
      maxutil_sp = std::max(
          maxutil_sp, load[l] / topo.link(static_cast<topo::LinkId>(l))
                                    .capacity_gbps);
    }

    // TE: the same solver every dSDN controller runs.
    const auto solution = te::Solver().solve(topo, tm);

    std::printf("%-10s %6zu %8zu | %9.0f%% %10.0f%% | %9.0f%% %10.0f%%\n",
                entry.name, topo.num_nodes(), tm.size(), 100.0 * maxutil_sp,
                100.0 * admitted_sp / tm.total_rate_gbps(),
                100.0 * solution.max_utilization(topo),
                100.0 * solution.total_allocated_gbps() /
                    tm.total_rate_gbps());
  }
  std::printf("\nTE admits more of the offered load by spreading flows over "
              "non-shortest paths while never oversubscribing a link.\n");
  return 0;
}
