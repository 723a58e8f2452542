#include "traffic/gravity.hpp"

#include <cmath>
#include <stdexcept>

#include "te/path_cache.hpp"

namespace dsdn::traffic {

double shortest_path_max_utilization(const topo::Topology& topo,
                                     const TrafficMatrix& tm) {
  std::vector<double> load(topo.num_links(), 0.0);
  const te::PathTables paths = te::PathTables::of(topo);
  std::vector<topo::LinkId> path;
  for (const Demand& d : tm.demands()) {
    path.clear();
    paths.up_path(d.src, d.dst, path);
    for (topo::LinkId l : path) load[l] += d.rate_gbps;
  }
  double worst = 0.0;
  for (std::size_t l = 0; l < load.size(); ++l) {
    worst = std::max(
        worst, load[l] / topo.link(static_cast<topo::LinkId>(l)).capacity_gbps);
  }
  return worst;
}

TrafficMatrix generate_gravity(const topo::Topology& topo,
                               const GravityParams& params) {
  if (topo.num_nodes() < 2)
    throw std::invalid_argument("generate_gravity: need >= 2 nodes");
  util::Rng rng(params.seed);

  double weight_total = 0.0;
  for (const topo::Node& n : topo.nodes()) weight_total += n.gravity_weight;

  TrafficMatrix tm;
  for (topo::NodeId i = 0; i < topo.num_nodes(); ++i) {
    for (topo::NodeId j = 0; j < topo.num_nodes(); ++j) {
      if (i == j) continue;
      // Only generate traffic between distinct metros: intra-metro traffic
      // stays on the DC fabric, not the WAN.
      if (topo.node(i).metro == topo.node(j).metro) continue;
      if (params.pair_fraction < 1.0 && !rng.bernoulli(params.pair_fraction))
        continue;
      const double gravity = topo.node(i).gravity_weight *
                             topo.node(j).gravity_weight / weight_total;
      const double jitter = rng.lognormal_median(1.0, params.jitter_sigma);
      const double pair_rate = gravity * jitter;
      for (int c = 0; c < metrics::kNumPriorityClasses; ++c) {
        const double rate = pair_rate * params.class_share[c];
        if (rate <= 0.0) continue;
        tm.add(Demand{i, j, static_cast<metrics::PriorityClass>(c), rate});
      }
    }
  }
  if (tm.empty()) return tm;

  // Normalize: pin shortest-path max utilization to the target.
  const double raw_util = shortest_path_max_utilization(topo, tm);
  if (raw_util <= 0.0) return tm;
  return tm.scaled(params.target_max_utilization / raw_util);
}

}  // namespace dsdn::traffic
