#pragma once

// Dijkstra shortest paths and CSPF (constrained shortest path first):
// shortest path by IGP metric subject to a minimum-residual-capacity
// constraint -- the primitive under both the TE solver and the RSVP-TE
// baseline headend computation [48].

#include <optional>
#include <span>
#include <vector>

#include "te/types.hpp"

namespace dsdn::te {

struct SpConstraints {
  // When set, a link is usable only if residual_gbps[link] >= min_residual.
  const std::vector<double>* residual_gbps = nullptr;
  double min_residual = 0.0;
  // When set, link ids marked false are excluded (e.g. the protected link
  // in FRR bypass computation).
  const std::vector<char>* link_allowed = nullptr;
  // Skip links that are administratively/operationally down (default on).
  bool require_up = true;
};

// Shortest src->dst path under the constraints, or nullopt if disconnected.
std::optional<Path> shortest_path(const topo::Topology& topo,
                                  topo::NodeId src, topo::NodeId dst,
                                  const SpConstraints& c = {});

// Shortest distance from `root` to every node over up links, where
// traversing link l costs link_cost[l]; +inf when unreachable. Same heap
// and relaxation order as shortest_path.
std::vector<double> shortest_distances(const topo::Topology& topo,
                                       topo::NodeId root,
                                       std::span<const double> link_cost);

}  // namespace dsdn::te
