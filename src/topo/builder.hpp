#pragma once

// Convenience construction of topologies from compact edge-list specs,
// used by the TopologyZoo reconstructions and tests.

#include <span>
#include <string>
#include <vector>

#include "topo/topology.hpp"

namespace dsdn::topo {

struct EdgeSpec {
  std::string a;
  std::string b;
  double capacity_gbps = 100.0;
  double igp_metric = 1.0;
  double delay_ms = 1.0;
};

struct NodeSpec {
  std::string name;
  std::string metro;          // defaults to `name` when empty
  double gravity_weight = 1.0;
};

// Builds a duplex topology from named nodes and edges. Nodes referenced
// only by edges are created implicitly with default attributes.
Topology build_from_specs(const std::vector<NodeSpec>& nodes,
                          const std::vector<EdgeSpec>& edges);

// Per node (indexed by NodeId), 1 iff it is reachable from `root` over
// up links (kForward), or reaches `root` over them (kBackward), without
// crossing a link in `excluded`.
enum class Reach { kForward, kBackward };
std::vector<char> reachable_over_up_links(const Topology& topo, NodeId root,
                                          Reach direction,
                                          std::span<const LinkId> excluded);

// True iff every node can reach every other over up links: node 0
// reaches every node and every node reaches node 0.
bool is_strongly_connected(const Topology& topo);

}  // namespace dsdn::topo
