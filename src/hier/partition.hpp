#pragma once

// Region partitioner for the hierarchical plane runtime ("Recursive SDN
// for Carrier Networks", PAPERS.md): carves a WAN into a handful of
// connected regions so the top-level TE solve runs over O(regions)
// logical nodes instead of O(routers).
//
// The partitioner is metro-aware: nodes sharing a metro tag (the unit the
// synthetic B4/B2 generators and the Zoo reconstructions both populate)
// are never split across regions -- a metro's full-mesh routers summarize
// badly when torn apart. Topologies without metro tags degrade gracefully
// to node-granularity clustering. Growth is balanced multi-source BFS
// from farthest-first seeds, so every region is connected by
// construction (a requirement of the per-region solves, which restrict
// path search to intra-region links).

#include <cstdint>
#include <vector>

#include "topo/topology.hpp"

namespace dsdn::hier {

struct RegionPartition {
  std::size_t n_regions = 0;
  // node -> region index (every node is assigned).
  std::vector<std::uint32_t> region_of;
  // region -> member nodes, ascending.
  std::vector<std::vector<topo::NodeId>> members;
  // region -> border nodes (endpoints of inter-region links), ascending.
  std::vector<std::vector<topo::NodeId>> borders;
};

struct PartitionOptions {
  // 0 = auto: ~sqrt(nodes), clamped to [2, #metros] -- the size that
  // balances the top-level solve against the per-region solves.
  std::size_t n_regions = 0;
  // A region stops absorbing metros once it holds more than
  // target * (1 + balance_slack) nodes; the cap relaxes automatically if
  // growth stalls before every metro is assigned.
  double balance_slack = 0.15;
};

// Pure function of (topology, options): deterministic across runs.
RegionPartition partition_regions(const topo::Topology& topo,
                                  const PartitionOptions& options = {});

}  // namespace dsdn::hier
