#pragma once

// Synthetic WAN generators standing in for the paper's production
// topologies (see DESIGN.md substitutions):
//
//   make_b4_like  -- O(100) routers across ~33 metros, datacenter WAN
//                    style: few routers per metro, rich inter-metro mesh.
//   make_b2_like  -- O(1000) routers: ~6x more nodes and ~10x more links
//                    than B4 (§5.3), ISP-backbone style.
//   b2_growth_snapshots -- quarterly snapshots over three years growing
//                    toward ~1000 nodes (Fig 16).
//   make_geo_network (detail) -- deterministic geographic generator used
//                    by the above and by the Zoo reconstructions: hubs on
//                    a plane, Waxman-style core chords, spur attachment.

#include <string>
#include <vector>

#include "topo/topology.hpp"

namespace dsdn::topo {

namespace detail {

struct GeoNetworkParams {
  std::size_t n_nodes = 100;
  std::size_t n_hubs = 20;          // core routers forming the backbone
  std::size_t avg_spur_degree = 1;  // extra uplinks per non-hub node
  std::size_t extra_core_chords = 10;
  double capacity_core_gbps = 100.0;
  double capacity_spur_gbps = 10.0;
  std::uint64_t seed = 1;
  const char* name_prefix = "n";
};

Topology make_geo_network(const GeoNetworkParams& params);

}  // namespace detail

struct B4LikeParams {
  std::size_t n_metros = 33;
  std::size_t routers_per_metro = 3;
  std::uint64_t seed = 0xB4B4;
};

Topology make_b4_like(const B4LikeParams& params = {});

struct B2LikeParams {
  // Defaults give ~960 nodes and ~10x B4's links, per §5.3 ("6x more
  // nodes, 10x more links, 30x more flows").
  std::size_t n_metros = 160;
  std::size_t routers_per_metro = 6;
  std::uint64_t seed = 0xB2B2;
  double scale = 1.0;  // scales n_metros; used by growth snapshots
};

Topology make_b2_like(const B2LikeParams& params = {});

struct GrowthSnapshot {
  std::string label;  // e.g. "Jan '20"
  Topology topo;
};

// Quarterly B2 snapshots, Jan '20 .. Oct '22 (12 snapshots), growing from
// ~1/3 to full B2 scale (Fig 16).
std::vector<GrowthSnapshot> b2_growth_snapshots(std::size_t quarters = 12,
                                                double final_scale = 1.0);

// Small fixed topologies for tests/examples.
Topology make_line(std::size_t n, double capacity_gbps = 100.0);
Topology make_ring(std::size_t n, double capacity_gbps = 100.0);
Topology make_full_mesh(std::size_t n, double capacity_gbps = 100.0);
// The 3-router / 7-directed-link example of Fig 5 (R0, R1, R2).
Topology make_fig5();

}  // namespace dsdn::topo
