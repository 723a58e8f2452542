#pragma once

// Destination-based per-hop forwarding: the legacy IGP forwarding model
// that dSDN's strict source routing replaces (§3.1).
//
// With per-hop forwarding, every router independently maps destination ->
// next hop from its *own* view of the topology. While views diverge
// mid-convergence, packets can ping-pong between routers whose tables
// disagree (micro-loops) or hit dead ends -- "loops and dead-ends until
// all routers converge", as the paper puts it. Source routing avoids the
// whole failure class: the headend alone fixes the path, so the worst a
// stale route can do is arrive at a dead link (where FRR or a drop ends
// it) -- it can never loop.
//
// This module exists to make that contrast measurable (see
// bench_ablation_consensus and tests/test_consensus.cpp).

#include <vector>

#include "te/path_cache.hpp"
#include "topo/topology.hpp"

namespace dsdn::isis {

// Per-destination next-hop link table for `self`, computed from the
// path tables of its view (which may be stale relative to ground truth):
// the first link of each shortest path over the view's up links.
// kInvalidLink where the destination is unreachable in the view. A
// caller computing many routers' tables of one view holds one
// te::PathTables::of(view) across them.
struct NextHopTable {
  topo::NodeId self = topo::kInvalidNode;
  std::vector<topo::LinkId> next_hop;  // indexed by destination NodeId
};

NextHopTable compute_next_hops(const te::PathTables& paths,
                               topo::NodeId self);

enum class PerHopOutcome {
  kDelivered,
  kLoop,      // revisited a router: a forwarding micro-loop
  kDeadEnd,   // a router had no next hop for the destination
  kLinkDown,  // next hop pointed at a dead link in ground truth
};

struct PerHopResult {
  PerHopOutcome outcome = PerHopOutcome::kDeadEnd;
  std::size_t hops = 0;
  std::vector<topo::NodeId> trace;
};

// Walks a packet from src to dst across ground truth, consulting each
// visited router's own (possibly stale) table.
PerHopResult forward_per_hop(const topo::Topology& ground_truth,
                             const std::vector<NextHopTable>& tables,
                             topo::NodeId src, topo::NodeId dst);

}  // namespace dsdn::isis
