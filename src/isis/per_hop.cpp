#include "isis/per_hop.hpp"

#include <stdexcept>
#include <unordered_set>

namespace dsdn::isis {

NextHopTable compute_next_hops(const te::PathTables& paths,
                               topo::NodeId self) {
  NextHopTable table;
  table.self = self;
  const auto n = static_cast<topo::NodeId>(paths.table->num_nodes());
  table.next_hop.assign(n, topo::kInvalidLink);
  std::vector<topo::LinkId> path;
  for (topo::NodeId dst = 0; dst < n; ++dst) {
    path.clear();
    if (dst != self && paths.up_path(self, dst, path))
      table.next_hop[dst] = path.front();
  }
  return table;
}

PerHopResult forward_per_hop(const topo::Topology& ground_truth,
                             const std::vector<NextHopTable>& tables,
                             topo::NodeId src, topo::NodeId dst) {
  if (tables.size() != ground_truth.num_nodes())
    throw std::invalid_argument("forward_per_hop: table count mismatch");
  PerHopResult r;
  std::unordered_set<topo::NodeId> visited;
  topo::NodeId at = src;
  r.trace.push_back(at);
  visited.insert(at);
  while (at != dst) {
    const topo::LinkId next = tables[at].next_hop[dst];
    if (next == topo::kInvalidLink) {
      r.outcome = PerHopOutcome::kDeadEnd;
      return r;
    }
    const topo::Link& link = ground_truth.link(next);
    if (!link.up) {
      r.outcome = PerHopOutcome::kLinkDown;
      return r;
    }
    at = link.dst;
    ++r.hops;
    r.trace.push_back(at);
    if (!visited.insert(at).second) {
      r.outcome = PerHopOutcome::kLoop;
      return r;
    }
  }
  r.outcome = PerHopOutcome::kDelivered;
  return r;
}

}  // namespace dsdn::isis
