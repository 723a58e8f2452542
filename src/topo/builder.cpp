#include "topo/builder.hpp"

#include <deque>
#include <stdexcept>
#include <unordered_map>

namespace dsdn::topo {

Topology build_from_specs(const std::vector<NodeSpec>& nodes,
                          const std::vector<EdgeSpec>& edges) {
  Topology topo;
  std::unordered_map<std::string, NodeId> by_name;
  for (const NodeSpec& n : nodes) {
    if (by_name.contains(n.name))
      throw std::invalid_argument("duplicate node name: " + n.name);
    by_name[n.name] = topo.add_node(n.name, n.metro, n.gravity_weight);
  }
  auto resolve = [&](const std::string& name) {
    auto it = by_name.find(name);
    if (it != by_name.end()) return it->second;
    const NodeId id = topo.add_node(name);
    by_name[name] = id;
    return id;
  };
  for (const EdgeSpec& e : edges) {
    topo.add_duplex(resolve(e.a), resolve(e.b), e.capacity_gbps, e.igp_metric,
                    e.delay_ms * 1e-3);
  }
  topo.validate();
  return topo;
}

namespace {

// BFS reach count from `start` over up links.
std::size_t reach_count(const Topology& topo, NodeId start) {
  std::vector<bool> seen(topo.num_nodes(), false);
  std::deque<NodeId> q{start};
  seen[start] = true;
  std::size_t count = 1;
  while (!q.empty()) {
    const NodeId u = q.front();
    q.pop_front();
    for (NodeId v : topo.up_neighbors(u)) {
      if (!seen[v]) {
        seen[v] = true;
        ++count;
        q.push_back(v);
      }
    }
  }
  return count;
}

}  // namespace

bool is_strongly_connected(const Topology& topo) {
  if (topo.num_nodes() <= 1) return true;
  for (NodeId n = 0; n < topo.num_nodes(); ++n) {
    if (reach_count(topo, n) != topo.num_nodes()) return false;
  }
  return true;
}

}  // namespace dsdn::topo
