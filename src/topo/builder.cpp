#include "topo/builder.hpp"

#include <algorithm>
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

std::vector<char> reachable_over_up_links(const Topology& topo, NodeId root,
                                          Reach direction,
                                          std::span<const LinkId> excluded) {
  std::vector<char> seen(topo.num_nodes(), 0);
  std::vector<NodeId> frontier{root};
  seen[root] = 1;
  for (std::size_t next = 0; next < frontier.size(); ++next) {
    const Node& at = topo.node(frontier[next]);
    for (LinkId lid : direction == Reach::kForward ? at.out_links
                                                   : at.in_links) {
      const Link& l = topo.link(lid);
      const NodeId far = direction == Reach::kForward ? l.dst : l.src;
      if (!l.up || seen[far]) continue;
      if (std::ranges::find(excluded, lid) != excluded.end()) continue;
      seen[far] = 1;
      frontier.push_back(far);
    }
  }
  return seen;
}

bool is_strongly_connected(const Topology& topo) {
  if (topo.num_nodes() <= 1) return true;
  for (Reach direction : {Reach::kForward, Reach::kBackward}) {
    const std::vector<char> seen =
        reachable_over_up_links(topo, 0, direction, {});
    if (std::ranges::find(seen, 0) != seen.end()) return false;
  }
  return true;
}

}  // namespace dsdn::topo
