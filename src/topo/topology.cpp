#include "topo/topology.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <unordered_set>

namespace dsdn::topo {

NodeId Topology::add_node(std::string name, std::string metro,
                          double gravity_weight) {
  Node n;
  n.id = static_cast<NodeId>(nodes_.size());
  n.name = std::move(name);
  n.metro = metro.empty() ? n.name : std::move(metro);
  n.gravity_weight = gravity_weight;
  nodes_.push_back(std::move(n));
  return nodes_.back().id;
}

LinkId Topology::add_link(NodeId src, NodeId dst, double capacity_gbps,
                          double igp_metric, double delay_s) {
  if (src >= nodes_.size() || dst >= nodes_.size())
    throw std::out_of_range("add_link: bad endpoint");
  if (src == dst) throw std::invalid_argument("add_link: self loop");
  if (capacity_gbps <= 0) throw std::invalid_argument("add_link: capacity <= 0");
  // A zero-cost cycle makes shortest-path DAGs cyclic (the SR ECMP DFS
  // would never terminate); negative or NaN costs break Dijkstra outright.
  if (!std::isfinite(igp_metric) || igp_metric <= 0)
    throw std::invalid_argument("add_link: igp_metric must be finite and > 0");
  Link l;
  l.id = static_cast<LinkId>(links_.size());
  l.src = src;
  l.dst = dst;
  l.capacity_gbps = capacity_gbps;
  l.igp_metric = igp_metric;
  l.delay_s = delay_s;
  links_.push_back(l);
  nodes_[src].out_links.push_back(l.id);
  nodes_[dst].in_links.push_back(l.id);
  return l.id;
}

LinkId Topology::add_duplex(NodeId a, NodeId b, double capacity_gbps,
                            double igp_metric, double delay_s) {
  const LinkId fwd = add_link(a, b, capacity_gbps, igp_metric, delay_s);
  const LinkId rev = add_link(b, a, capacity_gbps, igp_metric, delay_s);
  links_[fwd].reverse = rev;
  links_[rev].reverse = fwd;
  return fwd;
}

const Node& Topology::node(NodeId id) const {
  if (id >= nodes_.size()) throw std::out_of_range("node: bad id");
  return nodes_[id];
}

const Link& Topology::link(LinkId id) const {
  if (id >= links_.size()) throw std::out_of_range("link: bad id");
  return links_[id];
}

void Topology::set_link_up(LinkId id, bool up) {
  if (id >= links_.size()) throw std::out_of_range("set_link_up: bad id");
  links_[id].up = up;
}

void Topology::set_duplex_up(LinkId id, bool up) {
  set_link_up(id, up);
  const LinkId rev = links_[id].reverse;
  if (rev != kInvalidLink) set_link_up(rev, up);
}

void Topology::set_link_capacity(LinkId id, double capacity_gbps) {
  if (id >= links_.size()) throw std::out_of_range("set_link_capacity: bad id");
  if (capacity_gbps <= 0)
    throw std::invalid_argument("set_link_capacity: capacity <= 0");
  links_[id].capacity_gbps = capacity_gbps;
}

void Topology::set_duplex_capacity(LinkId id, double capacity_gbps) {
  set_link_capacity(id, capacity_gbps);
  const LinkId rev = links_[id].reverse;
  if (rev != kInvalidLink) set_link_capacity(rev, capacity_gbps);
}

std::vector<NodeId> Topology::up_neighbors(NodeId n) const {
  std::vector<NodeId> out;
  for (LinkId lid : node(n).out_links) {
    if (links_[lid].up) out.push_back(links_[lid].dst);
  }
  return out;
}

std::size_t Topology::max_degree() const {
  std::size_t best = 0;
  for (const Node& n : nodes_) best = std::max(best, n.out_links.size());
  return best;
}

LinkId Topology::find_link(NodeId src, NodeId dst) const {
  for (LinkId lid : node(src).out_links) {
    const Link& l = links_[lid];
    if (l.dst == dst && l.up) return lid;
  }
  return kInvalidLink;
}

std::vector<std::string> Topology::metros() const {
  std::vector<std::string> out;
  std::unordered_set<std::string> seen;
  for (const Node& n : nodes_) {
    if (seen.insert(n.metro).second) out.push_back(n.metro);
  }
  return out;
}

void Topology::validate() const {
  for (const Link& l : links_) {
    if (l.src >= nodes_.size() || l.dst >= nodes_.size())
      throw std::logic_error("validate: link endpoint out of range");
    if (l.reverse != kInvalidLink) {
      const Link& r = links_.at(l.reverse);
      if (r.src != l.dst || r.dst != l.src || r.reverse != l.id)
        throw std::logic_error("validate: inconsistent reverse pointer");
    }
  }
  for (const Node& n : nodes_) {
    for (LinkId lid : n.out_links) {
      if (links_.at(lid).src != n.id)
        throw std::logic_error("validate: out_links inconsistent");
    }
    for (LinkId lid : n.in_links) {
      if (links_.at(lid).dst != n.id)
        throw std::logic_error("validate: in_links inconsistent");
    }
  }
}

}  // namespace dsdn::topo
