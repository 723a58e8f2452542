#include "te/dijkstra.hpp"

#include <algorithm>
#include <limits>
#include <queue>
#include <sstream>
#include <stdexcept>
#include <unordered_set>

namespace dsdn::te {

// ---- Path methods (types.hpp) ----

topo::NodeId Path::src(const topo::Topology& topo) const {
  if (links.empty()) return topo::kInvalidNode;
  return topo.link(links.front()).src;
}

topo::NodeId Path::dst(const topo::Topology& topo) const {
  if (links.empty()) return topo::kInvalidNode;
  return topo.link(links.back()).dst;
}

double Path::igp_cost(const topo::Topology& topo) const {
  double cost = 0.0;
  for (topo::LinkId l : links) cost += topo.link(l).igp_metric;
  return cost;
}

double Path::latency_s(const topo::Topology& topo) const {
  double s = 0.0;
  for (topo::LinkId l : links) s += topo.link(l).delay_s;
  return s;
}

bool Path::is_valid(const topo::Topology& topo) const {
  if (links.empty()) return false;
  std::unordered_set<topo::NodeId> visited;
  visited.insert(topo.link(links.front()).src);
  topo::NodeId at = topo.link(links.front()).src;
  for (topo::LinkId lid : links) {
    const topo::Link& l = topo.link(lid);
    if (!l.up || l.src != at) return false;
    at = l.dst;
    if (!visited.insert(at).second) return false;  // node repeats => loop
  }
  return true;
}

std::vector<topo::NodeId> Path::node_sequence(
    const topo::Topology& topo) const {
  std::vector<topo::NodeId> seq;
  if (links.empty()) return seq;
  seq.push_back(topo.link(links.front()).src);
  for (topo::LinkId lid : links) seq.push_back(topo.link(lid).dst);
  return seq;
}

std::string Path::to_string(const topo::Topology& topo) const {
  std::ostringstream os;
  bool first = true;
  for (topo::NodeId n : node_sequence(topo)) {
    if (!first) os << "->";
    os << topo.node(n).name;
    first = false;
  }
  return os.str();
}

// ---- Allocation and Solution methods (types.hpp) ----

void Allocation::add_load(double sign, std::vector<double>& per_link) const {
  for (const WeightedPath& wp : paths) {
    const double rate = sign * allocated_gbps * wp.weight;
    for (topo::LinkId l : wp.path.links) per_link[l] += rate;
  }
}

std::vector<double> Solution::residual_capacity(
    const topo::Topology& topo) const {
  std::vector<double> residual(topo.num_links());
  for (std::size_t l = 0; l < topo.num_links(); ++l) {
    residual[l] = topo.link(static_cast<topo::LinkId>(l)).capacity_gbps;
  }
  for (const Allocation& a : allocations) a.add_load(-1.0, residual);
  return residual;
}

double Solution::max_utilization(const topo::Topology& topo) const {
  const auto residual = residual_capacity(topo);
  double worst = 0.0;
  for (std::size_t l = 0; l < residual.size(); ++l) {
    const double cap = topo.link(static_cast<topo::LinkId>(l)).capacity_gbps;
    worst = std::max(worst, (cap - residual[l]) / cap);
  }
  return worst;
}

double Solution::total_allocated_gbps() const {
  double total = 0.0;
  for (const Allocation& a : allocations) total += a.allocated_gbps;
  return total;
}

std::vector<const Allocation*> Solution::originating_at(
    topo::NodeId src) const {
  std::vector<const Allocation*> out;
  for (const Allocation& a : allocations) {
    if (a.demand.src == src) out.push_back(&a);
  }
  return out;
}

// ---- Dijkstra ----

namespace {

bool link_usable(const topo::Link& l, const SpConstraints& c) {
  if (c.require_up && !l.up) return false;
  if (c.link_allowed && !(*c.link_allowed)[l.id]) return false;
  if (c.residual_gbps && (*c.residual_gbps)[l.id] < c.min_residual)
    return false;
  return true;
}

struct DijkstraResult {
  std::vector<double> dist;
  std::vector<topo::LinkId> pred_link;  // link arriving at each node
};

template <typename CostFn>
DijkstraResult run_dijkstra(const topo::Topology& topo, topo::NodeId src,
                            const SpConstraints& c, CostFn cost,
                            topo::NodeId early_stop = topo::kInvalidNode) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  DijkstraResult r;
  r.dist.assign(topo.num_nodes(), kInf);
  r.pred_link.assign(topo.num_nodes(), topo::kInvalidLink);
  using Entry = std::pair<double, topo::NodeId>;
  std::priority_queue<Entry, std::vector<Entry>, std::greater<>> pq;
  r.dist[src] = 0.0;
  pq.emplace(0.0, src);
  while (!pq.empty()) {
    const auto [d, u] = pq.top();
    pq.pop();
    if (d > r.dist[u]) continue;
    if (u == early_stop) break;
    const topo::Node& node = topo.node(u);
    for (topo::LinkId lid : node.out_links) {
      const topo::Link& l = topo.link(lid);
      if (!link_usable(l, c)) continue;
      const topo::NodeId v = l.dst;
      const double nd = d + cost(l);
      if (nd < r.dist[v]) {
        r.dist[v] = nd;
        r.pred_link[v] = lid;
        pq.emplace(nd, v);
      }
    }
  }
  return r;
}

Path extract_path(const topo::Topology& topo, const DijkstraResult& r,
                  topo::NodeId src, topo::NodeId dst) {
  Path p;
  topo::NodeId at = dst;
  while (at != src) {
    const topo::LinkId lid = r.pred_link[at];
    if (lid == topo::kInvalidLink) return {};  // unreachable
    p.links.push_back(lid);
    at = topo.link(lid).src;
  }
  std::reverse(p.links.begin(), p.links.end());
  return p;
}

}  // namespace

std::optional<Path> shortest_path(const topo::Topology& topo,
                                  topo::NodeId src, topo::NodeId dst,
                                  const SpConstraints& c) {
  if (src == dst) throw std::invalid_argument("shortest_path: src == dst");
  const auto r = run_dijkstra(
      topo, src, c, [](const topo::Link& l) { return l.igp_metric; }, dst);
  Path p = extract_path(topo, r, src, dst);
  if (p.empty()) return std::nullopt;
  return p;
}

std::vector<double> shortest_distances(const topo::Topology& topo,
                                       topo::NodeId root,
                                       std::span<const double> link_cost) {
  return run_dijkstra(topo, root, {}, [&](const topo::Link& l) {
           return link_cost[l.id];
         }).dist;
}

}  // namespace dsdn::te
