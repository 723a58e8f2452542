#include "dataplane/frr.hpp"

#include <algorithm>
#include <queue>

#include "te/ksp.hpp"
#include "util/rng.hpp"

namespace dsdn::dataplane {

const std::vector<te::Path> BypassPlan::kEmpty;

const char* bypass_strategy_name(BypassStrategy s) {
  switch (s) {
    case BypassStrategy::kShortestPath: return "FRR";
    case BypassStrategy::kCapacityAware: return "Capacity-Aware";
    case BypassStrategy::kKShortestPaths: return "k-Shortest-Paths";
    case BypassStrategy::kKCapacityAware: return "k-Capacity-Aware";
  }
  return "?";
}

std::optional<te::Path> widest_path(const topo::Topology& topo,
                                    topo::NodeId src, topo::NodeId dst,
                                    const std::vector<double>& residual,
                                    const te::SpConstraints& c) {
  // Dijkstra variant maximizing the bottleneck residual; ties broken by
  // fewer hops (secondary cost) for determinism and short bypasses.
  constexpr double kNegInf = -1.0;
  std::vector<double> width(topo.num_nodes(), kNegInf);
  std::vector<std::size_t> hops(topo.num_nodes(), 0);
  std::vector<topo::LinkId> pred(topo.num_nodes(), topo::kInvalidLink);
  using Entry = std::tuple<double, std::size_t, topo::NodeId>;
  auto cmp = [](const Entry& a, const Entry& b) {
    if (std::get<0>(a) != std::get<0>(b))
      return std::get<0>(a) < std::get<0>(b);  // wider first
    return std::get<1>(a) > std::get<1>(b);    // fewer hops first
  };
  std::priority_queue<Entry, std::vector<Entry>, decltype(cmp)> pq(cmp);
  width[src] = std::numeric_limits<double>::infinity();
  pq.emplace(width[src], 0, src);
  while (!pq.empty()) {
    const auto [w, h, u] = pq.top();
    pq.pop();
    if (w < width[u]) continue;
    if (u == dst) break;
    for (topo::LinkId lid : topo.node(u).out_links) {
      const topo::Link& l = topo.link(lid);
      if (c.require_up && !l.up) continue;
      if (c.link_allowed && !(*c.link_allowed)[lid]) continue;
      const double nw = std::min(w, residual[lid]);
      if (nw > width[l.dst] ||
          (nw == width[l.dst] && pred[l.dst] != topo::kInvalidLink &&
           h + 1 < hops[l.dst])) {
        width[l.dst] = nw;
        hops[l.dst] = h + 1;
        pred[l.dst] = lid;
        pq.emplace(nw, h + 1, l.dst);
      }
    }
  }
  if (pred[dst] == topo::kInvalidLink) return std::nullopt;
  te::Path p;
  topo::NodeId at = dst;
  while (at != src) {
    p.links.push_back(pred[at]);
    at = topo.link(pred[at]).src;
  }
  std::reverse(p.links.begin(), p.links.end());
  return p;
}

BypassPlan BypassPlan::compute(const topo::Topology& topo, BypassStrategy s,
                               const std::vector<double>& residual_gbps,
                               std::size_t k) {
  std::vector<topo::LinkId> links;
  links.reserve(topo.num_links());
  for (const topo::Link& l : topo.links()) {
    if (l.up) links.push_back(l.id);
  }
  return compute_for_links(topo, s, links, residual_gbps, k);
}

BypassPlan BypassPlan::compute_for_links(
    const topo::Topology& topo, BypassStrategy s,
    const std::vector<topo::LinkId>& links,
    const std::vector<double>& residual_gbps, std::size_t k) {
  BypassPlan plan;
  plan.strategy_ = s;

  std::vector<double> residual = residual_gbps;
  if (residual.empty()) {
    residual.resize(topo.num_links());
    for (std::size_t l = 0; l < topo.num_links(); ++l)
      residual[l] = topo.link(static_cast<topo::LinkId>(l)).capacity_gbps;
  }

  for (topo::LinkId lid : links) {
    const topo::Link& protectee = topo.link(lid);
    // The bypass must avoid the protected link and its reverse (a fiber
    // cut takes both directions down).
    std::vector<char> allowed(topo.num_links(), 1);
    allowed[protectee.id] = 0;
    if (protectee.reverse != topo::kInvalidLink)
      allowed[protectee.reverse] = 0;
    te::SpConstraints c;
    c.link_allowed = &allowed;

    std::vector<te::Path> cands;
    switch (s) {
      case BypassStrategy::kShortestPath: {
        if (auto p = te::shortest_path(topo, protectee.src, protectee.dst, c))
          cands.push_back(std::move(*p));
        break;
      }
      case BypassStrategy::kCapacityAware: {
        if (auto p =
                widest_path(topo, protectee.src, protectee.dst, residual, c))
          cands.push_back(std::move(*p));
        break;
      }
      case BypassStrategy::kKShortestPaths: {
        cands =
            te::k_shortest_paths(topo, protectee.src, protectee.dst, k, c);
        break;
      }
      case BypassStrategy::kKCapacityAware: {
        // k widest: take k shortest candidates, re-rank by bottleneck
        // residual (widest first).
        cands =
            te::k_shortest_paths(topo, protectee.src, protectee.dst, k, c);
        auto bottleneck = [&](const te::Path& p) {
          double b = std::numeric_limits<double>::infinity();
          for (topo::LinkId l : p.links) b = std::min(b, residual[l]);
          return b;
        };
        std::stable_sort(cands.begin(), cands.end(),
                         [&](const te::Path& a, const te::Path& b) {
                           return bottleneck(a) > bottleneck(b);
                         });
        break;
      }
    }
    if (!cands.empty()) plan.bypasses_[protectee.id] = std::move(cands);
  }
  return plan;
}

const std::vector<te::Path>& BypassPlan::candidates(topo::LinkId link) const {
  const auto it = bypasses_.find(link);
  return it == bypasses_.end() ? kEmpty : it->second;
}

std::optional<te::Path> BypassPlan::select(
    const topo::Topology& topo, topo::LinkId link, double rate_gbps,
    std::uint64_t entropy, const std::vector<double>& residual_gbps) const {
  const auto& cands = candidates(link);
  if (cands.empty()) return std::nullopt;

  auto bottleneck = [&](const te::Path& p) {
    double b = std::numeric_limits<double>::infinity();
    for (topo::LinkId l : p.links) {
      if (!topo.link(l).up) return -1.0;  // candidate itself is broken
      b = std::min(b, residual_gbps.empty()
                          ? topo.link(l).capacity_gbps
                          : residual_gbps[l]);
    }
    return b;
  };

  switch (strategy_) {
    case BypassStrategy::kShortestPath:
    case BypassStrategy::kCapacityAware: {
      if (bottleneck(cands.front()) < 0) return std::nullopt;
      return cands.front();
    }
    case BypassStrategy::kKShortestPaths: {
      // Shortest candidate with room for this flow; else the widest one.
      const te::Path* widest = nullptr;
      double widest_b = -1.0;
      for (const te::Path& p : cands) {
        const double b = bottleneck(p);
        if (b >= rate_gbps) return p;
        if (b > widest_b) {
          widest_b = b;
          widest = &p;
        }
      }
      if (!widest || widest_b < 0) return std::nullopt;
      return *widest;
    }
    case BypassStrategy::kKCapacityAware: {
      // Load-balance across candidates proportionally to spare capacity.
      std::vector<double> weights;
      weights.reserve(cands.size());
      double total = 0.0;
      for (const te::Path& p : cands) {
        const double b = std::max(0.0, bottleneck(p));
        weights.push_back(b);
        total += b;
      }
      if (total <= 0) return std::nullopt;
      const double point =
          static_cast<double>(util::splitmix64(entropy) >> 11) /
          static_cast<double>(1ull << 53) * total;
      double acc = 0.0;
      for (std::size_t i = 0; i < cands.size(); ++i) {
        acc += weights[i];
        if (point <= acc) return cands[i];
      }
      return cands.back();
    }
  }
  return std::nullopt;
}

}  // namespace dsdn::dataplane
