#include "te/path_cache.hpp"

#include <algorithm>
#include <bit>
#include <numeric>

#include "te/batch_solver.hpp"

namespace dsdn::te {

std::uint64_t PathCache::digest(const topo::Topology& topo) {
  // FNV-1a over the node count and every link's (src, dst, metric bits):
  // the inputs a capacity- and state-oblivious shortest path depends on.
  std::uint64_t h = 0xcbf29ce484222325ull;
  const auto mix = [&h](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xff;
      h *= 0x100000001b3ull;
    }
  };
  mix(topo.num_nodes());
  for (const topo::Link& l : topo.links()) {
    mix((static_cast<std::uint64_t>(l.src) << 32) | l.dst);
    mix(std::bit_cast<std::uint64_t>(l.igp_metric));
  }
  return h;
}

PathCache::PathCache(const topo::Topology& topo)
    : n_(topo.num_nodes()), digest_(digest(topo)) {
  // One full run of the solver's SSSP kernel per source over a CSR of
  // every link; an all-zero residual vector at threshold 0 makes every
  // link usable, whatever its capacity or state.
  const BatchGraph g = build_batch_graph(topo, /*up_only=*/false);
  const std::vector<double> residual(topo.num_links(), 0.0);
  std::vector<std::uint32_t> targets(n_);
  std::iota(targets.begin(), targets.end(), 0u);
  link_src_ = g.link_src;
  pred_.assign(n_ * n_, topo::kInvalidLink);
  SsspWorkspace ws;
  for (std::uint32_t s = 0; s < n_; ++s) {
    sssp(g, residual, 0.0, s, targets.data(), targets.size(), ws);
    topo::LinkId* const out = pred_.data() + static_cast<std::size_t>(s) * n_;
    for (std::uint32_t d = 0; d < n_; ++d) {
      if (ws.reached(d)) out[d] = ws.pred_link[d];
    }
  }
}

Path PathCache::path(topo::NodeId src, topo::NodeId dst) const {
  Path p;
  const std::span<const topo::LinkId> pred = row(src);
  for (topo::NodeId at = dst; at != src;) {
    const topo::LinkId lid = pred[at];
    if (lid == topo::kInvalidLink) return {};
    p.links.push_back(lid);
    at = link_src_[lid];
  }
  std::reverse(p.links.begin(), p.links.end());
  return p;
}

}  // namespace dsdn::te
