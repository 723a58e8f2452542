#pragma once

// Test-only reference for te::rank_middlepoints: the original triple
// loop, one branch per (s, t, v), skipping v = s and v = t. The
// production scan runs the same comparisons branch-free over contiguous
// rows and takes v = s and v = t off afterwards; this is the oracle it is
// checked against, ranking for ranking.

#include <algorithm>
#include <cstdint>
#include <vector>

#include "te/segment_routing.hpp"

namespace dsdn::te {

inline std::vector<topo::NodeId> reference_rank_middlepoints(
    const SrUnderlay& underlay, std::size_t k) {
  const std::size_t n = underlay.num_nodes();
  // score(v) = ordered pairs (s, t) whose shortest path can pass v.
  std::vector<std::uint64_t> score(n, 0);
  for (topo::NodeId s = 0; s < n; ++s) {
    for (topo::NodeId t = 0; t < n; ++t) {
      if (s == t) continue;
      const double dst = underlay.dist(s, t);
      if (dst >= SrUnderlay::kInf) continue;
      const double eps = sr_eps(dst);
      for (topo::NodeId v = 0; v < n; ++v) {
        if (v == s || v == t) continue;
        const double via = underlay.dist(s, v) + underlay.dist(v, t);
        if (via <= dst + eps) ++score[v];
      }
    }
  }
  std::vector<topo::NodeId> ranked(n);
  for (topo::NodeId v = 0; v < n; ++v) ranked[v] = v;
  std::sort(ranked.begin(), ranked.end(),
            [&](topo::NodeId a, topo::NodeId b) {
              if (score[a] != score[b]) return score[a] > score[b];
              return a < b;
            });
  if (ranked.size() > k) ranked.resize(k);
  return ranked;
}

}  // namespace dsdn::te
