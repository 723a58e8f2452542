#pragma once

// The path-search kernel of te::Solver's batched waterfill: the flat CSR
// graph and SSSP scratch one batched shortest-path run works on, and
// te::sssp, the run itself. te::PathCache builds its table with the same
// kernel. A faster kernel (e.g. lane-parallel, GATE in PAPERS.md) must be
// bit-exact against this one and be chosen by the code from its input,
// never by a caller, so every router runs the same search on the same
// view.

#include <algorithm>
#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "te/types.hpp"

namespace dsdn::te {

// Exact monotone priority queue of (dist, node) entries for Dijkstra: a
// radix heap keyed by the bit pattern of the distance. For non-negative
// doubles (+0.0 up to +inf, no NaN) unsigned order of the bit pattern is
// value order, so pop() returns the minimum (dist, node) entry held, equal
// distances in node order -- the sequence a binary heap of pairs under
// std::greater pops. Precondition: no push below the last popped distance
// (Dijkstra only adds positive metrics).
//
// Bucket b >= 1 holds keys whose highest bit differing from `last_` (the
// last popped key) is bit b - 1; bucket 0 holds keys equal to `last_`.
// Buckets keep their capacity across clear().
class RadixHeap {
 public:
  bool empty() const { return size_ == 0; }

  void push(double dist, std::uint32_t node) {
    const std::uint64_t key = std::bit_cast<std::uint64_t>(dist);
    const unsigned b = bucket_of(key);
    buckets_[b].push_back({key, node});
    if (b != 0) mask_ |= bucket_bit(b);
    ++size_;
  }

  // Requires !empty().
  std::pair<double, std::uint32_t> pop() {
    if (buckets_[0].empty()) refill();
    // Bucket 0 holds only keys equal to last_: take its smallest node.
    std::vector<Entry>& ties = buckets_[0];
    auto best = ties.begin();
    for (auto it = best + 1; it != ties.end(); ++it)
      if (it->node < best->node) best = it;
    const Entry e = *best;
    *best = ties.back();
    ties.pop_back();
    --size_;
    return {std::bit_cast<double>(e.key), e.node};
  }

  // Empties only the non-empty buckets (a run that stopped early leaves
  // entries behind).
  void clear() {
    buckets_[0].clear();
    for (std::uint64_t m = mask_; m != 0; m &= m - 1)
      buckets_[static_cast<unsigned>(std::countr_zero(m)) + 1].clear();
    mask_ = 0;
    last_ = 0;
    size_ = 0;
  }

 private:
  struct Entry {
    std::uint64_t key;
    std::uint32_t node;
  };

  unsigned bucket_of(std::uint64_t key) const {
    return 64u - static_cast<unsigned>(std::countl_zero(key ^ last_));
  }
  static std::uint64_t bucket_bit(unsigned b) {
    return std::uint64_t{1} << (b - 1);
  }

  // Bucket 0 is empty: the lowest non-empty bucket's minimum key becomes
  // last_, and every entry of that bucket moves to a lower bucket.
  void refill() {
    const unsigned b = static_cast<unsigned>(std::countr_zero(mask_)) + 1;
    std::vector<Entry>& from = buckets_[b];
    std::uint64_t min_key = from.front().key;
    for (const Entry& e : from) min_key = std::min(min_key, e.key);
    last_ = min_key;
    for (const Entry& e : from) {
      const unsigned to = bucket_of(e.key);
      buckets_[to].push_back(e);
      if (to != 0) mask_ |= bucket_bit(to);
    }
    from.clear();
    mask_ &= ~bucket_bit(b);
  }

  std::array<std::vector<Entry>, 65> buckets_;
  std::uint64_t mask_ = 0;  // bit b - 1 set iff bucket b (1..64) non-empty
  std::uint64_t last_ = 0;
  std::size_t size_ = 0;
};

// Immutable CSR view of the topology. An edge of a reversed view runs
// from a link's dst to its src, so an SSSP from t over it yields every
// node's distance to t.
struct BatchGraph {
  std::uint32_t num_nodes = 0;
  std::vector<std::uint32_t> row_offsets;  // num_nodes + 1
  std::vector<std::uint32_t> edge_dst;     // per edge: head node
  std::vector<std::uint32_t> edge_link;    // per edge: topo::LinkId
  std::vector<double> edge_cost;           // per edge: igp metric
  std::vector<std::uint32_t> link_src;     // per topo link: edge's tail
};

// Which links a BatchGraph holds and which way it walks them.
enum class CsrView {
  kUpLinks,          // te::Solver's per-solve view, out_links order
  kAllLinks,         // te::PathCache's table: up or down, out_links order
  kUpLinksReversed,  // SrUnderlay's distances to a target, in_links order
};

// The CSR view of `topo`. Each node's edges keep the relaxation order of
// te::shortest_path (out_links), or for the reversed view that of a
// reverse Dijkstra (in_links), so equal-cost tie-breaks match.
BatchGraph build_batch_graph(const topo::Topology& topo, CsrView view);

// Reusable scratch for one SSSP run: flat dist/pred arrays with epoch
// stamping (O(1) reset) and the run's radix heap. Workspaces are pooled
// per solve so memory scales with concurrency, not with the number of
// distinct sources.
struct SsspWorkspace {
  std::vector<double> dist;
  std::vector<std::uint32_t> pred_link;  // link arriving at each node
  std::vector<std::uint32_t> stamp;      // dist/pred valid iff == epoch
  std::vector<std::uint32_t> target_stamp;
  std::uint32_t epoch = 0;
  RadixHeap queue;

  void ensure(std::uint32_t num_nodes);
  // True iff the last run stamped `node` (reached it over a usable link,
  // or it is the source). For that run's targets this equals finalized;
  // another node may carry a tentative dist/pred under early stop.
  bool reached(std::uint32_t node) const {
    return stamp[node] == epoch;
  }
};

// One batched multi-destination shortest-path run: from `src`, over
// links with residual[link] >= min_residual, finalizing at least every
// reachable node in targets[0..num_targets) (early-stopping once all are
// finalized). Results land in ws (dist/pred_link valid where
// ws.reached()). Pops (dist, node) in te::shortest_path's order, so the
// extracted paths are its paths. Deterministic and safe to call
// concurrently on distinct workspaces.
void sssp(const BatchGraph& g, const std::vector<double>& residual,
          double min_residual, std::uint32_t src,
          const std::uint32_t* targets, std::size_t num_targets,
          SsspWorkspace& ws);

}  // namespace dsdn::te
