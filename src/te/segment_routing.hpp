#pragma once

// Segment routing over the IS-IS underlay (§3.2 coexistence, Fig 8/10/15
// trade study): instead of a strict per-link label stack, a headend
// pushes 1-3 *node segments* (middlepoints, then the egress). Each
// segment is forwarded over the underlay's ECMP shortest paths toward
// the segment target; the label pops at the target and the next segment
// takes over. The stack is tiny (<= 3 labels vs up to 12) and the
// transit state is per-*target* instead of per-route, at the price of a
// wider blast radius: a link flap reroutes every flow whose ECMP DAG
// used it, not just the strict routes pinned through it.
//
// Everything here is a pure function of (topology view, solver
// options), so every dSDN router running it on an identical NodeStateDB
// computes the identical placement -- the consensus-free property holds
// for SR exactly as it does for strict TE. The SR caps are compiled-in
// constants (SrOptions) for the same reason.

#include <limits>

#include "te/solver.hpp"
#include "te/types.hpp"

namespace dsdn::te {

// The SR candidate and expansion caps every router shares.
struct SrOptions {
  // Max node segments per route, egress included (the TLV/encoder cap).
  static constexpr std::size_t max_segments = 3;
  // Centrality-ranked middlepoint pool: single middlepoints come from the
  // top `num_middlepoints`, middlepoint *pairs* from the top
  // `pair_middlepoints` (quadratic, so a smaller pool).
  static constexpr std::size_t num_middlepoints = 8;
  static constexpr std::size_t pair_middlepoints = 4;
  // ECMP expansion caps: DFS paths enumerated per segment, and concrete
  // underlay paths kept per whole segment route (weights renormalize).
  static constexpr std::size_t max_paths_per_segment = 4;
  static constexpr std::size_t max_expansions_per_route = 8;
  // Candidate segment routes considered per demand.
  static constexpr std::size_t max_candidates = 12;
};

// All-pairs shortest-path distances and ECMP DAG membership over the
// *up* links of a topology view, igp_metric cost. Built once per solve:
// one te::sssp run per target over the reversed up links.
class SrUnderlay {
 public:
  static SrUnderlay build(const topo::Topology& topo);

  std::size_t num_nodes() const { return n_; }
  // +inf when t is unreachable from s over up links.
  double dist(topo::NodeId s, topo::NodeId t) const {
    return dist_to_[t * n_ + s];
  }
  bool reachable(topo::NodeId s, topo::NodeId t) const {
    return dist(s, t) < kInf;
  }
  // ECMP DAG members at `u` toward `t`: up out-links l with
  // metric(l) + dist(l.dst, t) <= dist(u, t) + eps, sorted by link id.
  // Empty when u == t or t is unreachable.
  std::vector<topo::LinkId> ecmp_members(const topo::Topology& topo,
                                         topo::NodeId u,
                                         topo::NodeId t) const;

  static constexpr double kInf = std::numeric_limits<double>::infinity();

 private:
  std::size_t n_ = 0;
  // dist_to_[t * n_ + u] = shortest distance u -> t.
  std::vector<double> dist_to_;
};

// Comparison slack for "on a shortest path" tests, scaled to the
// distance magnitude so metric sums compare stably across fp orderings.
inline double sr_eps(double dist) { return 1e-9 * (dist > 1.0 ? dist : 1.0); }

// Middlepoint candidates ranked by coverage centrality: score(v) = number
// of ordered pairs (s, t), s != t, v != s, v != t, for which v lies on a
// shortest s->t path (dist(s,v) + dist(v,t) <= dist(s,t) + eps). Ties
// break toward the lower node id; top `k` returned in rank order.
std::vector<topo::NodeId> rank_middlepoints(const SrUnderlay& underlay,
                                            std::size_t k);

// A candidate segment route for one demand: the node-segment stack
// (middlepoints then egress, outermost first) and its underlay cost.
struct SegmentRoute {
  std::vector<topo::NodeId> segments;
  double cost = 0.0;
};

// Candidate segment routes src -> dst, ordered by (cost, #segments,
// lexicographic segments): the direct route [dst], one-middlepoint
// routes [m, dst], and two-middlepoint routes [m1, m2, dst], drawn from
// `middlepoints` (rank order, from rank_middlepoints).
std::vector<SegmentRoute> segment_route_candidates(
    const SrUnderlay& underlay, topo::NodeId src, topo::NodeId dst,
    const std::vector<topo::NodeId>& middlepoints);

// Expands a segment route into concrete loop-free underlay paths with
// per-path split fractions (summing to 1): per-segment DFS over the ECMP
// DAG (members in link-id order, frac = product of per-node uniform
// splits, capped + renormalized), then a capped cross-product across
// segments. Concatenations that revisit a node are dropped (Path
// feasibility requires loop-freedom) and the rest renormalized. Empty
// when no loop-free expansion exists.
std::vector<WeightedPath> expand_segment_route(
    const topo::Topology& topo, const SrUnderlay& underlay, topo::NodeId src,
    const std::vector<topo::NodeId>& segments);

// Max-min fair waterfill over segment-space candidates: the same
// progressive-filling shape as te::Solver (strict priority classes, the
// default SolverOptions' round quantum, sliver freeze) but each demand's
// path choices are its segment routes, and capacity is charged against
// the routes' ECMP expansions. Deterministic; allocations come back in
// tm order with WeightedPath::segments set.
class SrSolver {
 public:
  Solution solve(const topo::Topology& topo, const traffic::TrafficMatrix& tm,
                 const std::vector<double>* residual_override = nullptr) const;
};

}  // namespace dsdn::te
