#pragma once

// Shortest-path precomputation table (§5.3, Fig 15).
//
// The solver originally recomputed the shortest path whenever available
// capacity changed. Instead we pre-compute the capacity-oblivious shortest
// path for every (src, dst) pair once per topology; at runtime te::Solver
// takes a pair's table path when every hop still has the round's residual
// floor, and searches only when it does not (DESIGN.md, SoA solver, says
// why that is exact).
//
// The table is n^2 predecessor links: row s holds, per destination d, the
// link arriving at d on the shortest s -> d path over every link, whatever
// its capacity or up/down state. Table paths equal
// te::shortest_path(topo, s, d, {.require_up = false}), tie-breaks
// included. Capacity changes and the loss and restoration of links never
// invalidate it. A metric change or a new link does: the table keeps a
// digest of the node count and each link's (src, dst, igp_metric), and
// te::Solver refuses a table whose digest does not match the topology it
// solves. Build a new table after such a change.
//
// Immutable after construction, so concurrent solves share one table
// without a lock.

#include <cstdint>
#include <span>
#include <vector>

#include "te/types.hpp"

namespace dsdn::te {

class PathCache {
 public:
  // One shortest-path pass per source over every link.
  explicit PathCache(const topo::Topology& topo);

  // Predecessor row of `src`: row[d] is the link arriving at d on the
  // table path src -> d; topo::kInvalidLink when d == src or d is
  // unreachable.
  std::span<const topo::LinkId> row(topo::NodeId src) const {
    return {pred_.data() + static_cast<std::size_t>(src) * n_, n_};
  }

  // The table path src -> dst; empty when dst is unreachable or == src.
  Path path(topo::NodeId src, topo::NodeId dst) const;

  // True iff `topo` has the node count, link endpoints and metrics the
  // table was built from.
  bool matches(const topo::Topology& topo) const {
    return digest(topo) == digest_;
  }

  // Heap bytes the table holds.
  std::size_t bytes() const {
    return pred_.size() * sizeof(topo::LinkId) +
           link_src_.size() * sizeof(topo::NodeId);
  }

 private:
  static std::uint64_t digest(const topo::Topology& topo);

  std::size_t n_ = 0;
  std::uint64_t digest_ = 0;
  std::vector<topo::LinkId> pred_;      // row-major (src, dst)
  std::vector<topo::NodeId> link_src_;  // per link: tail node
};

}  // namespace dsdn::te
