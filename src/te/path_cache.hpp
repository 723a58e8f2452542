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
// invalidate it. A metric change or a new link does: the table stores its
// key -- the node count and each link's (src, dst, igp_metric bits) --
// and matches() compares a topology against it exactly.
//
// Interning: PathCache::of(topo) returns the one table for topo's key,
// building it only when no live table has that key. The process-wide
// registry holds weak references, so a table lives exactly as long as
// some te::Solver (or other caller) holds it; an expired entry is pruned
// on the next insert. Every router, warm solver and temporary solving the
// same topology therefore shares one table, with no rebuild while any of
// them holds it.
//
// Detours: a table path that crosses a down link never clears a sliver
// threshold, so with links down the table alone would leave those pairs
// to a search in every solve. detours(topo) hands out the DetourTable of
// topo's down links -- shortest paths over the up links, one row per
// source, filled on first use -- which the table keeps in one weak slot,
// so every solver of one link state (the routers of a converged fleet)
// shares the rows instead of searching on its own.
//
// The predecessor rows are immutable after construction, so concurrent
// solves share one table without a lock; only the detour slot is
// mutex-guarded.

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "te/batch_solver.hpp"
#include "te/types.hpp"

namespace dsdn::te {

class DetourTable;

class PathCache : public std::enable_shared_from_this<PathCache> {
 public:
  // One shortest-path pass per source over every link (span
  // te.underlay.build, counter te.table.builds). Not interned; of() is
  // the shared way in.
  explicit PathCache(const topo::Topology& topo);

  // The interned table for `topo`'s key: a live one when some holder
  // keeps it, else a fresh build. Thread-safe.
  static std::shared_ptr<const PathCache> of(const topo::Topology& topo);

  // Registry entries, live or expired (expired ones go on the next
  // insert).
  static std::size_t interned();

  // Predecessor row of `src`: row[d] is the link arriving at d on the
  // table path src -> d; topo::kInvalidLink when d == src or d is
  // unreachable.
  std::span<const topo::LinkId> row(topo::NodeId src) const {
    return {pred_.data() + static_cast<std::size_t>(src) * n_, n_};
  }

  // The table path src -> dst; empty when dst is unreachable or == src.
  Path path(topo::NodeId src, topo::NodeId dst) const;

  // True iff `topo` has exactly the node count, link endpoints and
  // metrics the table was built from.
  bool matches(const topo::Topology& topo) const;

  // The detour rows for `topo`'s down links (`topo` must match()): the
  // live ones when some holder keeps this link state, else fresh, empty
  // ones, which then take the slot. Thread-safe; only for a table owned
  // by a shared_ptr (as of() returns).
  std::shared_ptr<const DetourTable> detours(const topo::Topology& topo) const;

  // Heap bytes the table holds, its key included.
  std::size_t bytes() const {
    return pred_.size() * sizeof(topo::LinkId) +
           links_.size() * sizeof(LinkKey);
  }

 private:
  // One link's part of the key; src doubles as the table walk's tail
  // node.
  struct LinkKey {
    topo::NodeId src;
    topo::NodeId dst;
    std::uint64_t metric_bits;
  };

  std::size_t n_ = 0;
  std::vector<topo::LinkId> pred_;  // row-major (src, dst)
  std::vector<LinkKey> links_;      // per link
  mutable std::mutex detour_mu_;
  mutable std::weak_ptr<const DetourTable> detour_;
};

// Shortest paths over the up links of one link state of a PathCache's
// topology, capacity-oblivious: row s equals te::shortest_path(topo, s,
// d) for every d, tie-breaks included. The up links contain every
// usable set a solve can see (down links carry residual 0, thresholds
// are > 0), so a detour path that clears the threshold is what a fresh
// search returns, by the table's argument (DESIGN.md, SoA solver).
// Keyed by its table and the ids of the down links. A row is filled by
// the first caller that needs it; a caller that finds it mid-fill
// computes its own copy instead of waiting, so solvers never block on
// each other (counter te.table.detour_rows counts every row computed).
// Thread-safe.
class DetourTable {
 public:
  DetourTable(std::shared_ptr<const PathCache> table,
              const topo::Topology& topo);

  // True iff made by `table` for exactly `topo`'s down links.
  bool matches(const PathCache& table, const topo::Topology& topo) const;

  // Predecessor row of `src` over the up links, laid out like
  // PathCache::row; filled on the first call for `src`. While another
  // caller fills it, the row is computed into `scratch` and the span
  // points there (valid until `scratch` changes).
  std::span<const topo::LinkId> row(topo::NodeId src,
                                    std::vector<topo::LinkId>& scratch) const;

 private:
  enum : std::uint8_t { kEmpty, kFilling, kFilled };
  struct Row {
    std::atomic<std::uint8_t> state{kEmpty};
    std::unique_ptr<topo::LinkId[]> pred;  // set before state = kFilled
  };

  void fill(topo::NodeId src, topo::LinkId* pred) const;

  std::shared_ptr<const PathCache> table_;
  std::vector<topo::LinkId> down_;  // ids of the down links, ascending
  BatchGraph graph_;                // the up links
  std::vector<double> no_floor_;    // all-zero residuals: every link usable
  std::vector<std::uint32_t> all_nodes_;
  std::unique_ptr<Row[]> rows_;
};

}  // namespace dsdn::te
