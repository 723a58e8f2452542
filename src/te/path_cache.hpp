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
// Detours: a table path that crosses a down link is not a path over the
// up links. detours(topo) hands out the DetourTable of topo's down links
// -- shortest paths over the up links, one row per source, filled on
// first use -- which the table keeps in one weak slot, so every solver
// of one link state (the routers of a converged fleet) shares the rows
// instead of searching on its own.
//
// The walk: PathTables holds a topology's table and, while links are
// down, its detour rows, and PathTables::walk is the one reader of
// either. It answers "the shortest path src -> dst over the up links"
// for te::Solver (with its residual floor), gravity normalization, the
// mixed-fleet legacy prediction and IS-IS next hops.
//
// The predecessor rows are immutable after construction, so concurrent
// solves share one table without a lock; only the detour slot is
// mutex-guarded.

#include <algorithm>
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

  std::size_t num_nodes() const { return n_; }
  // The node link `l` leaves.
  topo::NodeId tail(topo::LinkId l) const { return links_[l].src; }

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
// Keyed by its table and the up/down state of every link. A row is
// filled by the first caller that needs it, under std::call_once: a
// caller that finds it mid-fill waits for it (counter
// te.table.detour_rows counts every row computed). Thread-safe.
class DetourTable {
 public:
  DetourTable(std::shared_ptr<const PathCache> table,
              const topo::Topology& topo);

  // True iff made by `table` for exactly `topo`'s down links.
  bool matches(const PathCache& table, const topo::Topology& topo) const;

  // True iff link `l` is up in this link state.
  bool up(topo::LinkId l) const { return up_[l] != 0; }

  // Predecessor row of `src` over the up links, laid out like
  // PathCache::row; filled on the first call for `src`.
  std::span<const topo::LinkId> row(topo::NodeId src) const;

 private:
  struct Row {
    std::once_flag filled;
    std::unique_ptr<topo::LinkId[]> pred;
  };

  std::shared_ptr<const PathCache> table_;
  std::vector<char> up_;            // per link
  BatchGraph graph_;                // the up links
  std::vector<double> no_floor_;    // all-zero residuals: every link usable
  std::vector<std::uint32_t> all_nodes_;
  std::unique_ptr<Row[]> rows_;
};

// A topology's interned table and, while some of its links are down, the
// detour rows of that link state: strong references, so a holder keeps
// both alive (and a caller that walks many sources of one view holds one
// PathTables for the whole loop instead of fetching per source).
struct PathTables {
  std::shared_ptr<const PathCache> table;
  std::shared_ptr<const DetourTable> detours;  // null: every link up

  // The tables of `topo`: PathCache::of(topo) and, with links down, that
  // table's detours(topo).
  static PathTables of(const topo::Topology& topo) {
    return PathTables{}.fetch(topo);
  }
  // The tables of `topo`, keeping whichever of these still match it.
  PathTables fetch(const topo::Topology& topo) const;

  // Appends the shortest path src -> dst over the up links to `out` and
  // returns true when every link on it clears `clears(link)`; otherwise
  // leaves `out` as it was and returns false (also without a table, and
  // when dst is unreachable). The path is the table row's; when that
  // path crosses a down link, the detour row's. A path returned is what
  // te::shortest_path over the links that clear returns, link for link
  // (DESIGN.md, SoA solver), as long as every down link fails `clears`.
  template <typename Clears>
  bool walk(topo::NodeId src, topo::NodeId dst, Clears clears,
            std::vector<topo::LinkId>& out) const {
    if (!table) return false;
    bool crosses_down = false;
    if (walk_row(table->row(src), src, dst, clears, out,
                 detours ? &crosses_down : nullptr))
      return true;
    return crosses_down &&
           walk_row(detours->row(src), src, dst, clears, out, nullptr);
  }

  // walk() with "link is up": te::shortest_path(topo, src, dst) for the
  // topology these tables were fetched for.
  bool up_path(topo::NodeId src, topo::NodeId dst,
               std::vector<topo::LinkId>& out) const {
    return walk(src, dst,
                [this](topo::LinkId l) { return !detours || detours->up(l); },
                out);
  }

 private:
  // One row's path, walked back from dst. With `crosses_down`, a walk
  // stopped by a link that is up goes on toward src and reports whether
  // the path holds a down link.
  template <typename Clears>
  bool walk_row(std::span<const topo::LinkId> pred, topo::NodeId src,
                topo::NodeId dst, Clears clears,
                std::vector<topo::LinkId>& out, bool* crosses_down) const {
    const std::size_t off = out.size();
    bool all_clear = true;
    for (topo::NodeId at = dst; at != src;) {
      const topo::LinkId lid = pred[at];
      if (lid == topo::kInvalidLink) {
        all_clear = false;
        break;
      }
      if (!clears(lid)) {
        all_clear = false;
        if (!crosses_down) break;
        if (!detours->up(lid)) {
          *crosses_down = true;
          break;
        }
      }
      out.push_back(lid);
      at = table->tail(lid);
    }
    if (!all_clear) {
      out.resize(off);
      return false;
    }
    std::reverse(out.begin() + static_cast<std::ptrdiff_t>(off), out.end());
    return true;
  }
};

}  // namespace dsdn::te
