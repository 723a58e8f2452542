#pragma once

// The traffic-engineering solver shared by cSDN and dSDN (§3.2).
//
// Based on B4's TE [27]: an approximate max-min fair allocator that
// balances short paths against high utilization, with the paper's
// modification of removing per-service utility curves (demand is measured
// in-band and aggregated by (egress router, priority class)).
//
// Algorithm: strict priority across classes; within a class, progressive
// filling ("waterfill") in rounds. Each round every still-active demand
// (1) finds its current preferred path -- the shortest path with residual
// capacity -- this step is data-parallel across demands; then (2) a
// *serialized* allocation step grants each demand a fair increment along
// its path, updating residual capacity. Demands freeze when satisfied or
// when no capacity-feasible path remains (they may be partially
// allocated). Decreasing available capacity makes demands churn through
// more rounds, matching the paper's observation that TE runtime grows as
// allocation gets harder (§5.3).
//
// The serialized step (2) is what limits parallel speedup ("our current
// TE algorithm serializes on the final step in flow assignment", Fig 13).
//
// Structure of arrays (the GATE direction, PAPERS.md): step (1) runs one
// batched multi-destination SSSP per (source, residual-rank) bucket over
// flat CSR arrays (te::sssp, te/batch_solver.hpp), instead of one
// Dijkstra per demand. With or without the path table the result is
// bit-identical to running te::shortest_path for every active demand
// every round and accumulating grants per allocation in a
// std::map<links, rate> (the test-only reference solver in tests/ does
// exactly that). The load-bearing arguments:
//
//  * A Dijkstra run popping (dist, node) pairs in total order finalizes
//    each node exactly once, and a finalized target's predecessor chain
//    consists only of already-finalized nodes -- so continuing the run
//    past one target (to finalize the bucket's remaining targets) can
//    never change an extracted path. One multi-destination run therefore
//    yields exactly the per-demand paths of N single-target runs.
//  * Two demands share a usable-link set iff no link residual falls in
//    the half-open interval between their sliver thresholds. Bucketing
//    by (source, rank of threshold among sub-threshold link residuals)
//    makes sharing exact, not approximate.
//  * CSR adjacency is laid out in topo.node(u).out_links order and the
//    heap key is (dist, node), so relaxation and pop order -- and hence
//    tie-breaks among equal-cost paths -- match te/dijkstra.cpp.
//  * A path validated in an earlier round or class is reused only when
//    a fresh search would provably return it (residuals only decrease).
//  * A PathCache table path (Fig 15) is the shortest path over all
//    links. When every link on it clears the sliver threshold it lies in
//    the usable set -- down links carry residual 0, thresholds are > 0 --
//    and a fresh search over that subset returns it link for link, so a
//    demand takes it without a search, and keeps it in later rounds and
//    classes for as long as its bottleneck clears the threshold. A table
//    path that crosses a down link is replaced by the pair's detour path
//    (PathCache::detours: the shortest path over the up links), which
//    the same argument covers.
//  * Grants accumulate into flat (path_id, rate) runs in round order and
//    finalize in lexicographic link-sequence order, which is a
//    per-allocation std::map's float summation order and output order.
//
// The table is part of every solve: a Solver holds the interned table
// (PathCache::of) of the topology it last solved and refetches it only
// when the key -- node count, link endpoints, metrics -- changes, so a
// router that keeps its Solver walks a built table and every temporary
// on the same topology shares it. With links down it also holds that
// link state's detour rows, shared the same way, so a solve's cost does
// not climb with the number of failed links. A round path that came from the table
// is revalidated by its bottleneck alone (it is the shortest path over
// all links, so any usable set containing it returns it), and the
// per-round residual-rank sort runs only when some demand needs a
// search or holds a searched path.
//
// Determinism: the solver is a pure function of (topology, demands,
// quantum), whatever SolverOptions::pool's size, with or without the
// table. Every dSDN controller running it on an identical NodeStateDB
// computes the identical Solution -- the consensus-free property. The
// other round constants (satisfaction tolerance, epsilon, round cap) are
// compiled in (te::detail), and every controller solves with the default
// SolverOptions, so no two routers can be set to disagree on them.

#include <cstddef>
#include <memory>
#include <mutex>

#include "te/path_cache.hpp"
#include "te/types.hpp"

namespace dsdn::te {

class ThreadPool;

// Settings of one standalone Solver (the Fig 13-15 benches, the solver
// ablation, parity tests). Every solver in the fleet -- controllers,
// SrSolver, IncrementalSolver, DiffChecker -- solves with the defaults.
struct SolverOptions {
  // Optional externally owned thread pool for the path-search step,
  // reused across solves so the workers are spawned exactly once per
  // process. Null = the solve runs serially on the calling thread.
  ThreadPool* pool = nullptr;
  // Seed path lookups from the interned shortest-path table (Fig 15).
  // Off only for Fig 15's no-table column and parity tests; the
  // placement is bit-identical either way.
  bool path_table = true;
  // Waterfill quantum: each round grants up to max_remaining/quantum_divisor
  // per demand; smaller quanta => closer to exact max-min, more rounds.
  double quantum_divisor = 8.0;
  // When > 0, overrides the adaptive quantum with a fixed per-round grant
  // (Gbps). With a fixed quantum, solver work scales with offered demand
  // -- the progressive-filling behavior behind Fig 14's linear growth.
  double quantum_gbps = 0.0;
};

struct SolveStats {
  // The solve over its table; a table build is timed by its own span
  // (te.underlay.build), not here.
  double wall_time_s = 0.0;
  double path_search_time_s = 0.0;  // parallelizable portion
  double allocation_time_s = 0.0;   // serialized portion
  std::size_t rounds = 0;
  // Batched SSSP searches and grant-step re-searches actually run.
  std::size_t path_searches = 0;
  // Table or detour-row walks that answered a path lookup instead of a
  // search (a path kept across rounds by its bottleneck is not walked
  // again).
  std::size_t table_paths = 0;
  // Demands frozen before satisfaction, by cause. frozen_demands is the
  // total (kept for existing consumers); the split tells starvation
  // (no_path: the network genuinely ran out of residual capacity) apart
  // from under-convergence (round_cap: the kMaxRounds safety valve fired
  // with no feasibility verdict -- persistent non-zero values mean the
  // round cap is starving traffic).
  std::size_t frozen_demands = 0;
  std::size_t frozen_no_path = 0;
  std::size_t frozen_round_cap = 0;
};

class Solver {
 public:
  explicit Solver(SolverOptions options = {}) : options_(options) {}

  // Computes the full-network solution. `residual_override`, when
  // non-null, seeds residual capacities (defaults to link capacities);
  // used for what-if solves.
  Solution solve(const topo::Topology& topo,
                 const traffic::TrafficMatrix& tm,
                 SolveStats* stats = nullptr,
                 const std::vector<double>* residual_override = nullptr) const;

  // Heap bytes of the table this Solver holds; 0 before its first solve
  // with path_table.
  std::size_t path_table_bytes() const;

 private:
  // The table of the last solved topology, and the detour rows of its
  // link state when links were down: strong references, so the registry
  // and the table's detour slot keep them while this Solver lives.
  // Copies share them; concurrent const solves swap them under the lock.
  class HeldTable {
   public:
    struct Tables {
      std::shared_ptr<const PathCache> table;
      std::shared_ptr<const DetourTable> detours;  // null: no link down
    };

    HeldTable() = default;
    HeldTable(const HeldTable& other) : held_(other.get()) {}
    HeldTable& operator=(const HeldTable& other);
    Tables get() const;
    // The held tables when they match `topo`, else PathCache::of(topo)
    // and its detours(topo) (only when `links_down`), which are then
    // held.
    Tables fetch(const topo::Topology& topo, bool links_down);

   private:
    mutable std::mutex mu_;
    Tables held_;
  };

  SolverOptions options_;
  mutable HeldTable table_;
};

namespace detail {

// Round math shared by every waterfill (the strict solver, SrSolver, and
// the test-only reference solver). Bit-parity with the reference depends
// on computing quantum and the sliver threshold with the exact same
// expressions and constants, so they live here instead of being
// duplicated.

// A demand is considered satisfied once its unserved remainder drops
// below this fraction of its original rate.
inline constexpr double kSatisfiedTolerance = 1e-3;
// Allocation below this is treated as zero (Gbps).
inline constexpr double kEpsilonGbps = 1e-9;
// Hard cap on waterfill rounds per class (safety valve).
inline constexpr std::size_t kMaxRounds = 400;

// Per-round grant quantum for a class whose largest remaining demand is
// max_remaining.
inline double round_quantum(const SolverOptions& options,
                            double max_remaining) {
  if (options.quantum_gbps > 0.0) return options.quantum_gbps;
  double quantum = max_remaining / options.quantum_divisor;
  return quantum > kEpsilonGbps * 10.0 ? quantum : kEpsilonGbps * 10.0;
}

// Minimum usable link residual for a demand's path search this round: a
// link is worth taking only if it can carry a meaningful sliver of the
// round's grant.
inline double sliver_threshold(double quantum, double remaining_gbps) {
  double grant = quantum < remaining_gbps ? quantum : remaining_gbps;
  return grant * 1e-3 + kEpsilonGbps;
}

}  // namespace detail

}  // namespace dsdn::te
