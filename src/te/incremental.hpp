#pragma once

// Warm-start incremental TE recompute.
//
// The paper's convergence time (Fig 8/9) is dominated by the local TE
// recompute every router runs after a topology or demand NSU, yet a
// single link flap invalidates only the allocations whose paths cross
// that link. IncrementalSolver keeps the previous Solution and, given
// the ViewDelta since the last recompute:
//
//   1. keeps every allocation whose paths touch no changed link and
//      whose demand did not change;
//   2. releases the affected demands (changed-demand origins, new or
//      re-rated demands, path-touches-changed-link); any change that
//      *frees* capacity -- a repair, a capacity restoration, or a
//      demand now offering less than its previous allocation -- instead
//      falls back to a full solve, because freed capacity cascades
//      through the strict-priority waterfill and no locally-computed
//      released set keeps cold-solve parity;
//   3. re-waterfills only the released set against the residual
//      capacity left by the kept allocations (the full solver with a
//      residual override);
//   4. falls back to a full solve when more than kFullSolveThreshold
//      of the demands is affected (a large delta converges to a
//      from-scratch solve, so reuse would only add overhead and
//      fairness drift).
//
// The result is *not* bit-identical to a from-scratch solve: kept
// allocations retain their rates, so exact max-min fairness across the
// kept/released boundary is approximated. The DiffChecker below makes
// this drift a checked contract instead of a leap of faith. The solver
// does not run it on itself: a caller that wants the parity check runs
// it on the result (sim::check_invariants after every scenario event,
// sim::measure_incremental_tcomp on every timed warm solve, and the
// warm-start tests on every solve).
//
// Determinism: IncrementalSolver is deterministic given the same
// sequence of (topology, demands, delta) inputs -- routers that
// recompute at the same points (as the emulation's quiescence barrier
// guarantees) still converge to identical solutions. Routers with
// different recompute *histories* may briefly differ within the
// checker tolerance; dSDN deployments that require strict per-view
// determinism keep the feature off (the default in core::Controller).
//
// Not thread-safe: one IncrementalSolver per controller, like the
// Solution it caches.

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "te/solver.hpp"
#include "te/view_delta.hpp"

namespace dsdn::te {

struct IncrementalStats {
  // Stats of the solve actually performed: the sub-solve over released
  // demands on the incremental path, or the full solve otherwise.
  SolveStats solve;
  // Whole-call wall time including delta classification and merge.
  double wall_time_s = 0.0;
  bool incremental = false;  // false = full solve (cold, reset, or fallback)
  bool fallback = false;     // full solve forced by the affected fraction
  std::size_t total_demands = 0;
  std::size_t affected_demands = 0;
  std::size_t reused_allocations = 0;
  double reuse_fraction = 0.0;  // reused / total (0 on the full path)
};

// Differential correctness checker: validates an (incremental) Solution
// against a from-scratch solve of the same inputs.
class DiffChecker {
 public:
  // The checker's bounds, shared by sim::check_invariants.
  struct Options {
    // Allowed relative drift of total allocated throughput vs the
    // reference (the waterfill is itself approximate; warm-start adds
    // boundary drift bounded by the fallback threshold).
    static constexpr double throughput_tolerance = 0.05;
    // Slack for per-link conservation sums (floating-point accumulation).
    static constexpr double capacity_slack_gbps = 1e-6;
  };

  struct Report {
    std::vector<std::string> violations;
    double solution_total_gbps = 0.0;
    double reference_total_gbps = 0.0;

    bool ok() const { return violations.empty(); }
  };

  // Re-runs the full solver on (topo, tm) and checks `solution` for:
  //   - shape: one allocation per demand, same order, rate not exceeded;
  //   - link-capacity conservation: per-link placed load <= capacity
  //     (+slack) and zero load on down links;
  //   - path feasibility: every weighted path is valid on up links,
  //     connects the demand's endpoints, and weights sum to 1;
  //   - throughput parity: total allocated within throughput_tolerance
  //     (relative) of the reference solve.
  static Report check(const topo::Topology& topo,
                      const traffic::TrafficMatrix& tm,
                      const Solution& solution);

  // Same checks against a caller-supplied reference Solution instead of
  // a fresh stock solve -- for solutions the stock solver cannot
  // reproduce (mixed-algorithm fleets, segment routing), where the
  // reference comes from re-running the matching solver. The bounds are
  // Options' constants whatever instance is passed.
  static Report check_against(const topo::Topology& topo,
                              const traffic::TrafficMatrix& tm,
                              const Solution& solution,
                              const Solution& reference, const Options&);
};

class IncrementalSolver {
 public:
  // Fall back to a full solve when more than this fraction of the
  // demands is affected by the delta.
  static constexpr double kFullSolveThreshold = 0.35;

  // Warm-start solve. `delta` describes what changed since the previous
  // call; a `full` delta (or the first call, or a changed inventory
  // size) forces a from-scratch solve. The returned Solution has one
  // allocation per `tm` demand, same order, like Solver::solve.
  Solution solve(const topo::Topology& topo,
                 const traffic::TrafficMatrix& tm, const ViewDelta& delta,
                 IncrementalStats* stats = nullptr);

  // Drops the warm state; the next solve is a full solve.
  void reset();

  std::size_t path_table_bytes() const { return solver_.path_table_bytes(); }

  // Lifetime accounting (also exported as te.incremental.* counters).
  std::size_t incremental_solves() const { return incremental_solves_; }
  std::size_t full_solves() const { return full_solves_; }
  std::size_t fallbacks() const { return fallbacks_; }

 private:
  Solution full_solve(const topo::Topology& topo,
                      const traffic::TrafficMatrix& tm,
                      IncrementalStats& stats);
  void adopt(const topo::Topology& topo, const traffic::TrafficMatrix& tm,
             const Solution& solution);

  Solver solver_;

  // Warm state: the previous solution, its residual capacities (down
  // links clamped to zero), the link liveness/capacity snapshot it was
  // computed against, and a (src, dst, class) -> allocation index map.
  bool warm_ = false;
  Solution prev_;
  std::size_t prev_num_nodes_ = 0;
  std::vector<double> prev_residual_;
  std::vector<char> prev_link_up_;
  std::vector<double> prev_link_cap_;
  std::unordered_map<std::uint64_t, std::size_t> prev_index_;

  std::size_t incremental_solves_ = 0;
  std::size_t full_solves_ = 0;
  std::size_t fallbacks_ = 0;
};

}  // namespace dsdn::te
