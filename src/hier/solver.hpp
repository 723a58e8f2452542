#pragma once

// Two-level hierarchical TE solve over the logical-node abstraction.
//
// Top level: te::Solver on the logical graph (O(regions) nodes),
// inter-region demands aggregated by (src region, dst region, class).
// Bottom level: one independent solve per region, run in parallel on the
// shared te::ThreadPool, placing the segments the top-level paths induce
// (source -> exit border, entry border -> exit border for transit, entry
// border -> destination). Segments are solved on the *full* topology with
// residual capacity zeroed outside the region, which confines paths to
// the region without remapping node ids.
//
// Stitching zips each region's weighted segment splits into end-to-end
// weighted paths (cumulative-weight interval alignment, so per-link loads
// match each region's intended split without a path-product blowup), and
// a final settle pass scales any allocation that oversubscribes a link --
// the hierarchical solution is always feasible; optimality is what it
// trades (bounded by check_optimality_gap against the flat solve).

#include <cstdint>
#include <vector>

#include "hier/logical.hpp"
#include "hier/partition.hpp"
#include "te/solver.hpp"

namespace dsdn::te {
class ThreadPool;
}

namespace dsdn::hier {

struct Hierarchy {
  RegionPartition partition;
  LogicalTopology logical;
};

// Partition + logical view for `topo`. Rebuild after topology churn (the
// partition is stable under link flips; the logical view is not).
Hierarchy build_hierarchy(const topo::Topology& topo,
                          const PartitionOptions& options = {});

struct HierOptions {
  HierOptions() {
    // Region solves run with a coarser waterfill quantum and a looser
    // satisfied tolerance than the flat default: intra-region fairness
    // granularity barely moves the end-to-end split (the min-fraction
    // stitch and settle pass dominate), and the saved rounds are a large
    // share of the hierarchical win. The optimality-gap harness bounds
    // what this costs in delivered throughput.
    region.quantum_divisor = 4.0;
    region.satisfied_tolerance = 1e-2;
  }

  PartitionOptions partition;
  // Solver for the logical graph.
  te::SolverOptions top;
  // Solver for the per-region segment solves.
  te::SolverOptions region;
  // Pool parallelizing the per-region solves (regions are the parallel
  // dimension; nested solver parallel_for calls run inline). May be null.
  te::ThreadPool* pool = nullptr;
  // Run the feasibility settle pass (on by default; off only for
  // debugging the raw stitched solution).
  bool settle = true;
};

struct HierSolveStats {
  double wall_time_s = 0.0;
  double top_solve_s = 0.0;
  double region_solve_s = 0.0;  // wall time of the parallel region phase
  double stitch_s = 0.0;
  std::size_t n_regions = 0;
  std::size_t logical_demands = 0;   // aggregated inter-region rows
  std::size_t segment_demands = 0;   // total per-region rows
  std::size_t settle_scaled = 0;     // allocations shrunk by the settle pass
};

// Solves `tm` over `topo` through the hierarchy. Returns a Solution with
// one Allocation per input demand, in input order (the flat solver's
// contract), feasible w.r.t. link capacities.
te::Solution solve_hierarchical(const topo::Topology& topo,
                                const traffic::TrafficMatrix& tm,
                                const Hierarchy& hierarchy,
                                const HierOptions& options = {},
                                HierSolveStats* stats = nullptr);

// DiffChecker-style parity harness for the hierarchical solve: validates
// the solution's shape and feasibility against the concrete topology and
// bounds the throughput gap versus a flat solve of the same inputs.
struct GapReport {
  std::vector<std::string> violations;
  double hier_total_gbps = 0.0;
  double flat_total_gbps = 0.0;
  // (flat - hier) / flat; <= 0 when the hierarchy matched or beat flat.
  double gap_fraction = 0.0;

  bool ok() const { return violations.empty(); }
};

struct GapOptions {
  // Per-link capacity overshoot tolerated before flagging (absolute Gbps).
  double capacity_slack_gbps = 1e-6;
  // Gap above this fraction is a violation (<= 0 disables the check).
  double max_gap_fraction = 0.0;
};

GapReport check_optimality_gap(const topo::Topology& topo,
                               const traffic::TrafficMatrix& tm,
                               const te::Solution& hier_solution,
                               const te::Solution& flat_solution,
                               const GapOptions& options = {});

}  // namespace dsdn::hier
