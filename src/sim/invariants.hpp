#pragma once

// System-level invariant checkers for the scenario harness: properties
// that must hold at every quiescent point of a churn history, no matter
// which failures, restarts, surges, or solver-mode flips produced it.
// No single router can see these locally -- each one cross-checks global
// state (every FIB, every view, ground truth) the way the paper's lab
// validation does after convergence:
//
//   1. Converged views: all StateDb digests identical, and the agreed
//      view's per-link liveness matches ground truth (the consensus-free
//      foundation everything else builds on).
//   2. FIB walk: every installed headend route, replayed label by label
//      through the *transit* step of the routers it visits, reaches its
//      egress without revisiting a node (no forwarding loop), without
//      crossing a down link (down-link zeroing -- no stale routes past
//      the convergence bound), and without a transit miss.
//   3. No persistent blackholes: flow_eval loss over the FIB-derived
//      routing; a demand whose endpoints are connected on up links must
//      not lose everything after reconvergence (congestion loss < 1 from
//      oversubscription is legitimate and reported via max_demand_loss).
//   4. Capacity conservation: summing every router's *own* installed
//      allocations (what the network actually carries), per-link placed
//      load stays within capacity (+slack) and is exactly zero on down
//      links.
//   5. Cold-solve parity: one router's history-evolved solution is
//      diffed (te::DiffChecker) against a from-scratch full solve of its
//      current view -- extending PR 4's per-solve check across whole
//      recompute histories.

#include <string>
#include <vector>

#include "sim/emulation.hpp"

namespace dsdn::sim {

// Conservation sums get te::DiffChecker::Options::capacity_slack_gbps of
// slack, and the parity check allows its throughput_tolerance of drift.
struct InvariantOptions {
  // The parity check costs one full solve per call; scenario sweeps over
  // big topologies can disable it.
  bool check_solution_parity = true;
  // Closed-loop mode: a recompute policy may legitimately leave the
  // installed solution behind the current demand view (bounded staleness
  // is the whole point). Diff the solution against a cold solve of the
  // demands it actually solved (reconstructed from the solution itself --
  // one allocation per input demand) instead of the live view. The
  // topology still comes from the current view: churn events recompute
  // unconditionally, so solutions are never stale against topology.
  bool parity_against_solved_demands = false;
};

struct InvariantReport {
  std::vector<std::string> violations;
  std::size_t checks_run = 0;   // individual assertions evaluated
  double max_demand_loss = 0.0; // max flow_eval loss across demands

  bool ok() const { return violations.empty(); }
};

// Runs the full checker suite against the emulation's current quiescent
// state. Pure observer: never mutates the emulation.
InvariantReport check_invariants(const DsdnEmulation& emu,
                                 const InvariantOptions& options = {});

}  // namespace dsdn::sim
