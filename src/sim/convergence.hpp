#pragma once

// Convergence-time measurement (§4, §5.1): decomposes Tconv into Tprop,
// Tcomp, Tprog for dSDN and cSDN after link-failure events.
//
// dSDN: NSUs propagate hop-by-hop through the data plane (flooding);
// Tprop(i) is router i's earliest arrival time. Every router then runs TE
// (Tcomp(i)) and programs only its own paths locally (Tprog(i)).
// Network-wide Tconv = max_i (Tprop(i) + Tcomp(i) + Tprog(i)).
//
// cSDN: one Tprop through the CPN + collection hierarchy, one central
// Tcomp, then two-phase programming of every changed path; Tconv is gated
// by the slowest path (Appendix B).

#include "csdn/controller.hpp"
#include "metrics/calibration.hpp"
#include "metrics/distribution.hpp"
#include "te/incremental.hpp"
#include "te/solver.hpp"

namespace dsdn::sim {

// Earliest NSU arrival time at every router when `origin` floods after
// the (already applied) failure. Per-hop cost = link propagation delay +
// a sampled per-hop processing time. Unreachable routers get +inf.
//
// Statistical counterpart of the emulation's FaultyBus flooding: with
// flood_loss_prob > 0 each hop-level transfer is lost with that
// probability and retried per sim::flood_retransmit (faulty_bus.hpp), so
// the hop also pays its sampled run of retransmit backoffs, or +inf when
// the run exhausts the retry budget and flooding must route around the
// hop (Fig 9/10 under 1-10% flood loss).
std::vector<double> nsu_arrival_times(const topo::Topology& topo,
                                      topo::NodeId origin, util::Rng& rng,
                                      double flood_loss_prob = 0.0);

struct ComponentDistributions {
  metrics::EmpiricalDistribution tprop;
  metrics::EmpiricalDistribution tcomp;
  metrics::EmpiricalDistribution tprog;
  metrics::EmpiricalDistribution total;  // per-event network convergence
};

struct DsdnConvergenceConfig {
  // When non-empty, Tcomp is sampled from this measured distribution
  // (e.g. real solver runs scaled by the router CPU ratio) instead of the
  // calibrated lognormal.
  metrics::EmpiricalDistribution measured_tcomp;
  std::size_t n_events = 200;
  std::uint64_t seed = 21;
  // Flood loss injected on every NSU hop (0 = lossless, the baseline
  // Fig 8/9 setting).
  double flood_loss_prob = 0.0;
  // Per-attempt local-programming failure probability; failed attempts
  // pay a timeout plus jittered exponential backoff before Tprog's
  // success sample (Fig 9's lossy rows).
  double prog_fail_prob = 0.0;
};

// Measures dSDN's convergence components over random fiber failures.
ComponentDistributions measure_dsdn_convergence(
    const topo::Topology& topo, const DsdnConvergenceConfig& config);

struct CsdnConvergenceConfig {
  // When non-empty, Tcomp is sampled from this measured distribution
  // (real solver runs at server speed) instead of the calibrated value,
  // keeping the cSDN-vs-dSDN Tcomp comparison apples-to-apples.
  metrics::EmpiricalDistribution measured_tcomp;
  std::size_t n_events = 200;
  std::uint64_t seed = 22;
};

// Measures cSDN's convergence components over random fiber failures.
// Runs the real TE solver per event to obtain the changed path set whose
// two-phase programming is timed.
ComponentDistributions measure_csdn_convergence(
    const topo::Topology& topo, const traffic::TrafficMatrix& tm,
    const CsdnConvergenceConfig& config);

// Random duplex fiber ids (representatives) usable as failure targets:
// only fibers whose removal keeps the graph connected are returned, so
// convergence is always achievable.
std::vector<topo::LinkId> pick_failure_fibers(const topo::Topology& topo,
                                              std::size_t count,
                                              std::uint64_t seed);

// ---- Warm-start TE recompute timing (the Fig 8/9 Tcomp term) ----
//
// Per connectivity-preserving fiber failure, times the router's local TE
// recompute twice on the identical post-failure view: once from scratch
// (the seed behavior) and once warm-started off the pre-failure solution
// via te::IncrementalSolver. The repair-side recompute restores the warm
// state between events, so every failure is measured against a converged
// baseline -- exactly the single-link-flap recompute a dSDN router runs.
// Outside the timed region, each warm solution is checked against that
// event's scratch solution with te::DiffChecker::check_against.
struct IncrementalTcompConfig {
  std::size_t n_events = 50;
  std::uint64_t seed = 23;
};

struct IncrementalTcompResult {
  metrics::EmpiricalDistribution full_s;         // scratch solve per event
  metrics::EmpiricalDistribution incremental_s;  // warm-start per event
  metrics::EmpiricalDistribution reuse_fraction; // per warm recompute
  std::size_t fallbacks = 0;
  // DiffChecker violations of the warm solutions, summed over events.
  std::size_t checker_violations = 0;
};

IncrementalTcompResult measure_incremental_tcomp(
    const topo::Topology& topo, const traffic::TrafficMatrix& tm,
    const IncrementalTcompConfig& config);

}  // namespace dsdn::sim
