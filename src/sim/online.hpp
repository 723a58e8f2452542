#pragma once

// Closed-loop online TE at scenario scale (ROADMAP item 5): the oracle
// demand matrix drifts every epoch (traffic::DemandDynamics), routers
// only ever see their in-band EWMA estimates (traffic::DemandEstimator
// feeding NSUs), a te::RecomputePolicy decides when each controller
// re-runs TE, and concurrent link churn from the PR 5 scenario
// generator hits the same emulation in between.
//
// Scoring follows "Near-optimal Online Traffic Engineering": each epoch
// the achieved throughput (flow_eval of the *installed* routing against
// the live oracle matrix) is compared to an omniscient same-tick cold
// solve of the true demand; the shortfall integrates into a throughput
// regret fraction, and epochs losing more than `bad_loss_fraction` of
// the achievable throughput accumulate `epoch_s` bad-seconds each (Eq 2
// at network granularity).
//
// Deterministic: the whole run is a pure function of (topology, base
// matrix, options, seed) -- fingerprinted, so swarm failures replay.

#include <cstdint>
#include <string>
#include <vector>

#include "sim/invariants.hpp"
#include "sim/scenario.hpp"
#include "te/recompute_policy.hpp"
#include "traffic/dynamics.hpp"

namespace dsdn::sim {

struct OnlineTeOptions {
  std::size_t epochs = 200;
  // Wall-clock length of one measurement epoch.
  static constexpr double epoch_s = 1.0;

  traffic::DemandDynamicsOptions dynamics;
  traffic::DemandEstimator::Options estimator;
  te::RecomputePolicyOptions policy;
  bool incremental_te = true;

  // Concurrent link churn: this many events from the PR 5 generator
  // (cuts/repairs/flaps/SRLGs; surge, toggle, and crash weights are
  // zeroed -- demand motion comes from the dynamics, and restarts get
  // their own scenarios) at seeded epochs throughout the run.
  std::size_t churn_events = 0;

  // An epoch is "bad" when it loses more than this fraction of the
  // omniscient same-tick throughput.
  static constexpr double bad_loss_fraction = 0.01;

  // Run the invariant suite every `check_every` epochs (and always on
  // the final epoch). Parity is checked against the demands each
  // solution actually solved (policies legitimately defer).
  std::size_t check_every = 16;
  InvariantOptions invariants;
};

struct OnlineTeResult {
  std::size_t epochs = 0;
  std::size_t churn_applied = 0;
  // Sum of every controller's recompute() count, bootstrap included --
  // the cost side of the recompute-policy trade.
  std::size_t recomputes = 0;

  double achieved_gbps_sum = 0.0;
  double omniscient_gbps_sum = 0.0;
  double regret_fraction = 0.0;   // 1 - achieved/omniscient, floored at 0
  double max_epoch_regret = 0.0;
  std::size_t bad_epochs = 0;
  double bad_seconds = 0.0;

  std::size_t invariant_checks = 0;
  std::vector<std::string> violations;
  std::size_t nsu_messages = 0;

  bool ok() const { return violations.empty(); }
  // Order-sensitive hash over everything above: same seed, same run.
  std::uint64_t fingerprint() const;
};

// Runs the closed loop for options.epochs measurement epochs on a fresh
// emulation. Stops early at the first invariant violation.
OnlineTeResult run_online_te(const topo::Topology& topo,
                             const traffic::TrafficMatrix& base_tm,
                             const OnlineTeOptions& options,
                             std::uint64_t seed);

}  // namespace dsdn::sim
