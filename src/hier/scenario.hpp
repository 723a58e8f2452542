#pragma once

// Seeded churn scenarios for the hierarchical plane runtime, mirroring
// sim/scenario.hpp one level up: events target *planes* rather than one
// flat network -- plane-local fiber cuts/repairs (the containment case),
// cross-plane SRLG conduit cuts (all planes share the physical conduit),
// and plane crash/restore with HRW rebalancing.
//
// After every applied event the harness asserts, per live plane, the full
// sim::check_invariants suite, plus the cross-plane properties no single
// plane can see:
//   - demand conservation: total flows and total rate across live planes
//     equal the base workload (nothing lost or duplicated by rebalancing);
//   - placement agreement: every demand row sits on the plane its flow
//     key HRW-hashes to under the current live set (packets follow the
//     same hash, so agreement here is packet/demand plane agreement);
//   - blast radius: a plane crash exposes < 1/alive + slack of flows.
//
// Pure function of (base topology, base matrix, options, seed): identical
// seeds replay bit-identically (asserted via fingerprints in tests).

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "hier/plane_runtime.hpp"
#include "sim/invariants.hpp"

namespace dsdn::hier {

enum class PlaneEventKind {
  kPlaneLocalCut,     // one plane's parallel fiber only
  kPlaneLocalRepair,
  kCrossPlaneSrlg,    // conduit cut: the fiber fails in every live plane
  kPlaneCrash,        // kill a plane, rebalance its flows onto survivors
  kPlaneRestore,      // revive it, HRW moves exactly its flows back
};

const char* plane_event_name(PlaneEventKind kind);

struct PlaneScenarioOptions {
  std::size_t planes = 4;
  std::size_t n_events = 10;
  // Relative draw weights; kinds with no applicable target drop out.
  static constexpr double w_cut = 3.0;
  static constexpr double w_repair = 2.0;
  double w_srlg = 1.5;
  double w_crash = 1.5;
  static constexpr double w_restore = 2.0;
  // Allowed overshoot of the 1/alive blast-radius bound (hash variance
  // on small workloads).
  static constexpr double exposure_slack = 0.05;
  sim::InvariantOptions invariants;
  // RCU snapshot cores per plane; > 0 enables rebalance packet scoring.
  std::size_t fib_cores = 1;
  std::size_t score_packets = 256;
  // Score packets on every live plane after every event too (slower).
  bool packet_scoring = false;
};

struct PlaneScenarioResult {
  std::vector<std::string> violations;
  std::vector<std::string> events;  // applied, human-readable
  std::size_t events_applied = 0;
  std::size_t events_skipped = 0;  // no applicable target / guard refused
  std::size_t invariant_checks = 0;
  std::size_t packets_scored = 0;
  std::size_t rebalances = 0;
  double max_exposed_fraction = 0.0;

  bool ok() const { return violations.empty(); }
  // Order-sensitive hash over events and outcomes: equal seeds must
  // produce equal fingerprints.
  std::uint64_t fingerprint() const;
};

// Builds a PlaneRuntime from (base, tm), bootstraps it, and drives
// `options.n_events` seeded events through it with the checker battery
// after each. Stops at the first violation.
PlaneScenarioResult run_plane_scenario(const topo::Topology& base,
                                       const traffic::TrafficMatrix& tm,
                                       const PlaneScenarioOptions& options,
                                       std::uint64_t seed);

struct PlaneSwarmFailure {
  std::uint64_t seed = 0;
  PlaneScenarioResult result;
};

// Runs seeds [first_seed, first_seed + n_seeds); returns the first
// failing seed's result, or nullopt when every seed passed.
std::optional<PlaneSwarmFailure> run_plane_swarm(
    const topo::Topology& base, const traffic::TrafficMatrix& tm,
    const PlaneScenarioOptions& options, std::uint64_t first_seed,
    std::size_t n_seeds);

}  // namespace dsdn::hier
