#pragma once

// Deterministic long-horizon churn scenarios: a seeded generator of
// multi-event histories -- fiber cuts/repairs, overlapping link flaps,
// correlated SRLG multi-failures, node crash/cold-restart, demand
// surges, lossy flooding, mid-history incremental-TE toggles -- executed
// on a fresh DsdnEmulation with the full invariant checker suite
// (sim/invariants.hpp) run after every event.
//
// Everything is a pure function of (topology, traffic matrix, options,
// seed): the same seed replays bit-identically, including the FaultyBus
// fault streams, so any violation a seed swarm finds reproduces with one
// command. run_masked() executes an arbitrary subset of the schedule
// (events carry runtime applicability guards, so subsets stay legal) --
// the greedy event-bisection shrinker uses it to cut a failing history
// down to a minimal reproducer.

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "obs/artifact.hpp"
#include "sim/emulation.hpp"
#include "sim/faulty_bus.hpp"
#include "sim/invariants.hpp"

namespace dsdn::sim {

enum class ScenarioEventKind {
  kFiberCut,
  kFiberRepair,
  kFiberFlap,          // down + up inside one quiescence window
  kSrlgCut,            // correlated multi-fiber failure
  kNodeCrashRecover,   // neighbor-DB copy recovery (§3.2)
  kNodeColdRestart,    // rebuild purely from re-flooded NSUs
  kDemandSurge,        // scale one origin's demand rows
  kToggleIncrementalTe,
};

struct ScenarioEvent {
  ScenarioEventKind kind = ScenarioEventKind::kFiberCut;
  std::vector<topo::LinkId> fibers;  // cut/repair/flap/srlg members
  topo::NodeId node = topo::kInvalidNode;  // crash/restart/surge target
  double factor = 1.0;                     // surge multiplier
  bool enable = false;                     // toggle target state

  std::string to_string() const;
};

// Deliberate faults the harness can plant to prove the checkers catch
// real bugs (and that the shrinker produces short reproducers).
enum class ScenarioBug {
  kNone,
  // After every fiber-down event, one router's encap FIB is silently
  // restored to its pre-event routes: models a programmer that skipped
  // down-link zeroing, leaving stale routes over dead links.
  kSkipReprogramOnCut,
};

struct ScenarioOptions {
  std::size_t n_events = 24;
  // Relative pick weights per event kind (a kind with no applicable
  // target at generation time drops out of the draw).
  static constexpr double w_cut = 4.0;
  double w_repair = 3.0;
  double w_flap = 2.0;
  double w_srlg = 1.0;
  double w_crash = 1.0;
  double w_cold_restart = 1.0;
  double w_surge = 1.5;
  double w_toggle = 0.5;
  static constexpr std::size_t srlg_size = 3;  // fibers per SRLG cut
  // Surge factors are log-uniform in [1/surge_span, surge_span].
  static constexpr double surge_span = 2.5;

  // Flooding-plane faults (FaultyBus), seeded from the scenario seed.
  bool lossy_flooding = false;
  LinkFaultProfile fault_profile{
      .drop = 0.02, .duplicate = 0.02, .corrupt = 0.01, .reorder = 0.05,
      .jitter_s = 0.002};

  bool incremental_te = true;  // initial state; toggles flip it mid-run
  te::SolverOptions solver;
  InvariantOptions invariants;

  // Per-router pathing algorithms (EmulationConfig::algorithms): empty =
  // the classic all-TE fleet; non-empty runs the mixed-algorithm solver
  // on every router (SR / shortest-path / strict TE coexistence), forces
  // incremental_te off, and exercises the SR dataplane under churn.
  std::vector<core::PathingAlgorithm> algorithms;

  // Packet-level scoring (sim/packet_score.hpp): after every applied
  // event, sample packets from the current demand matrix and drive them
  // through the batched pipeline over RCU FIB snapshots; any outcome
  // besides delivered / no-ingress-route is a violation. Off by default
  // (attaches a SnapshotHub to the emulation when on).
  bool packet_scoring = false;
  std::size_t packets_per_check = 512;

  ScenarioBug bug = ScenarioBug::kNone;
  topo::NodeId bug_node = 0;
};

struct ScenarioResult {
  std::vector<std::string> violations;
  // Schedule index of the first violating event; -1 when the bootstrap
  // state itself violated. Only meaningful when !ok().
  int first_violation_event = -1;
  std::size_t events_applied = 0;
  std::size_t events_skipped = 0;  // runtime guards (e.g. would partition)
  std::size_t invariant_checks = 0;
  std::size_t packets_scored = 0;  // 0 unless options.packet_scoring
  double max_loss = 0.0;  // max flow_eval demand loss seen at any step
  std::uint64_t final_digest = 0;
  std::size_t messages = 0;
  double sim_time_s = 0.0;

  bool ok() const { return violations.empty(); }
  // Order-sensitive hash of everything above: two runs of the same seed
  // must produce equal fingerprints (bit-identical replay).
  std::uint64_t fingerprint() const;
};

class Scenario {
 public:
  // Generates the event schedule from `seed` immediately; run() is then
  // deterministic given identical construction arguments.
  Scenario(topo::Topology topo, traffic::TrafficMatrix tm,
           ScenarioOptions options, std::uint64_t seed);

  const std::vector<ScenarioEvent>& schedule() const { return schedule_; }
  std::uint64_t seed() const { return seed_; }

  // Executes the whole schedule on a fresh emulation, stopping at the
  // first invariant violation.
  ScenarioResult run() const;
  // Executes only the events whose mask bit is set (same length as the
  // schedule). Runtime guards skip events made inapplicable by the
  // omitted ones, so every subset is a legal history.
  ScenarioResult run_masked(const std::vector<char>& keep) const;

  // Greedy event-bisection shrinking: starting from a failing full run,
  // drops chunks of halving size (re-running the masked schedule each
  // time) until no kept event can be removed without the failure
  // disappearing. Returns the minimal mask, or an empty vector when the
  // full run passes.
  std::vector<char> shrink() const;

  // Human-readable reproducer listing of the kept events.
  std::string describe(const std::vector<char>& keep) const;

  // Per-scenario obs counters (events applied, invariant checks run,
  // max loss window, ...) wired into a RunArtifact for BENCH_ JSON.
  obs::RunArtifact artifact(const ScenarioResult& result,
                            const std::string& name) const;

 private:
  void generate_schedule();
  bool apply_event(DsdnEmulation& emu, const ScenarioEvent& ev) const;

  topo::Topology topo_;
  traffic::TrafficMatrix tm_;
  ScenarioOptions options_;
  std::uint64_t seed_;
  std::vector<ScenarioEvent> schedule_;
};

// Applies one churn event to a live emulation with the same runtime
// applicability guards Scenario::run uses (cuts that would partition are
// skipped, repairs of up fibers are no-ops, ...). Returns true when the
// event was applied. Exposed as a free function so closed-loop online-TE
// runs (sim/online.hpp) can interleave churn events with measurement
// epochs on an emulation they own, without a Scenario.
bool apply_scenario_event(DsdnEmulation& emu, const ScenarioEvent& ev);

// Runs seeds [first_seed, first_seed + n_seeds); on the first failing
// seed, shrinks it and returns the reproducer. nullopt = all passed.
struct SwarmFailure {
  std::uint64_t seed = 0;
  ScenarioResult result;            // the failing full run
  std::vector<char> minimal_mask;   // shrunk reproducer
  std::string reproducer;           // describe(minimal_mask) + violations
};

std::optional<SwarmFailure> run_seed_swarm(const topo::Topology& topo,
                                           const traffic::TrafficMatrix& tm,
                                           const ScenarioOptions& options,
                                           std::uint64_t first_seed,
                                           std::size_t n_seeds);

}  // namespace dsdn::sim
