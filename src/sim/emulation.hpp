#pragma once

// Functional WAN emulation: *real* dSDN controllers -- real NSU flooding,
// real StateDBs, the real TE solver, real FIB programming -- running on
// the discrete-event queue with per-link message delays. This is the
// closest thing to the paper's lab deployment: after quiescence, packets
// are forwarded hop-by-hop through the programmed tables and checked for
// delivery.
//
// Used by the integration tests, the quickstart, and the examples; the
// statistical simulators (convergence.hpp / transient.hpp) are used where
// 1,000-day workloads make functional emulation impractical.
//
// Flooding runs on the calling thread. Every fleet-wide recompute (after
// an event, and in measurement epochs) runs the dirty controllers
// concurrently on the emulation's own te::ThreadPool, one worker per
// hardware thread, as every router's on-box controller does in a real
// fleet. Router n always runs on worker n mod workers (for_each_slot), so
// its long-lived tables are freed and reallocated in one malloc arena.
// Each router's result is a pure function of its own view, so the fleet
// state after an event does not depend on the schedule. Two things do:
//  - SnapshotHub epochs are numbered in completion order (the hub
//    serializes publishes); the snapshot after the event is the same.
//  - Controller bus callbacks fired by recompute() (kSolutionReady) run
//    on a pool worker, concurrently with other routers' recomputes.

#include <functional>
#include <memory>
#include <span>

#include "core/controller.hpp"
#include "core/introspection.hpp"
#include "dataplane/forwarder.hpp"
#include "dataplane/snapshot.hpp"
#include "obs/metrics.hpp"
#include "sim/event_queue.hpp"
#include "sim/faulty_bus.hpp"
#include "te/thread_pool.hpp"
#include "traffic/estimator.hpp"
#include "traffic/matrix.hpp"

namespace dsdn::sim {

struct EmulationConfig {
  // Every controller solves with the default te::SolverOptions (a
  // constant; perfbench's replay reads it through an instance).
  static constexpr te::SolverOptions solver_options{};
  // Fixed per-hop NSU processing delay added to link propagation.
  static constexpr double nsu_process_s = 0.002;
  // Controllers pre-install per-router FRR bypasses on every recompute
  // (the on-box Smart-FRR capability of Appendix C).
  bool use_bypasses = true;
  static constexpr dataplane::BypassStrategy bypass_strategy =
      core::ControllerConfig::bypass_strategy;
  // Warm-start incremental TE recompute on every controller. Safe here
  // because the emulation recomputes all dirty controllers at the same
  // quiescent points, keeping warm-state histories in lockstep; a
  // member crash/restart forces a *fleet-wide* warm-state reset at the
  // recovery barrier, because a restarted instance's cold solve may
  // disagree with its peers' evolved solutions (bounded drift is still
  // drift) and disagreeing headends can jointly overcommit a link.
  bool incremental_te = false;
  // Online-TE recompute policy for closed-loop demand epochs
  // (measurement_epoch): controllers defer TE while their policy says
  // the drift isn't worth a re-solve. kEvery (the default) attaches no
  // policy and preserves the classic recompute-every-epoch behavior.
  // Like incremental_te, safety rests on lockstep: every controller
  // ticks its policy on the same converged views, and crash barriers
  // reset the policies fleet-wide.
  te::RecomputePolicyOptions recompute_policy;
  // Per-router pathing algorithm (§3.2 upgrades / SR rollout). Empty =
  // every router runs the stock solver via the classic LocalSolver path
  // (zero behavior change). Non-empty (size num_nodes): router n's
  // ControllerConfig::algorithm, so every controller advertises its
  // algorithm, runs a MixedAlgorithmSolver keyed off the advertised
  // TLVs with incremental_te forced off, and -- while the TLVs show a
  // kSegmentRouting member -- programs its node-segment FIB on each
  // recompute.
  std::vector<core::PathingAlgorithm> algorithms;
};

class DsdnEmulation final : public dataplane::DataplaneProvider {
 public:
  DsdnEmulation(topo::Topology topo, traffic::TrafficMatrix tm,
                EmulationConfig config = {});

  // Boots every controller: originates initial NSUs, floods to
  // quiescence, recomputes and programs all routers.
  void bootstrap();

  // Injects a fiber cut / repair: updates ground truth, has the incident
  // routers originate fresh NSUs, floods to quiescence, then recomputes
  // every controller whose view changed.
  void fail_fiber(topo::LinkId fiber);
  void repair_fiber(topo::LinkId fiber);

  // Correlated SRLG-style multi-failure: every fiber goes down and all
  // incident routers originate before a *single* quiescence barrier, so
  // the NSUs of the member failures overlap in flight.
  void fail_fibers(std::span<const topo::LinkId> fibers);

  // Link flap: down then back up with both originations in flight before
  // one quiescence barrier -- receivers can see the up-NSU before the
  // down-NSU (sequence numbers resolve the race).
  void flap_fiber(topo::LinkId fiber);

  // Partial capacity loss (Appendix C): scales the fiber's capacity in
  // both directions; incident routers advertise the change and every
  // headend re-solves against the reduced capacity.
  void degrade_fiber(topo::LinkId fiber, double capacity_gbps);

  // Crashes a controller and recovers it from a live neighbor (§3.2).
  // Throws std::runtime_error, leaving the fleet untouched, when the node
  // has no up neighbor.
  void crash_and_recover(topo::NodeId node);

  // Crash plus *cold* restart: unlike crash_and_recover, nothing is
  // copied out-of-band -- every up neighbor refloods its full database
  // over the wire (IS-IS CSNP adjacency-up resync) and the fresh
  // controller rebuilds its StateDb from the re-flooded NSUs alone. Its
  // own pre-crash NSU comes back too; the controller adopts its sequence
  // number so the post-restart origination supersedes it everywhere.
  // Warm-start TE state is discarded with the crashed instance (the
  // first recompute after restart is a full solve). Throws like
  // crash_and_recover for an isolated node.
  void crash_and_cold_restart(topo::NodeId node);

  // Demand surge/shift: scales the oracle matrix rows originating at
  // `origin` (every row when origin == topo::kInvalidNode) by `factor`,
  // re-advertises the origins whose aggregated advertisement actually
  // changed (an origin with no demand rows floods nothing), floods to
  // quiescence, and recomputes. Only meaningful without in-band
  // measurement.
  void scale_demands(double factor,
                     topo::NodeId origin = topo::kInvalidNode);

  // Replaces the oracle demand matrix wholesale: origins whose rows
  // changed re-advertise, the fleet floods to quiescence and recomputes.
  // This is how the hierarchical plane runtime rebalances a failed
  // plane's flows onto survivors (hier::PlaneRuntime). Only meaningful
  // without in-band measurement.
  void update_demands(traffic::TrafficMatrix tm);

  // Flips warm-start incremental TE on every controller mid-run (the
  // scenario harness toggles this across histories). Also updates the
  // config used for controllers created by future crash recoveries.
  void set_incremental_te(bool enabled);

  // --- Batched dataplane (RCU FIB snapshots) ---
  // Creates a SnapshotHub with `num_cores` forwarding slots and attaches
  // it to every controller: each recompute publishes that router's
  // tables as one atomic epoch, and BatchPipelines forward from the hub
  // concurrently with reprogramming. Controllers created by later crash
  // recoveries attach automatically. Idempotent scale: calling again
  // replaces the hub.
  void enable_fib_snapshots(std::size_t num_cores = 1);
  dataplane::SnapshotHub* fib_hub() const { return fib_hub_.get(); }

  const EmulationConfig& config() const { return config_; }

  // --- In-band demand measurement (§3.2) ---
  // When enabled, controllers advertise EWMA-estimated demand from
  // traffic observed at their ingress instead of the oracle matrix.
  // Call observe_traffic() to feed an epoch of offered load (e.g. the
  // current matrix, or any drifted variant), then measurement_epoch() to
  // roll estimators, re-originate NSUs, and reconverge.
  void enable_in_band_measurement(traffic::DemandEstimator::Options options
                                  = {});
  void observe_traffic(const traffic::TrafficMatrix& offered);
  void measurement_epoch();

  // Replaces the oracle matrix withOUT flooding anything: with in-band
  // measurement the controllers must only ever learn demand through
  // their estimators, while invariant checkers and flow evaluation read
  // the live truth from demands(). This is how closed-loop scenarios
  // evolve the ground truth each epoch.
  void set_oracle_demands(traffic::TrafficMatrix tm);

  // --- Fault injection on the flooding plane ---
  // Interposes a FaultyBus between flooders and links: per-link
  // drop/dup/corrupt/reorder/jitter with seeded per-link RNG streams.
  // Transfers that lose every intact copy are retransmitted per
  // flood_retransmit (faulty_bus.hpp). Deterministic: same seed, same
  // run.
  void enable_fault_injection(const LinkFaultProfile& default_profile,
                              std::uint64_t seed);
  void set_link_fault_profile(topo::LinkId link, const LinkFaultProfile& p);
  FaultyBus* faulty_bus() { return faults_.get(); }

  // Flooding accounting, stored in this emulation's metrics registry
  // (obs(), counters "flood.*") -- the one source of truth the status
  // renderers and run artifacts also read. This struct is the typed
  // view assembled on demand.
  struct FloodStats {
    std::size_t transmissions = 0;  // attempts incl. retransmits
    std::size_t retransmits = 0;
    std::size_t gave_up = 0;        // transfers abandoned after max retx
    std::size_t decode_errors = 0;  // corrupted copies rejected by decode

    bool operator==(const FloodStats&) const = default;
  };
  FloodStats flood_stats() const;

  // Per-instance metrics registry: flood.* counters, nsu bytes, message
  // counts. Exporters (obs::to_json / to_text) and the introspection
  // renderers read from here.
  const obs::Registry& obs() const { return obs_; }

  // collect_status for one controller with this emulation's flooding
  // counters merged in (the controller alone cannot see the transport).
  core::ControllerStatus status_of(topo::NodeId node) const;

  // True iff all controllers' StateDb digests are identical.
  bool views_converged() const;

  // Sends one packet from `ingress` toward `dst_ip`.
  dataplane::ForwardResult send_packet(
      topo::NodeId ingress, std::uint32_t dst_ip,
      metrics::PriorityClass priority = metrics::PriorityClass::kHigh,
      std::uint64_t entropy = 1) const;

  // Convenience: a host address attached to router `dst`.
  std::uint32_t address_of(topo::NodeId dst) const;

  const topo::Topology& network() const { return topo_; }
  const traffic::TrafficMatrix& demands() const { return tm_; }
  const core::Controller& controller(topo::NodeId n) const;
  core::Controller& mutable_controller(topo::NodeId n);
  double sim_time() const { return queue_.now(); }
  std::size_t messages_delivered() const { return messages_; }

  // DataplaneProvider: the forwarder reads live controller FIBs.
  const dataplane::RouterDataplane& at(topo::NodeId node) const override;

 private:
  std::unique_ptr<core::Controller> make_controller(topo::NodeId n) const;
  // Flips a duplex fiber in ground truth AND publishes the new link state
  // to the snapshot hub (dataplane port-down detection precedes control-
  // plane reconvergence).
  void set_fiber_up(topo::LinkId fiber, bool up);
  void originate_and_flood(topo::NodeId n);
  void flood(const core::FloodDirective& directive);
  // One transmit attempt (attempt 0 = first try) of a serialized NSU
  // over a link; schedules deliveries and, on loss, the retransmit.
  void transmit(std::shared_ptr<const std::vector<std::uint8_t>> bytes,
                topo::LinkId lid, int attempt);
  void deliver(const core::NodeStateUpdate& nsu, topo::LinkId via);
  void run_to_quiescence();
  // Calls fn(n) for every router on the fleet pool: router n always on
  // slot n mod workers. fn may write per-router state (dirty_[n]) only.
  // Every router runs even when another throws; a failure is rethrown on
  // the caller once all routers are done.
  void for_each_router(const std::function<void(topo::NodeId)>& fn);
  // Recomputes every dirty controller, concurrently (for_each_router). A
  // router whose recompute throws stays dirty.
  void recompute_dirty();
  const core::TelemetrySource& telemetry_for(topo::NodeId node) const;
  // Does n's current estimator advertisement differ from its last
  // originated NSU demand section (beyond FP wobble)?
  bool advert_changed(topo::NodeId n) const;

  topo::Topology topo_;  // ground truth
  traffic::TrafficMatrix tm_;
  EmulationConfig config_;
  std::vector<topo::Prefix> prefixes_;
  std::unique_ptr<core::SimTelemetry> telemetry_;
  // In-band measurement state (empty unless enabled).
  std::vector<traffic::DemandEstimator> estimators_;
  std::vector<std::unique_ptr<traffic::EstimatingTelemetry>>
      estimating_telemetry_;
  std::vector<std::unique_ptr<core::Controller>> controllers_;
  std::unique_ptr<dataplane::SnapshotHub> fib_hub_;
  std::vector<char> dirty_;
  std::unique_ptr<te::ThreadPool> pool_;  // fleet-wide recomputes
  sim::EventQueue queue_;
  std::size_t messages_ = 0;
  std::unique_ptr<FaultyBus> faults_;
  // Declared before the counter handles below, which point into it.
  obs::Registry obs_;
  obs::Counter& c_transmissions_;
  obs::Counter& c_retransmits_;
  obs::Counter& c_gave_up_;
  obs::Counter& c_decode_errors_;
  obs::Counter& c_nsu_bytes_;
};

}  // namespace dsdn::sim
