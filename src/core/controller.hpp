#pragma once

// The dSDN controller (§3.3, Fig 6): one per router, wiring
// NodeStateExchange (flooding), StateDB, LocalState, Pathing, and
// Programmer over the pub-sub Bus.
//
// The controller is transport-agnostic: originate()/handle_nsu() return
// FloodDirectives naming the links an NSU should be sent on, and the
// host (the event-driven emulation, or a gRPC transport in production)
// performs the delivery. This keeps routing logic cleanly isolated from
// communication details, mirroring the gRPC + link-local design.

#include <memory>
#include <optional>

#include "core/bus.hpp"
#include "core/local_state.hpp"
#include "core/pathing.hpp"
#include "core/programmer.hpp"
#include "core/state_db.hpp"
#include "core/upgrade.hpp"
#include "te/incremental.hpp"
#include "te/recompute_policy.hpp"

namespace dsdn::dataplane {
class SnapshotHub;
}

namespace dsdn::core {

struct ControllerConfig {
  topo::NodeId self = topo::kInvalidNode;
  // Pre-install FRR bypasses for local links on every recompute
  // (Appendix C: dSDN recomputes them as demand/capacity changes), with
  // the capacity-aware strategy and k candidate detours per link.
  bool program_bypasses = true;
  static constexpr dataplane::BypassStrategy bypass_strategy =
      dataplane::BypassStrategy::kCapacityAware;
  static constexpr std::size_t bypass_k = 4;
  // Warm-start incremental TE recompute (te::IncrementalSolver): reuse
  // the previous solution's allocations that no view change touched,
  // re-waterfill only the affected set. Off by default: with it on,
  // routers converge to identical solutions only when their recompute
  // *histories* match (which the emulation's quiescence barrier
  // provides), not per isolated view. Ignored after set_solve_api().
  bool incremental_te = false;
  // Algorithm coexistence (§3.2, upgrades). Set: this router is a member
  // of a mixed-algorithm fleet and runs `*algorithm`. It announces it in
  // the NSU algorithm TLV so peers can predict its placement, and solves
  // with MixedAlgorithmSolver, predicting each headend's placement from
  // its advertised algorithm (its own from here). While the view's TLVs
  // show a kSegmentRouting member it installs the node-segment FIB
  // (SrFib) on every recompute, since every router transits
  // segment-labeled packets. Forces incremental_te off -- the warm-start
  // cache only speaks the stock solver. Unset: the stock solver alone.
  std::optional<PathingAlgorithm> algorithm;
};

// An NSU to transmit and the local out-links to flood it on.
struct FloodDirective {
  NodeStateUpdate nsu;
  std::vector<topo::LinkId> out_links;

  bool empty() const { return out_links.empty(); }
};

class Controller {
 public:
  Controller(const ControllerConfig& config,
             const topo::Topology& configured);

  topo::NodeId self() const { return config_.self; }

  // Snapshots local state, applies it to the own StateDb, and returns
  // the NSU with every up out-link to flood it on.
  FloodDirective originate(const TelemetrySource& telemetry);

  // Processes an NSU received on `arrival_link` (kInvalidLink for a
  // locally injected update). When accepted, the directive re-floods it
  // on all up out-links except the reverse of the arrival link; stale or
  // malformed NSUs yield an empty directive (flooding terminates).
  FloodDirective handle_nsu(const NodeStateUpdate& nsu,
                            topo::LinkId arrival_link);

  struct RecomputeResult {
    te::SolveStats stats;
    // Warm-start accounting; `incremental.incremental` is false when the
    // controller ran a plain full solve (the default configuration).
    te::IncrementalStats incremental;
    Programmer::EncapReport encap;
    Programmer::BypassReport bypasses;
    Programmer::SrReport sr;
    std::size_t own_allocations = 0;
  };

  // Runs TE on the current view and programs the local dataplane:
  // prefixes, encap routes, segment and bypass tables.
  RecomputeResult recompute();

  const StateDb& state() const { return state_; }

  // Programming accounting accumulated over every recompute() in this
  // controller's lifetime (per-call numbers are in RecomputeResult).
  // collect_status reports these, so "show dsdn status" surfaces install
  // retries/give-ups instead of silently dropping them.
  const Programmer::EncapReport& encap_totals() const {
    return encap_totals_;
  }
  std::size_t recomputes() const { return recomputes_; }

  // Stats of the most recent recompute's solve (zero before the first),
  // surfaced by collect_status so solver health (e.g. round-cap-frozen
  // demands) is visible in "show dsdn status".
  const te::SolveStats& last_solve_stats() const { return last_solve_; }
  const te::IncrementalStats& last_incremental_stats() const {
    return last_incremental_;
  }
  // Null unless incremental_te was configured (and no custom Solve API
  // has replaced it).
  const te::IncrementalSolver* incremental_solver() const {
    return incremental_.get();
  }
  // Heap bytes of the shortest-path table this router's solver holds
  // (shared with every solver of the same topology, counted in full).
  std::size_t path_table_bytes() const {
    return incremental_ ? incremental_->path_table_bytes()
                        : solve_api_->path_table_bytes();
  }

  // The solution installed by the most recent recompute() (empty before
  // the first). Invariant checkers diff this against a cold full solve
  // of the same view to bound warm-start drift across whole histories.
  const te::Solution& last_solution() const { return last_solution_; }

  // Runtime toggle for warm-start TE (scenario harness: mid-history
  // on/off flips). Turning it off discards the warm state; turning it on
  // starts cold (the next recompute is a full solve). Idempotent.
  void set_incremental_te(bool enabled);

  // Drops the warm-start state (keeping the feature enabled): the next
  // recompute is a from-scratch full solve. Used when a peer restarts --
  // warm histories are history-dependent within the checker tolerance,
  // so a restarted router's cold solve can disagree with its peers'
  // evolved solutions; realigning the whole fleet on a cold solve at the
  // same barrier restores the identical-solutions property (§3.1).
  void reset_incremental_te();

  // Online-TE recompute policy (closed-loop demand epochs). Null (the
  // default) preserves the classic behavior: every demand epoch
  // recomputes. The policy's decisions are deterministic in its view
  // sequence, so a lockstep fleet running the same policy stays
  // consistent without coordination.
  void set_recompute_policy(std::unique_ptr<te::RecomputePolicy> policy) {
    recompute_policy_ = std::move(policy);
  }
  const te::RecomputePolicy* recompute_policy() const {
    return recompute_policy_.get();
  }

  // One measurement epoch elapsed; should this controller re-run TE?
  // Ticks the policy against the current converged demand view (and
  // always answers yes when no policy is attached).
  bool demand_epoch_due();

  // Fleet-wide crash barrier: forget the policy's drift baseline, in
  // lockstep with reset_incremental_te() (both protect the §3.1
  // identical-solutions property across restarts).
  void reset_recompute_policy() {
    if (recompute_policy_) recompute_policy_->reset();
  }

  const dataplane::RouterDataplane& dataplane() const { return hw_; }
  dataplane::RouterDataplane& mutable_dataplane() { return hw_; }
  Bus& bus() { return bus_; }

  // Attaches the RCU snapshot hub of the batched dataplane: every
  // recompute() then ends by publishing this router's fully programmed
  // tables as one new epoch -- the all-or-nothing bank swap -- after
  // prefixes, encap routes, AND bypasses are all installed. Attaching
  // publishes the current tables immediately; null detaches.
  void attach_fib_hub(dataplane::SnapshotHub* hub);
  dataplane::SnapshotHub* fib_hub() const { return fib_hub_; }

  // Crash recovery (§3.2): rebuild state from an immediate neighbor and
  // resume NSU sequence numbers past anything the network saw from us.
  void recover_from(const Controller& neighbor);

  // Adjacency-up database resynchronization (IS-IS CSNP-style [7]):
  // merges the neighbor's database, then returns flood directives for
  // every NSU in the merged database so updates that crossed a partition
  // reach the rest of the network. Sequence-number dedup at receivers
  // terminates the reflood cheaply when nothing actually changed.
  std::vector<FloodDirective> resync_with(const Controller& neighbor);

  // The reflood half of resync_with without the merge: directives for
  // every NSU in the own database, flooded on all up out-links. This is
  // what a router sends when an adjacency comes up toward a peer that
  // lost its database (cold restart): the restarted router rebuilds its
  // StateDb purely from these re-flooded NSUs.
  std::vector<FloodDirective> advertise_database() const;

  // Replaces the Solve API implementation (operator-defined control code;
  // also how the solver could move off-box).
  void set_solve_api(std::unique_ptr<SolveApi> api);

 private:
  std::vector<topo::LinkId> flood_links(topo::LinkId except_arrival) const;
  // kStateChanged with the StateDb digest, when anyone subscribes.
  void publish_state_changed() const;

  ControllerConfig config_;
  Bus bus_;
  StateDb state_;
  // Each router's algorithm as of the last recompute: the view's TLVs,
  // own entry from config. Empty outside a mixed fleet.
  std::vector<PathingAlgorithm> algorithms_;
  LocalState local_;
  std::unique_ptr<SolveApi> solve_api_;
  std::unique_ptr<te::IncrementalSolver> incremental_;
  std::unique_ptr<te::RecomputePolicy> recompute_policy_;
  Programmer programmer_;
  dataplane::RouterDataplane hw_;
  dataplane::SnapshotHub* fib_hub_ = nullptr;
  Programmer::EncapReport encap_totals_;
  std::size_t recomputes_ = 0;
  te::SolveStats last_solve_;
  te::IncrementalStats last_incremental_;
  te::Solution last_solution_;
};

}  // namespace dsdn::core
