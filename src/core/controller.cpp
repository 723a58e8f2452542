#include "core/controller.hpp"

#include <algorithm>
#include <stdexcept>

#include "dataplane/snapshot.hpp"
#include "obs/trace.hpp"

namespace dsdn::core {

Controller::Controller(const ControllerConfig& config,
                       const topo::Topology& configured)
    : config_(config),
      state_(configured),
      local_(config.self),
      solve_api_(std::make_unique<LocalSolver>()),
      programmer_(config.self) {
  if (config.self >= configured.num_nodes())
    throw std::invalid_argument("Controller: bad self id");
  if (config.algorithm) {
    solve_api_ = std::make_unique<MixedAlgorithmSolver>(
        [this](topo::NodeId n) { return algorithms_[n]; });
    config_.incremental_te = false;  // warm cache only speaks te::Solver
  } else if (config.incremental_te) {
    set_incremental_te(true);
  }
}

void Controller::set_incremental_te(bool enabled) {
  if (enabled && config_.algorithm) return;  // incompatible; stay off
  config_.incremental_te = enabled;
  if (!enabled) {
    incremental_.reset();
    return;
  }
  if (incremental_) return;  // keep the existing warm state
  incremental_ = std::make_unique<te::IncrementalSolver>();
}

void Controller::reset_incremental_te() {
  if (incremental_) incremental_->reset();
}

bool Controller::demand_epoch_due() {
  if (!recompute_policy_) return true;
  return recompute_policy_->on_epoch(state_.demands());
}

std::vector<topo::LinkId> Controller::flood_links(
    topo::LinkId except_arrival) const {
  std::vector<topo::LinkId> out;
  const topo::Topology& view = state_.view();
  const topo::LinkId reverse_of_arrival =
      except_arrival == topo::kInvalidLink
          ? topo::kInvalidLink
          : view.link(except_arrival).reverse;
  for (topo::LinkId lid : view.node(config_.self).out_links) {
    if (!view.link(lid).up) continue;
    if (lid == reverse_of_arrival) continue;  // don't echo to the sender
    out.push_back(lid);
  }
  return out;
}

void Controller::publish_state_changed() const {
  // The digest walks the whole database: compute it only for a listener.
  if (bus_.num_subscribers(topics::kStateChanged) > 0)
    bus_.publish_as(topics::kStateChanged, state_.digest());
}

FloodDirective Controller::originate(const TelemetrySource& telemetry) {
  FloodDirective d;
  d.nsu = local_.snapshot(telemetry);
  if (config_.algorithm) {
    d.nsu.tlvs.push_back(make_algorithm_tlv(*config_.algorithm));
  }
  if (!state_.apply(d.nsu))
    throw std::logic_error("own NSU rejected by own StateDb");
  publish_state_changed();
  d.out_links = flood_links(topo::kInvalidLink);
  return d;
}

FloodDirective Controller::handle_nsu(const NodeStateUpdate& nsu,
                                      topo::LinkId arrival_link) {
  FloodDirective d;
  if (nsu.origin == config_.self) {
    // Our own NSU echoed back through the network: never re-flood (the
    // sequence number check would reject it anyway). After a cold
    // restart the echo carries a pre-crash sequence number our reset
    // counter knows nothing about -- adopt it (IS-IS own-LSP recovery)
    // so the next origination supersedes the stale copy network-wide.
    local_.resume_after(nsu.seq);
    return d;
  }
  if (!state_.apply(nsu)) return d;  // stale/malformed: flooding stops here
  bus_.publish_as(topics::kNsuReceived, nsu);
  publish_state_changed();
  d.nsu = nsu;
  d.out_links = flood_links(arrival_link);
  return d;
}

Controller::RecomputeResult Controller::recompute() {
  DSDN_TRACE_SPAN("ctrl.recompute");
  RecomputeResult result;
  if (config_.algorithm) {
    // Peers' algorithms come from their latest NSU TLV (absent = stock
    // solver, the pre-TLV assumption); our own from config, so the
    // prediction works even before our first origination circulates.
    algorithms_ = algorithm_map_from_state(state_);
    algorithms_[config_.self] = *config_.algorithm;
  }
  // Pathing (§3.3): solve the whole network, then keep this router's
  // rows -- what the Programmer installs.
  if (incremental_) {
    // Warm-start path: consume the view delta accumulated since the
    // previous recompute and reuse every allocation it did not touch.
    const te::ViewDelta delta = state_.take_delta();
    last_solution_ = incremental_->solve(state_.view(), state_.demands(),
                                         delta, &result.incremental);
    result.stats = result.incremental.solve;
  } else {
    last_solution_ =
        solve_api_->solve(state_.view(), state_.demands(), &result.stats);
  }
  std::vector<te::Allocation> own;
  for (const te::Allocation* a : last_solution_.originating_at(config_.self))
    own.push_back(*a);
  result.own_allocations = own.size();
  last_solve_ = result.stats;
  last_incremental_ = result.incremental;
  programmer_.program_prefixes(state_, hw_);
  result.encap = programmer_.program_encap(own, hw_);
  ++recomputes_;
  encap_totals_.routes_installed += result.encap.routes_installed;
  encap_totals_.routes_too_deep += result.encap.routes_too_deep;
  encap_totals_.sr_routes_installed += result.encap.sr_routes_installed;
  if (std::ranges::find(algorithms_, PathingAlgorithm::kSegmentRouting) !=
      algorithms_.end()) {
    result.sr = programmer_.program_sr(state_.view(), hw_);
  }
  if (config_.program_bypasses) {
    result.bypasses = programmer_.program_bypasses(
        state_.view(), last_solution_.residual_capacity(state_.view()),
        ControllerConfig::bypass_strategy, ControllerConfig::bypass_k, hw_);
  }
  // All tables for this epoch are installed; publish them as one atomic
  // snapshot swap. Batches already in flight finish on the old epoch.
  if (fib_hub_) fib_hub_->publish_router(config_.self, hw_);
  if (recompute_policy_) recompute_policy_->note_recompute(state_.demands());
  bus_.publish_as(topics::kSolutionReady, last_solution_);
  return result;
}

void Controller::attach_fib_hub(dataplane::SnapshotHub* hub) {
  fib_hub_ = hub;
  if (fib_hub_) fib_hub_->publish_router(config_.self, hw_);
}

void Controller::recover_from(const Controller& neighbor) {
  state_.load_from(neighbor.state_);
  local_.resume_after(state_.seq_of(config_.self));
  publish_state_changed();
}

std::vector<FloodDirective> Controller::resync_with(
    const Controller& neighbor) {
  state_.load_from(neighbor.state_);
  publish_state_changed();
  return advertise_database();
}

std::vector<FloodDirective> Controller::advertise_database() const {
  std::vector<FloodDirective> out;
  const auto links = flood_links(topo::kInvalidLink);
  for (const NodeStateUpdate* nsu : state_.all_latest()) {
    FloodDirective d;
    d.nsu = *nsu;
    d.out_links = links;
    out.push_back(std::move(d));
  }
  return out;
}

void Controller::set_solve_api(std::unique_ptr<SolveApi> api) {
  if (!api) throw std::invalid_argument("set_solve_api: null");
  solve_api_ = std::move(api);
  // A replacement Solve API has unknown semantics; the warm-start cache
  // of the built-in solver cannot speak for it.
  incremental_.reset();
}

}  // namespace dsdn::core
