#include "sim/emulation.hpp"

#include <algorithm>
#include <cmath>
#include <exception>
#include <stdexcept>
#include <thread>

#include "core/wire.hpp"
#include "obs/trace.hpp"

namespace dsdn::sim {

DsdnEmulation::DsdnEmulation(topo::Topology topo, traffic::TrafficMatrix tm,
                             EmulationConfig config)
    : topo_(std::move(topo)),
      tm_(std::move(tm)),
      config_(config),
      c_transmissions_(obs_.counter("flood.transmissions")),
      c_retransmits_(obs_.counter("flood.retransmits")),
      c_gave_up_(obs_.counter("flood.gave_up")),
      c_decode_errors_(obs_.counter("flood.decode_errors")),
      c_nsu_bytes_(obs_.counter("flood.nsu_bytes")) {
  prefixes_ = topo::assign_router_prefixes(topo_);
  telemetry_ = std::make_unique<core::SimTelemetry>(&topo_, &tm_, prefixes_);
  controllers_.reserve(topo_.num_nodes());
  for (topo::NodeId n = 0; n < topo_.num_nodes(); ++n) {
    controllers_.push_back(make_controller(n));
  }
  dirty_.assign(topo_.num_nodes(), 0);
  pool_ = std::make_unique<te::ThreadPool>(
      std::max(1u, std::thread::hardware_concurrency()));
}

std::unique_ptr<core::Controller> DsdnEmulation::make_controller(
    topo::NodeId n) const {
  core::ControllerConfig cc;
  cc.self = n;
  cc.program_bypasses = config_.use_bypasses;
  cc.incremental_te = config_.incremental_te;
  if (!config_.algorithms.empty()) {
    if (config_.algorithms.size() != topo_.num_nodes())
      throw std::invalid_argument("EmulationConfig::algorithms size mismatch");
    cc.algorithm = config_.algorithms[n];
  }
  auto c = std::make_unique<core::Controller>(cc, topo_);
  // A non-trivial recompute policy rides on measurement epochs; kEvery
  // attaches nothing so the classic paths stay byte-identical. A
  // controller replaced by crash recovery starts with a reset policy --
  // the recovery barriers reset the survivors to match.
  if (config_.recompute_policy.kind != te::RecomputeTrigger::kEvery) {
    c->set_recompute_policy(
        std::make_unique<te::RecomputePolicy>(config_.recompute_policy));
  }
  // Replacement controllers (crash recovery) publish to the same hub the
  // crashed instance did, so forwarding cores keep working through the
  // restart on the last published epoch.
  if (fib_hub_) c->attach_fib_hub(fib_hub_.get());
  return c;
}

void DsdnEmulation::enable_fib_snapshots(std::size_t num_cores) {
  fib_hub_ = std::make_unique<dataplane::SnapshotHub>(topo_, num_cores);
  for (auto& c : controllers_) c->attach_fib_hub(fib_hub_.get());
}

void DsdnEmulation::set_fiber_up(topo::LinkId fiber, bool up) {
  topo_.set_duplex_up(fiber, up);
  // Dataplane-local port-state detection: forwarding cores see the flip
  // (and engage FRR on down links) immediately, long before the control
  // plane floods, recomputes, and republishes tables.
  if (fib_hub_) fib_hub_->publish_link_state(topo_);
}

void DsdnEmulation::originate_and_flood(topo::NodeId n) {
  const auto directive = controllers_[n]->originate(telemetry_for(n));
  dirty_[n] = 1;
  flood(directive);
}

const core::Controller& DsdnEmulation::controller(topo::NodeId n) const {
  return *controllers_.at(n);
}

core::Controller& DsdnEmulation::mutable_controller(topo::NodeId n) {
  return *controllers_.at(n);
}

const dataplane::RouterDataplane& DsdnEmulation::at(topo::NodeId node) const {
  return controllers_.at(node)->dataplane();
}

std::uint32_t DsdnEmulation::address_of(topo::NodeId dst) const {
  return topo::host_in(prefixes_.at(dst));
}

void DsdnEmulation::flood(const core::FloodDirective& directive) {
  // NSUs cross the wire as bytes: every delivery round-trips through the
  // real serialization so the emulation exercises the gRPC payload path.
  const auto bytes =
      std::make_shared<const std::vector<std::uint8_t>>(
          core::serialize_nsu(directive.nsu));
  for (topo::LinkId lid : directive.out_links) {
    transmit(bytes, lid, /*attempt=*/0);
  }
}

void DsdnEmulation::transmit(
    std::shared_ptr<const std::vector<std::uint8_t>> bytes, topo::LinkId lid,
    int attempt) {
  c_transmissions_.inc();
  c_nsu_bytes_.add(bytes->size());
  const topo::Link& l = topo_.link(lid);
  const double base_delay = l.delay_s + EmulationConfig::nsu_process_s;
  auto deliver_payload =
      [this, lid](std::shared_ptr<const std::vector<std::uint8_t>> payload,
                  double delay, bool corrupted) {
        queue_.schedule_in(delay, [this, payload, lid, corrupted] {
          const auto decoded = core::decode_nsu(*payload);
          if (!decoded) {
            c_decode_errors_.inc();
            return;
          }
          // A garbled copy can still decode (flips in float payloads are
          // just different numbers); the transport checksum catches what
          // the framing cannot, so it never reaches the StateDb either
          // way -- but the decoder was exercised on the garbled bytes.
          if (corrupted) {
            c_decode_errors_.inc();
            return;
          }
          deliver(*decoded.nsu, lid);
        });
      };
  if (!faults_) {
    deliver_payload(std::move(bytes), base_delay, /*corrupted=*/false);
    return;
  }

  bool intact_copy_sent = false;
  for (const FaultyBus::Copy& copy : faults_->transmit(lid)) {
    auto payload = bytes;
    if (copy.corrupted) {
      auto garbled = *bytes;
      faults_->corrupt_payload(lid, garbled);
      payload = std::make_shared<const std::vector<std::uint8_t>>(
          std::move(garbled));
    } else {
      intact_copy_sent = true;
    }
    deliver_payload(std::move(payload), base_delay + copy.extra_delay_s,
                    copy.corrupted);
  }
  if (intact_copy_sent) return;

  // No intact copy made it onto the wire: the transfer times out at the
  // sender (gRPC deadline) and is retransmitted with exponential backoff
  // plus jitter -- bounded, so a dead link cannot retransmit forever.
  if (attempt >= flood_retransmit::kMaxRetransmits) {
    c_gave_up_.inc();
    return;
  }
  const double backoff = flood_retransmit::backoff(
      attempt, faults_->uniform(lid, 0.0, flood_retransmit::kJitter));
  c_retransmits_.inc();
  queue_.schedule_in(base_delay + backoff, [this, bytes, lid, attempt] {
    transmit(bytes, lid, attempt + 1);
  });
}

void DsdnEmulation::deliver(const core::NodeStateUpdate& nsu,
                            topo::LinkId via) {
  const topo::Link& l = topo_.link(via);
  if (!l.up) return;  // lost with the link (sender retries via next NSU)
  ++messages_;
  core::Controller& receiver = *controllers_[l.dst];
  const core::FloodDirective onward = receiver.handle_nsu(nsu, via);
  if (!onward.empty() || receiver.state().seq_of(nsu.origin) == nsu.seq) {
    dirty_[l.dst] = 1;
  }
  if (!onward.empty()) flood(onward);
}

void DsdnEmulation::run_to_quiescence() {
  DSDN_TRACE_SPAN("emu.flood");
  // 16M message budget: loop-free flooding over a connected graph always
  // terminates far below this; the cap turns a logic bug into an error.
  const std::size_t executed = queue_.run(16'000'000);
  if (executed >= 16'000'000)
    throw std::runtime_error("emulation: flooding did not quiesce");
}

void DsdnEmulation::for_each_router(
    const std::function<void(topo::NodeId)>& fn) {
  const std::size_t workers = pool_->n_threads();
  const std::size_t n = controllers_.size();
  pool_->for_each_slot([&](std::size_t slot) {
    // One router's failure does not stop its slot-mates: every router
    // runs, whatever the worker count, and the slot reports its first
    // failure at the end.
    std::exception_ptr failed;
    for (std::size_t v = slot; v < n; v += workers) {
      try {
        fn(static_cast<topo::NodeId>(v));
      } catch (...) {
        if (!failed) failed = std::current_exception();
      }
    }
    if (failed) std::rethrow_exception(failed);
  });
}

void DsdnEmulation::recompute_dirty() {
  DSDN_TRACE_SPAN("emu.recompute");
  for_each_router([&](topo::NodeId n) {
    if (!dirty_[n]) return;
    controllers_[n]->recompute();
    dirty_[n] = 0;
  });
}

void DsdnEmulation::bootstrap() {
  DSDN_TRACE_SPAN("emu.bootstrap");
  for (topo::NodeId n = 0; n < topo_.num_nodes(); ++n) {
    originate_and_flood(n);
  }
  run_to_quiescence();
  recompute_dirty();
}

void DsdnEmulation::fail_fiber(topo::LinkId fiber) {
  DSDN_TRACE_SPAN("emu.fail_fiber");
  const topo::NodeId a = topo_.link(fiber).src;
  const topo::NodeId b = topo_.link(fiber).dst;
  set_fiber_up(fiber, false);
  for (topo::NodeId origin : {a, b}) originate_and_flood(origin);
  run_to_quiescence();
  recompute_dirty();
}

void DsdnEmulation::fail_fibers(std::span<const topo::LinkId> fibers) {
  DSDN_TRACE_SPAN("emu.fail_fibers");
  // All member fibers go down before any origination: the incident
  // routers then advertise the full SRLG damage in overlapping floods.
  std::vector<topo::NodeId> origins;
  for (topo::LinkId fiber : fibers) {
    set_fiber_up(fiber, false);
    for (topo::NodeId n : {topo_.link(fiber).src, topo_.link(fiber).dst}) {
      if (std::find(origins.begin(), origins.end(), n) == origins.end())
        origins.push_back(n);
    }
  }
  for (topo::NodeId origin : origins) originate_and_flood(origin);
  run_to_quiescence();
  recompute_dirty();
}

void DsdnEmulation::flap_fiber(topo::LinkId fiber) {
  DSDN_TRACE_SPAN("emu.flap_fiber");
  const topo::NodeId a = topo_.link(fiber).src;
  const topo::NodeId b = topo_.link(fiber).dst;
  set_fiber_up(fiber, false);
  for (topo::NodeId origin : {a, b}) originate_and_flood(origin);
  // Back up before the down-NSUs quiesce: both generations are in flight
  // together and receivers may apply them out of order (the sequence
  // check discards whichever arrives stale).
  set_fiber_up(fiber, true);
  for (topo::NodeId origin : {a, b}) originate_and_flood(origin);
  run_to_quiescence();
  recompute_dirty();
}

void DsdnEmulation::repair_fiber(topo::LinkId fiber) {
  DSDN_TRACE_SPAN("emu.repair_fiber");
  const topo::NodeId a = topo_.link(fiber).src;
  const topo::NodeId b = topo_.link(fiber).dst;
  set_fiber_up(fiber, true);
  // Adjacency-up database resync (IS-IS CSNP-style): the endpoints merge
  // databases and reflood, so updates that happened across a partition
  // reach both sides. Receivers' sequence checks stop the reflood where
  // nothing is new.
  for (const auto& directive : controllers_[a]->resync_with(*controllers_[b])) {
    flood(directive);
  }
  for (const auto& directive : controllers_[b]->resync_with(*controllers_[a])) {
    flood(directive);
  }
  for (topo::NodeId origin : {a, b}) originate_and_flood(origin);
  run_to_quiescence();
  recompute_dirty();
}

void DsdnEmulation::degrade_fiber(topo::LinkId fiber, double capacity_gbps) {
  DSDN_TRACE_SPAN("emu.degrade_fiber");
  const topo::NodeId a = topo_.link(fiber).src;
  const topo::NodeId b = topo_.link(fiber).dst;
  topo_.set_duplex_capacity(fiber, capacity_gbps);
  for (topo::NodeId origin : {a, b}) originate_and_flood(origin);
  run_to_quiescence();
  recompute_dirty();
}

void DsdnEmulation::crash_and_recover(topo::NodeId node) {
  DSDN_TRACE_SPAN("emu.crash_recover");
  // Check before replacing anything, so an isolated node keeps its
  // controller when this throws.
  const auto neighbors = topo_.up_neighbors(node);
  if (neighbors.empty())
    throw std::runtime_error("crash_and_recover: isolated node");
  // Fresh controller instance: empty StateDb, seq counter reset, cold
  // incremental warm state (its first recompute is a full solve).
  controllers_[node] = make_controller(node);

  // Recover state from a live neighbor, then re-originate (with a
  // sequence number above anything the network has seen from us).
  controllers_[node]->recover_from(*controllers_[neighbors.front()]);
  originate_and_flood(node);
  run_to_quiescence();
  // A restarted member forces a fleet-wide cold solve: warm incremental
  // histories drift within the checker tolerance, so the fresh
  // instance's full solve could disagree with its peers' evolved
  // solutions -- and disagreeing headends can jointly overcommit a link
  // (found by the scenario swarm: surge + cut + restart). Everyone
  // resets at the same barrier and re-solves the same view identically.
  // Recompute policies reset at the same barrier: the replacement
  // instance starts with no drift baseline, and survivors keeping theirs
  // would defer while it recomputes -- divergent solutions.
  for (auto& c : controllers_) {
    c->reset_incremental_te();
    c->reset_recompute_policy();
  }
  recompute_dirty();
}

void DsdnEmulation::crash_and_cold_restart(topo::NodeId node) {
  DSDN_TRACE_SPAN("emu.cold_restart");
  const auto neighbors = topo_.up_neighbors(node);
  if (neighbors.empty())
    throw std::runtime_error("crash_and_cold_restart: isolated node");
  controllers_[node] = make_controller(node);
  // Adjacency-up resync from every live neighbor: full databases cross
  // the wire as ordinary NSU floods; the restarted router rebuilds its
  // StateDb from what it hears, nothing else. Receivers elsewhere
  // discard the copies as stale, terminating the reflood.
  for (topo::NodeId nb : neighbors) {
    for (const auto& directive : controllers_[nb]->advertise_database()) {
      flood(directive);
    }
  }
  run_to_quiescence();
  // By now the echo of our own pre-crash NSU advanced the sequence
  // counter: this origination supersedes the stale copy everywhere.
  originate_and_flood(node);
  run_to_quiescence();
  // Same fleet-wide cold-solve rule as crash_and_recover (see there).
  for (auto& c : controllers_) {
    c->reset_incremental_te();
    c->reset_recompute_policy();
  }
  recompute_dirty();
}

void DsdnEmulation::scale_demands(double factor, topo::NodeId origin) {
  DSDN_TRACE_SPAN("emu.scale_demands");
  // Route through update_demands' per-origin diff: a fleet-wide surge
  // (origin == kInvalidNode) used to re-originate every router, flooding
  // N full NSUs even from routers with no demand rows at all. Only
  // origins whose aggregated advertisement changed flood now.
  traffic::TrafficMatrix scaled = tm_;
  scaled.scale_rate(origin, factor);
  update_demands(std::move(scaled));
}

void DsdnEmulation::update_demands(traffic::TrafficMatrix tm) {
  DSDN_TRACE_SPAN("emu.update_demands");
  // Diff per-origin aggregated rows so only origins whose advertised
  // demand actually changed re-originate (NSU churn stays proportional to
  // the rebalance, not the fleet size).
  std::vector<char> changed(topo_.num_nodes(), 0);
  for (topo::NodeId n = 0; n < topo_.num_nodes(); ++n) {
    auto before = traffic::TrafficMatrix(tm_.from(n)).aggregated();
    auto after = traffic::TrafficMatrix(tm.from(n)).aggregated();
    if (before.demands() != after.demands()) changed[n] = 1;
  }
  // tm_'s address is stable (SimTelemetry holds a pointer to it); assign
  // in place.
  tm_ = std::move(tm);
  bool any = false;
  for (topo::NodeId n = 0; n < topo_.num_nodes(); ++n) {
    if (changed[n]) {
      originate_and_flood(n);
      any = true;
    }
  }
  if (!any) return;
  run_to_quiescence();
  recompute_dirty();
}

void DsdnEmulation::set_incremental_te(bool enabled) {
  config_.incremental_te = enabled;
  for (auto& c : controllers_) c->set_incremental_te(enabled);
}

const core::TelemetrySource& DsdnEmulation::telemetry_for(
    topo::NodeId node) const {
  if (!estimating_telemetry_.empty()) return *estimating_telemetry_[node];
  return *telemetry_;
}

void DsdnEmulation::enable_in_band_measurement(
    traffic::DemandEstimator::Options options) {
  estimators_.clear();
  estimating_telemetry_.clear();
  estimators_.reserve(topo_.num_nodes());
  for (topo::NodeId n = 0; n < topo_.num_nodes(); ++n) {
    estimators_.emplace_back(n, options);
  }
  // Estimators must not reallocate once telemetry holds pointers.
  estimating_telemetry_.reserve(topo_.num_nodes());
  for (topo::NodeId n = 0; n < topo_.num_nodes(); ++n) {
    estimating_telemetry_.push_back(
        std::make_unique<traffic::EstimatingTelemetry>(&topo_, prefixes_,
                                                       &estimators_[n]));
  }
}

void DsdnEmulation::observe_traffic(const traffic::TrafficMatrix& offered) {
  if (estimators_.empty())
    throw std::logic_error("observe_traffic: measurement not enabled");
  // Each ingress router measures what it forwards this epoch.
  for (const traffic::Demand& d : offered.demands()) {
    estimators_[d.src].observe(d.dst, d.priority, d.rate_gbps);
  }
}

void DsdnEmulation::set_oracle_demands(traffic::TrafficMatrix tm) {
  if (estimators_.empty())
    throw std::logic_error(
        "set_oracle_demands: requires in-band measurement (otherwise "
        "controllers would silently diverge from the oracle; use "
        "update_demands)");
  // tm_'s address is stable (SimTelemetry points at it); assign in place.
  tm_ = std::move(tm);
}

bool DsdnEmulation::advert_changed(topo::NodeId n) const {
  const core::NodeStateUpdate* last = controllers_[n]->state().latest(n);
  if (!last) return true;
  const auto now = estimators_[n].advertised();
  const auto& prev = last->demands;
  if (now.size() != prev.size()) return true;
  for (std::size_t i = 0; i < now.size(); ++i) {
    if (now[i].egress != prev[i].egress ||
        now[i].priority != prev[i].priority) {
      return true;
    }
    // Bias-corrected estimates of perfectly constant traffic wobble in
    // the last ulps across epochs; an exact comparison would re-flood
    // the whole fleet every epoch for nothing.
    const double a = now[i].rate_gbps, b = prev[i].rate_gbps;
    const double scale = std::max({1.0, std::abs(a), std::abs(b)});
    if (std::abs(a - b) > 1e-9 * scale) return true;
  }
  return false;
}

void DsdnEmulation::measurement_epoch() {
  if (estimators_.empty())
    throw std::logic_error("measurement_epoch: measurement not enabled");
  for (auto& est : estimators_) est.roll_epoch();
  // Only routers whose advertisement materially moved re-originate (the
  // same diff discipline as update_demands: NSU churn tracks demand
  // change, not fleet size).
  for (topo::NodeId n = 0; n < topo_.num_nodes(); ++n) {
    if (!advert_changed(n)) continue;
    const auto directive = controllers_[n]->originate(telemetry_for(n));
    dirty_[n] = 1;
    flood(directive);
  }
  run_to_quiescence();
  // Tick every controller's recompute policy on its converged view --
  // every epoch, recompute or not, so staleness counts stay in fleet
  // lockstep. A dirty controller whose policy defers keeps its dirty
  // bit; the TE it is running is stale but fleet-consistent, and a later
  // epoch (or any topology event, which recomputes unconditionally)
  // picks it up.
  for_each_router([&](topo::NodeId n) {
    const bool due = controllers_[n]->demand_epoch_due();
    if (dirty_[n] && due) {
      controllers_[n]->recompute();
      dirty_[n] = 0;
    }
  });
}

void DsdnEmulation::enable_fault_injection(
    const LinkFaultProfile& default_profile, std::uint64_t seed) {
  faults_ = std::make_unique<FaultyBus>(seed);
  faults_->set_default_profile(default_profile);
  // Fresh fault run, fresh flooding counters (bootstrap traffic from
  // before the faults were enabled would drown the lossy-run numbers).
  c_transmissions_.reset();
  c_retransmits_.reset();
  c_gave_up_.reset();
  c_decode_errors_.reset();
  c_nsu_bytes_.reset();
}

DsdnEmulation::FloodStats DsdnEmulation::flood_stats() const {
  FloodStats s;
  s.transmissions = c_transmissions_.value();
  s.retransmits = c_retransmits_.value();
  s.gave_up = c_gave_up_.value();
  s.decode_errors = c_decode_errors_.value();
  return s;
}

core::ControllerStatus DsdnEmulation::status_of(topo::NodeId node) const {
  core::ControllerStatus s = core::collect_status(controller(node));
  core::merge_flood_counters(s, obs_.snapshot());
  return s;
}

void DsdnEmulation::set_link_fault_profile(topo::LinkId link,
                                           const LinkFaultProfile& p) {
  if (!faults_)
    throw std::logic_error("set_link_fault_profile: faults not enabled");
  faults_->set_link_profile(link, p);
}

bool DsdnEmulation::views_converged() const {
  if (controllers_.empty()) return true;
  const std::uint64_t digest = controllers_.front()->state().digest();
  for (const auto& c : controllers_) {
    if (c->state().digest() != digest) return false;
  }
  return true;
}

dataplane::ForwardResult DsdnEmulation::send_packet(
    topo::NodeId ingress, std::uint32_t dst_ip,
    metrics::PriorityClass priority, std::uint64_t entropy) const {
  dataplane::Packet pkt;
  pkt.dst_ip = dst_ip;
  pkt.priority = priority;
  pkt.entropy = entropy;
  pkt.ttl = static_cast<int>(4 * topo_.num_nodes() + 16);
  // Bypasses come from each router's controller-programmed BypassFib.
  const dataplane::Forwarder forwarder(topo_, this);
  return forwarder.forward(std::move(pkt), ingress);
}

}  // namespace dsdn::sim
