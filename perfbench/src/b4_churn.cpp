// b4_churn: reconvergence after control-plane churn, the paper's
// headline path. A B4-like fleet (default DsdnEmulation config, FIB
// snapshots attached, incremental TE off) receives a seeded
// sim::Scenario schedule -- cuts, repairs, flaps, SRLG cuts,
// crash-recover, cold restarts and demand surges, no toggles -- through
// sim::apply_scenario_event. Closed loop: the next event is injected
// when the previous call returns. One operation is one applied event,
// timed from injection until every dirty router has solved, programmed
// and published. Events a runtime guard skips are counted, not timed.
//
// After every event (untimed) the views must agree and a
// sim::score_packets sweep must see zero hard drops.
//
// Traced runs replay each event's work through each layer's public
// function on the same inputs and time every call: serialize_nsu,
// decode_nsu and StateDb::apply on every NSU a router accepted; for
// every recomputed router StateDb::demands, te::Solver::solve, the three
// Programmer calls onto a copy of its pre-event tables, publish_router
// onto a hub the benchmark owns, and Controller::recompute itself. Each
// replayed output must equal what the emulation installed.

#include <algorithm>
#include <any>
#include <memory>

#include "bench.hpp"
#include "core/programmer.hpp"
#include "core/wire.hpp"
#include "dataplane/snapshot.hpp"
#include "sim/packet_score.hpp"
#include "sim/scenario.hpp"
#include "te/solver.hpp"

namespace perfbench {

namespace core = dsdn::core;
namespace sim = dsdn::sim;
namespace topo = dsdn::topo;

namespace {

// ~100 timed events put ten samples beyond p90; the loop keeps going
// past --seconds (up to kMaxOvertime x) until it has them.
constexpr std::size_t kMinTimedEvents = 100;
constexpr double kMaxOvertime = 3.0;

sim::ScenarioOptions scenario_options() {
  sim::ScenarioOptions so;
  so.n_events = 1000;
  so.incremental_te = false;
  so.w_toggle = 0.0;
  // Repairs outweigh cuts plus SRLG members, so the fleet hovers near a
  // steady number of down fibers instead of thinning out over the run.
  so.w_repair = so.w_cut + so.w_srlg * static_cast<double>(so.srlg_size);
  return so;
}

std::uint64_t counter(const sim::DsdnEmulation& emu, const char* name) {
  const auto snap = emu.obs().snapshot();
  const auto it = snap.counters.find(name);
  return it == snap.counters.end() ? 0 : it->second;
}

// Per-run sums of the traced replay, turned into per-layer metrics at
// the end.
struct Replay {
  double events = 0, event_s = 0, layer_sum_s = 0;
  double deliveries = 0, nsu_bytes = 0, transmissions = 0, sim_s = 0;
  double nsus = 0, encode_s = 0, decode_s = 0;
  double accepted = 0, accept_s = 0, rejects = 0, reject_s = 0;
  double routers = 0, demands_s = 0, solve_s = 0, rounds = 0, searches = 0;
  double prefixes_s = 0, encap_s = 0, bypasses_s = 0, routes = 0;
  double publish_s = 0, recompute_s = 0, unattributed_s = 0, epochs = 0;
};

class Fleet {
 public:
  Fleet(const Options& opt, Tracer& tracer, Result& r)
      : opt_(opt), tracer_(tracer), r_(r) {}

  void set_up() {
    emu_.reset();  // one fleet in memory at a time
    Inputs in = b4_inputs(opt_, 0xC4);
    schedule_ = sim::Scenario(in.topo, in.tm, scenario_options(), opt_.seed)
                    .schedule();
    emu_ = std::make_unique<sim::DsdnEmulation>(std::move(in.topo),
                                                std::move(in.tm));
    emu_->enable_fib_snapshots(1);
    emu_->bootstrap();
    hub_ = std::make_unique<dsdn::dataplane::SnapshotHub>(emu_->network(), 1);
    captured_.assign(emu_->network().num_nodes(), {});
  }

  void run() {
    const auto start = Clock::now();
    std::size_t next = 0, skipped = 0;
    while (next < schedule_.size()) {
      const double elapsed = seconds_since(start);
      const bool want_more = !opt_.trace && !opt_.smoke &&
                             op_s_.size() < kMinTimedEvents &&
                             elapsed < kMaxOvertime * opt_.seconds;
      if (elapsed >= opt_.seconds && !want_more) break;
      const std::uint64_t idx = next;
      if (!step(schedule_[next++], idx)) ++skipped;
    }
    r_.set_ops(op_s_);
    r_.detail = {{"events_timed", static_cast<double>(r_.ops)},
                 {"events_skipped", static_cast<double>(skipped)},
                 {"reconverge_p50_s", r_.op_p50_s},
                 {"reconverge_p90_s", r_.op_p90_s}};
    if (tracer_.enabled()) report_layers();
  }

 private:
  // Applies one event; false when a runtime guard skipped it.
  bool step(const sim::ScenarioEvent& ev, std::uint64_t idx) {
    const std::size_t n = emu_->network().num_nodes();
    std::vector<core::StateDb> pre_db;
    std::vector<dsdn::dataplane::RouterDataplane> pre_hw;
    std::vector<const core::Controller*> pre_ctrl(n);
    std::vector<std::size_t> pre_recomputes(n);
    std::uint64_t deliveries = 0, bytes = 0, transmissions = 0, epoch = 0;
    double sim_t = 0;
    if (tracer_.enabled()) {
      subscribe();
      pre_db.reserve(n);
      pre_hw.reserve(n);
      for (topo::NodeId v = 0; v < n; ++v) {
        const core::Controller& c = emu_->controller(v);
        pre_db.push_back(c.state());
        pre_hw.push_back(c.dataplane());
        pre_ctrl[v] = &c;
        pre_recomputes[v] = c.recomputes();
        captured_[v].clear();
      }
      deliveries = emu_->messages_delivered();
      bytes = counter(*emu_, "flood.nsu_bytes");
      transmissions = counter(*emu_, "flood.transmissions");
      sim_t = emu_->sim_time();
      epoch = emu_->fib_hub()->epoch();
    }

    const std::uint32_t span = tracer_.open("event", Tracer::kNoParent, idx);
    const auto t0 = Clock::now();
    const bool applied = sim::apply_scenario_event(*emu_, ev);
    const auto t1 = Clock::now();
    tracer_.close(span);
    if (!applied) return false;
    const double event_s = seconds_between(t0, t1);
    op_s_.push_back(event_s);
    r_.attempted += 1;

    check(ev, idx);
    if (!tracer_.enabled()) return true;

    rp_.events += 1;
    rp_.event_s += event_s;
    const double d = static_cast<double>(emu_->messages_delivered() - deliveries);
    const double tx =
        static_cast<double>(counter(*emu_, "flood.transmissions") - transmissions);
    rp_.deliveries += d;
    rp_.transmissions += tx;
    rp_.nsu_bytes +=
        static_cast<double>(counter(*emu_, "flood.nsu_bytes") - bytes);
    rp_.sim_s += emu_->sim_time() - sim_t;
    rp_.epochs += static_cast<double>(emu_->fib_hub()->epoch() - epoch);

    const Replay before = rp_;
    const std::uint32_t rspan = tracer_.open("replay", span, idx);
    for (topo::NodeId v = 0; v < n; ++v) {
      const core::Controller& live = emu_->controller(v);
      const bool replaced = &live != pre_ctrl[v];
      if (!replaced) replay_flooding(v, pre_db[v], rspan, idx);
      const bool recomputed = replaced ? live.recomputes() > 0
                                       : live.recomputes() > pre_recomputes[v];
      if (recomputed) {
        replay_recompute(v, replaced ? live.dataplane() : pre_hw[v], rspan,
                         idx);
      }
    }
    tracer_.close(rspan);
    // Layer self-times of this event. Encodes are timed per accepted NSU
    // (one serialize per re-flood); decodes happen once per transmission
    // and StateDb::apply once per delivery, so those two scale the
    // measured per-call cost by the emulation's own counts.
    const double nsus = rp_.nsus - before.nsus;
    const double acc = rp_.accepted - before.accepted;
    const double mean_decode = nsus > 0 ? (rp_.decode_s - before.decode_s) / nsus : 0;
    const double mean_reject = rp_.rejects > 0 ? rp_.reject_s / rp_.rejects : 0;
    const double wire = (rp_.encode_s - before.encode_s) + mean_decode * tx;
    const double state_db = (rp_.accept_s - before.accept_s) +
                            mean_reject * std::max(d - acc, 0.0);
    rp_.layer_sum_s += wire + state_db + (rp_.recompute_s - before.recompute_s);
    return true;
  }

  void check(const sim::ScenarioEvent& ev, std::uint64_t idx) {
    if (!emu_->views_converged()) {
      r_.fail("views diverged after " + ev.to_string());
      return;
    }
    sim::PacketScoreOptions so;
    so.packets = opt_.smoke ? 128 : 512;
    so.seed = dsdn::util::splitmix64(opt_.seed ^ (idx * 0x9E3779B97F4A7C15ULL));
    const sim::PacketScoreReport score = sim::score_packets(*emu_, so);
    if (score.hard_drops != 0) {
      r_.fail(std::to_string(score.hard_drops) + " hard drops after " +
              ev.to_string() +
              (score.violations.empty() ? "" : ": " + score.violations.front()));
    }
  }

  void subscribe() {
    // A controller that crash recovery replaced comes with a fresh bus.
    for (topo::NodeId v = 0; v < captured_.size(); ++v) {
      core::Controller& c = emu_->mutable_controller(v);
      if (c.bus().num_subscribers(core::topics::kNsuReceived) > 0) continue;
      auto* sink = &captured_[v];
      c.bus().subscribe(core::topics::kNsuReceived, [sink](const std::any& m) {
        if (const auto* nsu = std::any_cast<core::NodeStateUpdate>(&m))
          sink->push_back(*nsu);
      });
    }
  }

  template <typename F>
  auto timed(const char* name, double& sum, std::uint32_t parent,
             std::uint64_t idx, F&& f) {
    const auto t0 = Clock::now();
    auto out = f();
    const auto t1 = Clock::now();
    sum += seconds_between(t0, t1);
    tracer_.record(name, t0, t1, parent, idx);
    return out;
  }

  // Re-runs the wire and StateDb work of every NSU router v accepted
  // during the event, starting from its pre-event database, and checks
  // that the result matches the live database.
  void replay_flooding(topo::NodeId v, core::StateDb db, std::uint32_t parent,
                       std::uint64_t idx) {
    const core::StateDb& live = emu_->controller(v).state();
    for (const core::NodeStateUpdate& nsu : captured_[v]) {
      const auto bytes = timed("wire.encode", rp_.encode_s, parent, idx,
                               [&] { return core::serialize_nsu(nsu); });
      const auto decoded = timed("wire.decode", rp_.decode_s, parent, idx,
                                 [&] { return core::decode_nsu(bytes); });
      rp_.nsus += 1;
      if (!decoded || core::serialize_nsu(*decoded.nsu) != bytes) {
        r_.fail("wire round trip changed an NSU from " +
                std::to_string(nsu.origin));
        return;
      }
      const bool ok = timed("state_db.apply", rp_.accept_s, parent, idx,
                            [&] { return db.apply(*decoded.nsu); });
      rp_.accepted += 1;
      if (!ok) r_.fail("replayed NSU rejected at router " + std::to_string(v));
    }
    if (!captured_[v].empty()) {
      // The same update again is stale: what a redundant flood copy costs.
      const bool again = timed("state_db.reject", rp_.reject_s, parent, idx,
                               [&] { return db.apply(captured_[v].back()); });
      rp_.rejects += 1;
      if (again) r_.fail("stale NSU accepted at router " + std::to_string(v));
    }
    // Own originations and adjacency resyncs reach the database without
    // a received NSU; apply what is still newer in the live database.
    for (const core::NodeStateUpdate* nsu : live.all_latest()) {
      if (db.seq_of(nsu->origin) != nsu->seq) db.apply(*nsu);
    }
    if (db.digest() != live.digest())
      r_.fail("replayed StateDb differs at router " + std::to_string(v));
  }

  void replay_recompute(topo::NodeId v, dsdn::dataplane::RouterDataplane hw,
                        std::uint32_t parent, std::uint64_t idx) {
    core::Controller& live = emu_->mutable_controller(v);
    const core::StateDb& st = live.state();
    const std::uint64_t installed = solution_digest(live.last_solution());
    const std::uint32_t span = tracer_.open("router", parent, idx);
    double demands_s = 0, solve_s = 0, prefixes_s = 0, encap_s = 0,
           bypasses_s = 0, publish_s = 0, recompute_s = 0;

    const auto tm = timed("state_db.demands", demands_s, span, idx,
                          [&] { return st.demands(); });
    dsdn::te::SolveStats stats;
    const auto sol = timed("te.solve", solve_s, span, idx, [&] {
      return dsdn::te::Solver(emu_->config().solver_options)
          .solve(st.view(), tm, &stats);
    });
    if (solution_digest(sol) != installed)
      r_.fail("replayed solve differs at router " + std::to_string(v));

    const core::Programmer prog(v);
    timed("programmer.prefixes", prefixes_s, span, idx, [&] {
      prog.program_prefixes(st, hw);
      return 0;
    });
    std::vector<dsdn::te::Allocation> own;
    for (const auto* a : sol.originating_at(v)) own.push_back(*a);
    const auto encap = timed("programmer.encap", encap_s, span, idx,
                             [&] { return prog.program_encap(own, hw); });
    const auto& cfg = emu_->config();
    timed("programmer.bypasses", bypasses_s, span, idx, [&] {
      return prog.program_bypasses(st.view(),
                                   sol.residual_capacity(st.view()),
                                   cfg.bypass_strategy,
                                   core::ControllerConfig{}.bypass_k, hw);
    });
    if (dataplane_digest(st.view(), hw) !=
        dataplane_digest(st.view(), live.dataplane()))
      r_.fail("replayed programming differs at router " + std::to_string(v));
    timed("snapshot.publish", publish_s, span, idx,
          [&] { return hub_->publish_router(v, hw); });

    timed("controller.recompute", recompute_s, span, idx,
          [&] { return live.recompute(); });
    if (solution_digest(live.last_solution()) != installed)
      r_.fail("recompute is not repeatable at router " + std::to_string(v));
    tracer_.close(span);

    const double parts =
        demands_s + solve_s + prefixes_s + encap_s + bypasses_s + publish_s;
    rp_.routers += 1;
    rp_.demands_s += demands_s;
    rp_.solve_s += solve_s;
    rp_.rounds += static_cast<double>(stats.rounds);
    rp_.searches += static_cast<double>(stats.path_searches);
    rp_.prefixes_s += prefixes_s;
    rp_.encap_s += encap_s;
    rp_.bypasses_s += bypasses_s;
    rp_.routes += static_cast<double>(encap.routes_installed);
    rp_.publish_s += publish_s;
    rp_.recompute_s += recompute_s;
    rp_.unattributed_s += recompute_s - parts;
  }

  void report_layers() {
    const auto per = [](double a, double b) { return b > 0 ? a / b : 0.0; };
    const double ev = rp_.events, routers = rp_.routers;
    r_.layer("flood.deliveries", per(rp_.deliveries, ev));
    r_.layer("flood.nsu_bytes", per(rp_.nsu_bytes, ev));
    r_.layer("flood.sim_ms", 1e3 * per(rp_.sim_s, ev));
    r_.layer("wire.encode_us", 1e6 * per(rp_.encode_s, rp_.nsus));
    r_.layer("wire.decode_us", 1e6 * per(rp_.decode_s, rp_.nsus));
    r_.layer("wire.bytes_per_nsu", per(rp_.nsu_bytes, rp_.transmissions));
    const double reject = per(rp_.reject_s, rp_.rejects);
    r_.layer("state_db.apply_us",
             1e6 * per(rp_.accept_s +
                           reject * std::max(rp_.deliveries - rp_.accepted, 0.0),
                       rp_.deliveries));
    r_.layer("state_db.accept_ratio", per(rp_.accepted, rp_.deliveries));
    r_.layer("state_db.demands_us", 1e6 * per(rp_.demands_s, routers));
    r_.layer("te.router_solve_ms", 1e3 * per(rp_.solve_s, routers));
    r_.layer("te.solves_per_event", per(routers, ev));
    r_.layer("te.rounds", per(rp_.rounds, routers));
    r_.layer("te.path_searches", per(rp_.searches, routers));
    r_.layer("programmer.prefixes_us", 1e6 * per(rp_.prefixes_s, routers));
    r_.layer("programmer.encap_us", 1e6 * per(rp_.encap_s, routers));
    r_.layer("programmer.bypasses_us", 1e6 * per(rp_.bypasses_s, routers));
    r_.layer("programmer.routes_installed", per(rp_.routes, ev));
    r_.layer("controller.recompute_ms", 1e3 * per(rp_.recompute_s, routers));
    r_.layer("controller.unattributed_ms",
             1e3 * per(rp_.unattributed_s, routers));
    r_.layer("event.traced_ms", 1e3 * per(rp_.event_s, ev));
    r_.layer("event.layer_sum_ms", 1e3 * per(rp_.layer_sum_s, ev));
    r_.layer("event.coverage", per(rp_.layer_sum_s, rp_.event_s));
    r_.layer("sim.engine_ms", 1e3 * per(rp_.event_s - rp_.layer_sum_s, ev));
    r_.layer("snapshot.publish_us", 1e6 * per(rp_.publish_s, routers));
    r_.layer("snapshot.epochs", per(rp_.epochs, ev));
  }

  const Options& opt_;
  Tracer& tracer_;
  Result& r_;
  std::unique_ptr<sim::DsdnEmulation> emu_;
  std::vector<sim::ScenarioEvent> schedule_;
  std::vector<double> op_s_;  // wall time of every applied event
  // Traced runs only: the benchmark's own publish target, and the NSUs
  // each router accepted during the current event.
  std::unique_ptr<dsdn::dataplane::SnapshotHub> hub_;
  std::vector<std::vector<core::NodeStateUpdate>> captured_;
  Replay rp_;
};

}  // namespace

Result run_b4_churn(const Options& opt, Tracer& tracer) {
  Result r;
  Fleet fleet(opt, tracer, r);
  for (int i = 0; i < kSetupRepeats; ++i) {
    const auto t0 = Clock::now();
    fleet.set_up();
    r.setup_s.push_back(seconds_since(t0));
  }
  fleet.run();
  return r;
}

}  // namespace perfbench
