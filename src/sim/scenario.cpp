#include "sim/scenario.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <stdexcept>

#include "sim/packet_score.hpp"
#include "topo/builder.hpp"
#include "util/format.hpp"
#include "util/rng.hpp"

namespace dsdn::sim {
namespace {

std::uint64_t mix(std::uint64_t h, std::uint64_t v) {
  return util::splitmix64(h ^ (v + 0x9e3779b97f4a7c15ULL));
}

std::uint64_t mix_string(std::uint64_t h, const std::string& s) {
  for (unsigned char c : s) h = mix(h, c);
  return mix(h, s.size());
}

std::string join_fibers(const std::vector<topo::LinkId>& fibers) {
  std::string out = "{";
  for (std::size_t i = 0; i < fibers.size(); ++i) {
    if (i) out += ",";
    out += std::to_string(fibers[i]);
  }
  return out + "}";
}

// One LinkId per physical fiber: the lower-id direction of each duplex
// pair (events operate on whole fibers via set_duplex_up).
std::vector<topo::LinkId> fiber_reps(const topo::Topology& topo) {
  std::vector<topo::LinkId> reps;
  for (std::size_t l = 0; l < topo.num_links(); ++l) {
    const auto lid = static_cast<topo::LinkId>(l);
    const topo::Link& link = topo.link(lid);
    if (link.reverse == topo::kInvalidLink || lid < link.reverse)
      reps.push_back(lid);
  }
  return reps;
}

std::vector<topo::LinkId> reps_in_state(const topo::Topology& topo,
                                        const std::vector<topo::LinkId>& reps,
                                        bool up) {
  std::vector<topo::LinkId> out;
  for (topo::LinkId lid : reps) {
    if (topo.link(lid).up == up) out.push_back(lid);
  }
  return out;
}

// Cuts `lid` on the scratch topology iff the network stays strongly
// connected without it; reports whether the cut was taken.
bool try_cut(topo::Topology& scratch, topo::LinkId lid) {
  scratch.set_duplex_up(lid, false);
  if (topo::is_strongly_connected(scratch)) return true;
  scratch.set_duplex_up(lid, true);
  return false;
}

static_assert(ScenarioOptions::surge_span > 1.0);

// Log-uniform in [1/surge_span, surge_span].
double surge_factor(util::Rng& rng) {
  const double span = ScenarioOptions::surge_span;
  return std::exp(rng.uniform(-std::log(span), std::log(span)));
}

}  // namespace

std::string ScenarioEvent::to_string() const {
  switch (kind) {
    case ScenarioEventKind::kFiberCut:
      return "fiber-cut " + join_fibers(fibers);
    case ScenarioEventKind::kFiberRepair:
      return "fiber-repair " + join_fibers(fibers);
    case ScenarioEventKind::kFiberFlap:
      return "fiber-flap " + join_fibers(fibers);
    case ScenarioEventKind::kSrlgCut:
      return "srlg-cut " + join_fibers(fibers);
    case ScenarioEventKind::kNodeCrashRecover:
      return "crash+recover node " + std::to_string(node);
    case ScenarioEventKind::kNodeColdRestart:
      return "cold-restart node " + std::to_string(node);
    case ScenarioEventKind::kDemandSurge:
      return "demand-surge node " + std::to_string(node) + " x" +
             util::format_double(factor, 2);
    case ScenarioEventKind::kToggleIncrementalTe:
      return std::string("incremental-te ") + (enable ? "on" : "off");
  }
  return "unknown-event";
}

std::uint64_t ScenarioResult::fingerprint() const {
  std::uint64_t h = 0x5CE9A210C0FFEEULL;
  h = mix(h, final_digest);
  h = mix(h, messages);
  h = mix(h, events_applied);
  h = mix(h, events_skipped);
  h = mix(h, invariant_checks);
  h = mix(h, packets_scored);
  h = mix(h, std::bit_cast<std::uint64_t>(max_loss));
  h = mix(h, std::bit_cast<std::uint64_t>(sim_time_s));
  h = mix(h, static_cast<std::uint64_t>(
                 static_cast<std::int64_t>(first_violation_event)));
  for (const std::string& v : violations) h = mix_string(h, v);
  return h;
}

Scenario::Scenario(topo::Topology topo, traffic::TrafficMatrix tm,
                   ScenarioOptions options, std::uint64_t seed)
    : topo_(std::move(topo)),
      tm_(std::move(tm)),
      options_(std::move(options)),
      seed_(seed) {
  if (!topo::is_strongly_connected(topo_)) {
    throw std::invalid_argument(
        "Scenario: topology must start strongly connected");
  }
  generate_schedule();
}

void Scenario::generate_schedule() {
  // Decorrelated from the FaultyBus stream (which hashes the same seed
  // with a different salt in run_masked).
  util::Rng rng(util::splitmix64(seed_ ^ 0x5C4ED01EULL));

  // Scratch liveness model: the generator tracks which fibers its own
  // events have taken down so later picks stay plausible. Runtime guards
  // in apply_event() re-check against the real emulation (a masked
  // replay can diverge from this model), so this is best-effort only.
  topo::Topology scratch = topo_;
  const std::vector<topo::LinkId> reps = fiber_reps(topo_);

  // Surge targets: origins that actually have demand rows.
  std::vector<topo::NodeId> surge_origins;
  {
    std::vector<char> has(topo_.num_nodes(), 0);
    for (const traffic::Demand& d : tm_.demands()) {
      if (d.rate_gbps > 0) has[d.src] = 1;
    }
    for (topo::NodeId n = 0; n < topo_.num_nodes(); ++n) {
      if (has[n]) surge_origins.push_back(n);
    }
  }

  bool incremental_on = options_.incremental_te;
  constexpr std::size_t kPickAttempts = 8;

  using K = ScenarioEventKind;
  const K kinds[] = {K::kFiberCut,          K::kFiberRepair,
                     K::kFiberFlap,         K::kSrlgCut,
                     K::kNodeCrashRecover,  K::kNodeColdRestart,
                     K::kDemandSurge,       K::kToggleIncrementalTe};

  schedule_.clear();
  schedule_.reserve(options_.n_events);
  while (schedule_.size() < options_.n_events) {
    const std::vector<topo::LinkId> up = reps_in_state(scratch, reps, true);
    const std::vector<topo::LinkId> down = reps_in_state(scratch, reps, false);

    double weights[] = {up.empty() ? 0.0 : ScenarioOptions::w_cut,
                        down.empty() ? 0.0 : options_.w_repair,
                        up.empty() ? 0.0 : options_.w_flap,
                        up.empty() ? 0.0 : options_.w_srlg,
                        topo_.num_nodes() < 2 ? 0.0 : options_.w_crash,
                        topo_.num_nodes() < 2 ? 0.0 : options_.w_cold_restart,
                        surge_origins.empty() ? 0.0 : options_.w_surge,
                        options_.w_toggle};
    double total = 0.0;
    for (double w : weights) total += w;
    if (total <= 0.0) break;  // nothing left to schedule

    ScenarioEvent ev;
    ev.kind = kinds[rng.weighted_pick(weights)];
    bool generated = false;
    switch (ev.kind) {
      case K::kFiberCut: {
        for (std::size_t a = 0; a < kPickAttempts && !generated; ++a) {
          const topo::LinkId lid = rng.pick(up);
          if (scratch.link(lid).up && try_cut(scratch, lid)) {
            ev.fibers = {lid};
            generated = true;
          }
        }
        break;
      }
      case K::kSrlgCut: {
        std::vector<topo::LinkId> members;
        for (std::size_t a = 0;
             a < kPickAttempts * ScenarioOptions::srlg_size &&
             members.size() < ScenarioOptions::srlg_size;
             ++a) {
          const topo::LinkId lid = rng.pick(up);
          if (scratch.link(lid).up && try_cut(scratch, lid))
            members.push_back(lid);
        }
        if (!members.empty()) {
          std::sort(members.begin(), members.end());
          ev.fibers = std::move(members);
          generated = true;
        }
        break;
      }
      case K::kFiberRepair: {
        const topo::LinkId lid = rng.pick(down);
        scratch.set_duplex_up(lid, true);
        ev.fibers = {lid};
        generated = true;
        break;
      }
      case K::kFiberFlap: {
        ev.fibers = {rng.pick(up)};  // down + up: no net scratch change
        generated = true;
        break;
      }
      case K::kNodeCrashRecover:
      case K::kNodeColdRestart: {
        for (std::size_t a = 0; a < kPickAttempts && !generated; ++a) {
          const auto n = static_cast<topo::NodeId>(rng.uniform_int(
              0, static_cast<std::int64_t>(topo_.num_nodes()) - 1));
          if (!scratch.up_neighbors(n).empty()) {
            ev.node = n;
            generated = true;
          }
        }
        break;
      }
      case K::kDemandSurge: {
        ev.node = rng.pick(surge_origins);
        ev.factor = surge_factor(rng);
        generated = true;
        break;
      }
      case K::kToggleIncrementalTe: {
        incremental_on = !incremental_on;
        ev.enable = incremental_on;
        generated = true;
        break;
      }
    }
    if (!generated) {
      // Candidate hunt came up dry (e.g. every remaining fiber is a
      // bridge): fall back to an always-applicable event so the schedule
      // keeps its length.
      if (!surge_origins.empty()) {
        ev = ScenarioEvent{};
        ev.kind = K::kDemandSurge;
        ev.node = rng.pick(surge_origins);
        ev.factor = surge_factor(rng);
      } else {
        ev = ScenarioEvent{};
        ev.kind = K::kToggleIncrementalTe;
        incremental_on = !incremental_on;
        ev.enable = incremental_on;
      }
    }
    schedule_.push_back(std::move(ev));
  }
}

bool apply_scenario_event(DsdnEmulation& emu, const ScenarioEvent& ev) {
  const topo::Topology& net = emu.network();
  bool applied = false;
  switch (ev.kind) {
    case ScenarioEventKind::kFiberCut: {
      const topo::LinkId lid = ev.fibers.front();
      if (net.link(lid).up) {
        topo::Topology scratch = net;
        if (try_cut(scratch, lid)) {
          emu.fail_fiber(lid);
          applied = true;
        }
      }
      break;
    }
    case ScenarioEventKind::kSrlgCut: {
      // Re-filter the member list against the live network: masked
      // replays may have left some members already down or turned them
      // into bridges.
      topo::Topology scratch = net;
      std::vector<topo::LinkId> members;
      for (topo::LinkId lid : ev.fibers) {
        if (scratch.link(lid).up && try_cut(scratch, lid))
          members.push_back(lid);
      }
      if (!members.empty()) {
        emu.fail_fibers(members);
        applied = true;
      }
      break;
    }
    case ScenarioEventKind::kFiberRepair: {
      const topo::LinkId lid = ev.fibers.front();
      if (!net.link(lid).up) {
        emu.repair_fiber(lid);
        applied = true;
      }
      break;
    }
    case ScenarioEventKind::kFiberFlap: {
      const topo::LinkId lid = ev.fibers.front();
      if (net.link(lid).up) {
        emu.flap_fiber(lid);
        applied = true;
      }
      break;
    }
    case ScenarioEventKind::kNodeCrashRecover:
    case ScenarioEventKind::kNodeColdRestart: {
      if (ev.node < net.num_nodes() && !net.up_neighbors(ev.node).empty()) {
        if (ev.kind == ScenarioEventKind::kNodeCrashRecover) {
          emu.crash_and_recover(ev.node);
        } else {
          emu.crash_and_cold_restart(ev.node);
        }
        applied = true;
      }
      break;
    }
    case ScenarioEventKind::kDemandSurge: {
      emu.scale_demands(ev.factor, ev.node);
      applied = true;
      break;
    }
    case ScenarioEventKind::kToggleIncrementalTe: {
      emu.set_incremental_te(ev.enable);
      applied = true;
      break;
    }
  }
  return applied;
}

bool Scenario::apply_event(DsdnEmulation& emu, const ScenarioEvent& ev) const {
  const topo::Topology& net = emu.network();
  const bool fiber_down_event = ev.kind == ScenarioEventKind::kFiberCut ||
                                ev.kind == ScenarioEventKind::kSrlgCut;
  // kSkipReprogramOnCut: capture the victim's encap FIB before a
  // fiber-down event and silently restore it afterwards -- the router
  // "forgot" to reprogram, leaving stale routes over the dead fiber.
  std::optional<dataplane::IngressFib> pre_bug_fib;
  if (options_.bug == ScenarioBug::kSkipReprogramOnCut && fiber_down_event &&
      options_.bug_node < net.num_nodes()) {
    pre_bug_fib = emu.at(options_.bug_node).ingress;
  }

  const bool applied = apply_scenario_event(emu, ev);

  if (applied && pre_bug_fib) {
    emu.mutable_controller(options_.bug_node).mutable_dataplane().ingress =
        std::move(*pre_bug_fib);
  }
  return applied;
}

ScenarioResult Scenario::run() const {
  return run_masked(std::vector<char>(schedule_.size(), 1));
}

ScenarioResult Scenario::run_masked(const std::vector<char>& keep) const {
  if (keep.size() != schedule_.size()) {
    throw std::invalid_argument("run_masked: mask/schedule length mismatch");
  }
  EmulationConfig cfg;
  cfg.solver_options = options_.solver;
  cfg.incremental_te = options_.incremental_te;
  cfg.algorithms = options_.algorithms;
  DsdnEmulation emu(topo_, tm_, cfg);
  if (options_.lossy_flooding) {
    emu.enable_fault_injection(options_.fault_profile,
                               util::splitmix64(seed_ ^ 0xFA017B05ULL));
  }
  if (options_.packet_scoring) emu.enable_fib_snapshots(1);

  ScenarioResult r;
  emu.bootstrap();
  const auto check = [&](int idx, const std::string& what) {
    const InvariantReport rep = check_invariants(emu, options_.invariants);
    r.invariant_checks += rep.checks_run;
    r.max_loss = std::max(r.max_loss, rep.max_demand_loss);
    if (!rep.ok()) {
      r.first_violation_event = idx;
      for (const std::string& v : rep.violations) {
        r.violations.push_back(what + v);
      }
      return false;
    }
    if (options_.packet_scoring) {
      PacketScoreOptions po;
      po.packets = options_.packets_per_check;
      // Deterministic per check point, decorrelated across events.
      po.seed = util::splitmix64(
          seed_ ^ (static_cast<std::uint64_t>(idx + 2) * 0xD0A7A5C0DEULL));
      const PacketScoreReport score = score_packets(emu, po);
      r.packets_scored += score.packets;
      if (!score.ok()) {
        r.first_violation_event = idx;
        for (const std::string& v : score.violations) {
          r.violations.push_back(what + "packet-score: " + v);
        }
        return false;
      }
    }
    return true;
  };

  if (check(-1, "bootstrap: ")) {
    for (std::size_t i = 0; i < schedule_.size(); ++i) {
      if (!keep[i]) continue;
      if (!apply_event(emu, schedule_[i])) {
        ++r.events_skipped;
        continue;
      }
      ++r.events_applied;
      if (!check(static_cast<int>(i),
                 "after event #" + std::to_string(i) + " (" +
                     schedule_[i].to_string() + "): ")) {
        break;
      }
    }
  }

  r.final_digest = emu.controller(0).state().digest();
  r.messages = emu.messages_delivered();
  r.sim_time_s = emu.sim_time();
  return r;
}

std::vector<char> Scenario::shrink() const {
  const ScenarioResult full = run();
  if (full.ok()) return {};

  std::vector<char> keep(schedule_.size(), 1);
  const auto truncate_past = [&](int first_violation) {
    if (first_violation < 0) {
      std::fill(keep.begin(), keep.end(), 0);  // bootstrap alone fails
      return;
    }
    for (std::size_t i = static_cast<std::size_t>(first_violation) + 1;
         i < keep.size(); ++i) {
      keep[i] = 0;
    }
  };
  truncate_past(full.first_violation_event);

  const auto kept_indices = [&] {
    std::vector<std::size_t> out;
    for (std::size_t i = 0; i < keep.size(); ++i) {
      if (keep[i]) out.push_back(i);
    }
    return out;
  };

  // Greedy event bisection: try dropping chunks of kept events, halving
  // the chunk size until single events; every successful drop re-runs
  // the truncation (the failure may now fire earlier). Each success
  // strictly shrinks the kept set, so this terminates.
  std::size_t chunk = std::max<std::size_t>(kept_indices().size() / 2, 1);
  while (true) {
    bool removed = false;
    std::vector<std::size_t> kept = kept_indices();
    std::size_t start = 0;
    while (start < kept.size()) {
      std::vector<char> trial = keep;
      const std::size_t end = std::min(start + chunk, kept.size());
      for (std::size_t j = start; j < end; ++j) trial[kept[j]] = 0;
      const ScenarioResult res = run_masked(trial);
      if (!res.ok()) {
        keep = std::move(trial);
        truncate_past(res.first_violation_event);
        kept = kept_indices();
        removed = true;
        // Do not advance: position `start` now holds different events.
      } else {
        start += chunk;
      }
    }
    if (!removed && chunk == 1) break;
    chunk = std::max<std::size_t>(1, chunk / 2);
  }
  return keep;
}

std::string Scenario::describe(const std::vector<char>& keep) const {
  std::string out;
  for (std::size_t i = 0; i < schedule_.size() && i < keep.size(); ++i) {
    if (!keep[i]) continue;
    out += "  [" + std::to_string(i) + "] " + schedule_[i].to_string() + "\n";
  }
  if (out.empty()) out = "  (no events: the bootstrap state violates)\n";
  return out;
}

obs::RunArtifact Scenario::artifact(const ScenarioResult& result,
                                    const std::string& name) const {
  obs::RunArtifact a(name);
  a.param("seed", static_cast<std::uint64_t>(seed_));
  a.param("nodes", static_cast<std::uint64_t>(topo_.num_nodes()));
  a.param("links", static_cast<std::uint64_t>(topo_.num_links()));
  a.param("demands", static_cast<std::uint64_t>(tm_.size()));
  a.param("events", static_cast<std::uint64_t>(schedule_.size()));
  a.param("lossy_flooding", options_.lossy_flooding);
  a.param("incremental_te", options_.incremental_te);
  a.metric("events_applied", static_cast<double>(result.events_applied));
  a.metric("violations", static_cast<double>(result.violations.size()));
  a.metric("packets_scored", static_cast<double>(result.packets_scored));
  a.metric("max_loss_window", result.max_loss);
  a.metric("sim_time_s", result.sim_time_s);

  obs::Registry reg;
  reg.counter("scenario.events_applied").add(result.events_applied);
  reg.counter("scenario.events_skipped").add(result.events_skipped);
  reg.counter("scenario.invariant_checks").add(result.invariant_checks);
  reg.counter("scenario.violations").add(result.violations.size());
  reg.gauge("scenario.max_loss_window").set(result.max_loss);
  reg.gauge("scenario.messages").set(static_cast<double>(result.messages));
  a.attach_registry(reg.snapshot());
  return a;
}

std::optional<SwarmFailure> run_seed_swarm(const topo::Topology& topo,
                                           const traffic::TrafficMatrix& tm,
                                           const ScenarioOptions& options,
                                           std::uint64_t first_seed,
                                           std::size_t n_seeds) {
  for (std::uint64_t s = first_seed; s < first_seed + n_seeds; ++s) {
    const Scenario scenario(topo, tm, options, s);
    ScenarioResult res = scenario.run();
    if (res.ok()) continue;

    SwarmFailure f;
    f.seed = s;
    f.minimal_mask = scenario.shrink();
    const std::size_t kept = static_cast<std::size_t>(
        std::count(f.minimal_mask.begin(), f.minimal_mask.end(), 1));
    f.reproducer = "seed " + std::to_string(s) +
                   " fails; minimal reproducer (" + std::to_string(kept) +
                   " of " + std::to_string(scenario.schedule().size()) +
                   " events):\n" + scenario.describe(f.minimal_mask);
    for (const std::string& v :
         scenario.run_masked(f.minimal_mask).violations) {
      f.reproducer += "  ! " + v + "\n";
    }
    f.result = std::move(res);
    return f;
  }
  return std::nullopt;
}

}  // namespace dsdn::sim
