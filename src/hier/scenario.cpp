#include "hier/scenario.hpp"

#include <algorithm>
#include <cstdio>

#include "sim/convergence.hpp"
#include "topo/builder.hpp"
#include "util/rng.hpp"

namespace dsdn::hier {
namespace {

const char* kEventNames[] = {"plane_local_cut", "plane_local_repair",
                             "cross_plane_srlg", "plane_crash",
                             "plane_restore"};

// True iff every node stays reachable from node 0 over up links after
// also excluding `fiber` and its reverse -- the same connectivity guard
// pick_failure_fibers applies, re-checked against the plane's *current*
// up set (earlier events may already have removed fibers).
bool cut_keeps_connected(const topo::Topology& topo, topo::LinkId fiber) {
  if (topo.num_nodes() == 0) return true;
  const topo::LinkId cut[] = {fiber, topo.link(fiber).reverse};
  const std::vector<char> seen =
      topo::reachable_over_up_links(topo, 0, topo::Reach::kForward, cut);
  return std::ranges::find(seen, 0) == seen.end();
}

struct Harness {
  const PlaneScenarioOptions& options;
  PlaneRuntime& runtime;
  PlaneScenarioResult& result;
  std::size_t base_flows;
  double base_rate;

  void fail(std::string msg) { result.violations.push_back(std::move(msg)); }

  // The full post-event battery: per-plane invariants plus the
  // cross-plane properties.
  void check(const char* context) {
    char buf[160];
    for (std::size_t p = 0; p < runtime.num_planes(); ++p) {
      if (!runtime.plane_alive(p)) continue;
      const sim::DsdnEmulation& emu = runtime.plane(p);
      if (!emu.views_converged()) {
        std::snprintf(buf, sizeof(buf), "[%s] plane %zu views diverged",
                      context, p);
        fail(buf);
      }
      auto report = sim::check_invariants(emu, options.invariants);
      result.invariant_checks += report.checks_run;
      for (const std::string& v : report.violations) {
        std::snprintf(buf, sizeof(buf), "[%s] plane %zu: ", context, p);
        fail(buf + v);
      }
      if (options.packet_scoring && options.fib_cores > 0 &&
          !runtime.plane_demands(p).empty()) {
        sim::PacketScoreOptions score_options;
        score_options.packets = options.score_packets;
        score_options.seed = 0x5C0BEULL ^ p;
        auto score = sim::score_packets(emu, score_options);
        result.packets_scored += score.packets;
        if (score.hard_drops != 0) {
          std::snprintf(buf, sizeof(buf),
                        "[%s] plane %zu: %zu packet hard drops", context, p,
                        score.hard_drops);
          fail(buf);
        }
      }
    }
    // Cross-plane demand conservation: rebalancing must neither lose nor
    // duplicate flows.
    if (runtime.total_flows() != base_flows) {
      std::snprintf(buf, sizeof(buf),
                    "[%s] flow conservation: %zu across planes, want %zu",
                    context, runtime.total_flows(), base_flows);
      fail(buf);
    }
    if (std::abs(runtime.total_rate_gbps() - base_rate) > 1e-6) {
      std::snprintf(buf, sizeof(buf),
                    "[%s] rate conservation: %.6f across planes, want %.6f",
                    context, runtime.total_rate_gbps(), base_rate);
      fail(buf);
    }
    // Placement agreement: every demand row sits where HRW (and thus
    // every packet of the flow) says it belongs.
    for (std::size_t p = 0; p < runtime.num_planes(); ++p) {
      if (!runtime.plane_alive(p)) continue;
      for (const traffic::Demand& d : runtime.plane_demands(p)) {
        if (runtime.plane_of(d.src, d.dst, d.priority) != p) {
          std::snprintf(buf, sizeof(buf),
                        "[%s] demand %u->%u on plane %zu disagrees with HRW",
                        context, d.src, d.dst, p);
          fail(buf);
          break;
        }
      }
    }
  }

  void record_rebalance(const RebalanceReport& report, std::size_t alive_before,
                        const char* context) {
    ++result.rebalances;
    result.packets_scored += report.scored_packets;
    result.max_exposed_fraction =
        std::max(result.max_exposed_fraction, report.exposed_fraction);
    char buf[160];
    if (report.score_hard_drops != 0) {
      std::snprintf(buf, sizeof(buf), "[%s] %zu hard drops after rebalance",
                    context, report.score_hard_drops);
      fail(buf);
    }
    double bound =
        1.0 / static_cast<double>(alive_before) +
        PlaneScenarioOptions::exposure_slack;
    if (report.exposed_fraction >= bound) {
      std::snprintf(buf, sizeof(buf),
                    "[%s] exposed %.4f of flows >= bound %.4f", context,
                    report.exposed_fraction, bound);
      fail(buf);
    }
  }
};

}  // namespace

const char* plane_event_name(PlaneEventKind kind) {
  return kEventNames[static_cast<std::size_t>(kind)];
}

std::uint64_t PlaneScenarioResult::fingerprint() const {
  std::uint64_t h = 0x9e3779b97f4a7c15ULL;
  auto mix = [&h](std::uint64_t v) {
    h = util::splitmix64(h ^ v);
  };
  for (const std::string& e : events) {
    for (char c : e) mix(static_cast<std::uint64_t>(c));
  }
  mix(violations.size());
  mix(events_applied);
  mix(events_skipped);
  mix(invariant_checks);
  mix(packets_scored);
  mix(rebalances);
  mix(static_cast<std::uint64_t>(max_exposed_fraction * 1e9));
  return h;
}

PlaneScenarioResult run_plane_scenario(const topo::Topology& base,
                                       const traffic::TrafficMatrix& tm,
                                       const PlaneScenarioOptions& options,
                                       std::uint64_t seed) {
  PlaneScenarioResult result;
  PlaneRuntimeConfig config;
  config.planes = options.planes;
  config.fib_cores = options.fib_cores;
  config.score_packets = options.score_packets;
  PlaneRuntime runtime(base, tm, config);
  runtime.bootstrap();

  Harness harness{options, runtime, result, runtime.total_flows(),
                  runtime.total_rate_gbps()};
  harness.check("bootstrap");
  if (!result.ok()) return result;

  // Candidate conduits: duplex representatives whose base-topology removal
  // keeps the graph connected (re-guarded per plane at apply time).
  util::Rng rng(seed);
  std::vector<topo::LinkId> conduits =
      sim::pick_failure_fibers(base, 8, util::splitmix64(seed));
  if (conduits.empty()) return result;

  // (plane, fiber) pairs currently down, repair candidates.
  std::vector<std::pair<std::size_t, topo::LinkId>> down;
  char buf[96];

  for (std::size_t ev = 0; ev < options.n_events; ++ev) {
    std::size_t alive = runtime.num_alive();
    std::size_t dead = runtime.num_planes() - alive;
    double weights[5] = {
        PlaneScenarioOptions::w_cut,
        down.empty() ? 0.0 : PlaneScenarioOptions::w_repair,
        PlaneScenarioOptions::w_srlg,
        alive >= 2 ? PlaneScenarioOptions::w_crash : 0.0,
        dead > 0 ? PlaneScenarioOptions::w_restore : 0.0,
    };
    auto kind = static_cast<PlaneEventKind>(
        rng.weighted_pick(std::span<const double>(weights, 5)));
    const char* name = plane_event_name(kind);

    switch (kind) {
      case PlaneEventKind::kPlaneLocalCut: {
        // A live plane and a conduit whose plane-local fiber is up and
        // safe to cut.
        std::size_t p = static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<std::int64_t>(
                                   runtime.num_planes() - 1)));
        topo::LinkId fiber =
            conduits[static_cast<std::size_t>(rng.uniform_int(
                0, static_cast<std::int64_t>(conduits.size() - 1)))];
        if (!runtime.plane_alive(p) ||
            !runtime.plane(p).network().link(fiber).up ||
            !cut_keeps_connected(runtime.plane(p).network(), fiber)) {
          ++result.events_skipped;
          continue;
        }
        runtime.fail_fiber_in_plane(p, fiber);
        down.push_back({p, fiber});
        std::snprintf(buf, sizeof(buf), "%s plane=%zu fiber=%u", name, p,
                      fiber);
        break;
      }
      case PlaneEventKind::kPlaneLocalRepair: {
        std::size_t i = static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<std::int64_t>(down.size() - 1)));
        auto [p, fiber] = down[i];
        down.erase(down.begin() + static_cast<std::ptrdiff_t>(i));
        if (!runtime.plane_alive(p)) {
          ++result.events_skipped;
          continue;
        }
        runtime.repair_fiber_in_plane(p, fiber);
        std::snprintf(buf, sizeof(buf), "%s plane=%zu fiber=%u", name, p,
                      fiber);
        break;
      }
      case PlaneEventKind::kCrossPlaneSrlg: {
        topo::LinkId fiber =
            conduits[static_cast<std::size_t>(rng.uniform_int(
                0, static_cast<std::int64_t>(conduits.size() - 1)))];
        bool applicable = true;
        for (std::size_t p = 0; p < runtime.num_planes(); ++p) {
          if (!runtime.plane_alive(p)) continue;
          if (!runtime.plane(p).network().link(fiber).up ||
              !cut_keeps_connected(runtime.plane(p).network(), fiber)) {
            applicable = false;
            break;
          }
        }
        if (!applicable) {
          ++result.events_skipped;
          continue;
        }
        runtime.fail_conduit(fiber);
        for (std::size_t p = 0; p < runtime.num_planes(); ++p) {
          if (runtime.plane_alive(p)) down.push_back({p, fiber});
        }
        std::snprintf(buf, sizeof(buf), "%s fiber=%u", name, fiber);
        break;
      }
      case PlaneEventKind::kPlaneCrash: {
        std::size_t p = static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<std::int64_t>(
                                   runtime.num_planes() - 1)));
        if (!runtime.plane_alive(p) || runtime.num_alive() < 2) {
          ++result.events_skipped;
          continue;
        }
        std::size_t alive_before = runtime.num_alive();
        auto report = runtime.fail_plane(p);
        std::snprintf(buf, sizeof(buf), "%s plane=%zu moved=%zu", name, p,
                      report.moved_flows);
        result.events.emplace_back(buf);
        ++result.events_applied;
        harness.record_rebalance(report, alive_before, name);
        harness.check(name);
        if (!result.ok()) return result;
        continue;
      }
      case PlaneEventKind::kPlaneRestore: {
        std::size_t p = runtime.num_planes();
        for (std::size_t q = 0; q < runtime.num_planes(); ++q) {
          if (!runtime.plane_alive(q)) {
            p = q;
            break;
          }
        }
        if (p == runtime.num_planes()) {
          ++result.events_skipped;
          continue;
        }
        auto report = runtime.restore_plane(p);
        std::snprintf(buf, sizeof(buf), "%s plane=%zu moved=%zu", name, p,
                      report.moved_flows);
        result.events.emplace_back(buf);
        ++result.events_applied;
        result.packets_scored += report.scored_packets;
        ++result.rebalances;
        if (report.score_hard_drops != 0) {
          harness.fail("hard drops after plane restore");
        }
        harness.check(name);
        if (!result.ok()) return result;
        continue;
      }
    }
    result.events.emplace_back(buf);
    ++result.events_applied;
    harness.check(name);
    if (!result.ok()) return result;
  }
  return result;
}

std::optional<PlaneSwarmFailure> run_plane_swarm(
    const topo::Topology& base, const traffic::TrafficMatrix& tm,
    const PlaneScenarioOptions& options, std::uint64_t first_seed,
    std::size_t n_seeds) {
  for (std::size_t i = 0; i < n_seeds; ++i) {
    std::uint64_t seed = first_seed + i;
    auto result = run_plane_scenario(base, tm, options, seed);
    if (!result.ok()) return PlaneSwarmFailure{seed, std::move(result)};
  }
  return std::nullopt;
}

}  // namespace dsdn::hier
