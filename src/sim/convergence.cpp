#include "sim/convergence.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>

#include "obs/trace.hpp"
#include "sim/faulty_bus.hpp"
#include "te/dijkstra.hpp"
#include "topo/builder.hpp"

namespace dsdn::sim {

namespace {

// Extra hop latency from a sampled run of lost transfers: exponential
// backoff with jitter per retry; +inf when the transfer exhausts its
// retransmit budget (the flooder gives up on this hop).
double sample_retx_delay(double loss_prob, util::Rng& rng) {
  if (loss_prob <= 0) return 0.0;
  double delay = 0.0;
  for (int attempt = 0;; ++attempt) {
    if (!rng.bernoulli(loss_prob)) return delay;
    if (attempt >= flood_retransmit::kMaxRetransmits)
      return std::numeric_limits<double>::infinity();
    delay += flood_retransmit::backoff(
        attempt, rng.uniform(0.0, flood_retransmit::kJitter));
  }
}

// Retry policy for local route installs in the Tprog model: a NOS RPC
// can time out or transiently fail, so a failed attempt is retried with
// exponential backoff plus jitter, at most kProgMaxAttempts times.
constexpr int kProgMaxAttempts = 4;
constexpr double kProgAttemptTimeoutS = 0.200;  // charged per failed attempt
constexpr double kProgBackoffBaseS = 0.050;
constexpr double kProgBackoffMultiplier = 2.0;
constexpr double kProgBackoffJitter = 0.2;  // fraction added uniformly

// Tprog under transient programming failures: failed attempts pay
// timeout + backoff before the (bounded) final success sample.
double sample_tprog_with_retries(double prog_fail_prob, util::Rng& rng) {
  double t = 0.0;
  if (prog_fail_prob > 0) {
    for (int attempt = 0; attempt + 1 < kProgMaxAttempts; ++attempt) {
      if (!rng.bernoulli(prog_fail_prob)) break;
      t += kProgAttemptTimeoutS;
      t += kProgBackoffBaseS * std::pow(kProgBackoffMultiplier, attempt) *
           (1.0 + rng.uniform(0.0, kProgBackoffJitter));
    }
  }
  return t + metrics::sample_dsdn_tprog(rng);
}

}  // namespace

std::vector<double> nsu_arrival_times(const topo::Topology& topo,
                                      topo::NodeId origin, util::Rng& rng,
                                      double flood_loss_prob) {
  // Sample one processing delay per link for this event, then run
  // earliest-arrival Dijkstra over delay + processing (+ any sampled
  // retransmission backoff under flood loss).
  std::vector<double> hop_cost(topo.num_links(),
                               std::numeric_limits<double>::infinity());
  for (const topo::Link& l : topo.links()) {
    if (!l.up) continue;
    hop_cost[l.id] = l.delay_s + metrics::sample_dsdn_hop_process(rng) +
                     sample_retx_delay(flood_loss_prob, rng);
  }
  return te::shortest_distances(topo, origin, hop_cost);
}

std::vector<topo::LinkId> pick_failure_fibers(const topo::Topology& topo,
                                              std::size_t count,
                                              std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<topo::LinkId> fibers;
  for (const topo::Link& l : topo.links()) {
    if (l.reverse != topo::kInvalidLink && l.id < l.reverse)
      fibers.push_back(l.id);
  }
  rng.shuffle(fibers);

  // Keep only fibers whose loss preserves connectivity.
  topo::Topology scratch = topo;
  std::vector<topo::LinkId> out;
  for (topo::LinkId f : fibers) {
    if (out.size() >= count) break;
    scratch.set_duplex_up(f, false);
    if (topo::is_strongly_connected(scratch)) out.push_back(f);
    scratch.set_duplex_up(f, true);
  }
  // Cycle if the caller wants more events than distinct safe fibers.
  const std::size_t distinct = out.size();
  while (distinct > 0 && out.size() < count)
    out.push_back(out[out.size() % distinct]);
  return out;
}

ComponentDistributions measure_dsdn_convergence(
    const topo::Topology& topo, const DsdnConvergenceConfig& config) {
  DSDN_TRACE_SPAN("sim.dsdn_convergence");
  util::Rng rng(config.seed);
  ComponentDistributions out;
  const auto fibers = pick_failure_fibers(topo, config.n_events,
                                          util::splitmix64(config.seed));
  topo::Topology scratch = topo;
  for (topo::LinkId fiber : fibers) {
    scratch.set_duplex_up(fiber, false);
    // Both fiber endpoints originate NSUs; each router converges at its
    // earliest arrival from either.
    const topo::NodeId a = scratch.link(fiber).src;
    const topo::NodeId b = scratch.link(fiber).dst;
    const auto from_a =
        nsu_arrival_times(scratch, a, rng, config.flood_loss_prob);
    const auto from_b =
        nsu_arrival_times(scratch, b, rng, config.flood_loss_prob);

    double event_total = 0.0;
    for (topo::NodeId i = 0; i < scratch.num_nodes(); ++i) {
      const double tprop = std::min(from_a[i], from_b[i]);
      if (!std::isfinite(tprop)) continue;  // disconnected (shouldn't happen)
      const double tcomp =
          config.measured_tcomp.empty()
              ? metrics::sample_dsdn_tcomp(rng)
              : config.measured_tcomp.sample(rng);
      const double tprog =
          sample_tprog_with_retries(config.prog_fail_prob, rng);
      out.tprop.add(tprop);
      out.tcomp.add(tcomp);
      out.tprog.add(tprog);
      event_total = std::max(event_total, tprop + tcomp + tprog);
    }
    out.total.add(event_total);
    scratch.set_duplex_up(fiber, true);
  }
  return out;
}

IncrementalTcompResult measure_incremental_tcomp(
    const topo::Topology& topo, const traffic::TrafficMatrix& tm,
    const IncrementalTcompConfig& config) {
  DSDN_TRACE_SPAN("sim.incremental_tcomp");
  using Clock = std::chrono::steady_clock;
  const auto elapsed = [](Clock::time_point start) {
    return std::chrono::duration<double>(Clock::now() - start).count();
  };

  IncrementalTcompResult out;
  te::IncrementalSolver warm;
  te::Solver scratch;

  topo::Topology view = topo;
  // Converged pre-failure baseline (full solve; not measured).
  te::ViewDelta cold;
  warm.solve(view, tm, cold, nullptr);

  const auto fibers = pick_failure_fibers(topo, config.n_events,
                                          util::splitmix64(config.seed));
  for (topo::LinkId fiber : fibers) {
    view.set_duplex_up(fiber, false);
    te::ViewDelta delta;
    delta.full = false;
    delta.changed_links = {fiber, view.link(fiber).reverse};

    te::IncrementalStats istats;
    auto t0 = Clock::now();
    const te::Solution warm_solution = warm.solve(view, tm, delta, &istats);
    out.incremental_s.add(elapsed(t0));
    out.reuse_fraction.add(istats.reuse_fraction);
    if (istats.fallback) ++out.fallbacks;

    t0 = Clock::now();
    const te::Solution scratch_solution = scratch.solve(view, tm);
    out.full_s.add(elapsed(t0));

    out.checker_violations +=
        te::DiffChecker::check_against(view, tm, warm_solution,
                                       scratch_solution,
                                       te::DiffChecker::Options{})
            .violations.size();

    // Repair and re-warm (not measured) so the next event starts from a
    // converged no-failure solution again.
    view.set_duplex_up(fiber, true);
    warm.solve(view, tm, delta, nullptr);
  }
  return out;
}

ComponentDistributions measure_csdn_convergence(
    const topo::Topology& topo, const traffic::TrafficMatrix& tm,
    const CsdnConvergenceConfig& config) {
  DSDN_TRACE_SPAN("sim.csdn_convergence");
  ComponentDistributions out;
  topo::Topology scratch = topo;
  csdn::CsdnController controller(&scratch, config.seed);
  if (!config.measured_tcomp.empty()) {
    controller.set_measured_tcomp(config.measured_tcomp);
  }
  const auto fibers = pick_failure_fibers(topo, config.n_events,
                                          util::splitmix64(config.seed ^ 1));
  const te::Solution baseline = controller.solve(tm);

  for (topo::LinkId fiber : fibers) {
    scratch.set_duplex_up(fiber, false);
    const te::Solution after = controller.solve(tm);
    const auto changed = csdn::changed_demands(baseline, after);
    const auto timing = controller.time_reconvergence(0.0, after, changed);

    out.tprop.add(timing.t_learned);
    out.tcomp.add(timing.t_computed - timing.t_learned);
    // Tprog per §4: the time to install computed paths at *all* routers
    // -- gated by the slowest path's two-phase programming.
    if (!timing.demand_switch.empty()) {
      out.tprog.add(timing.t_converged - timing.t_computed);
    }
    out.total.add(timing.t_converged);
    scratch.set_duplex_up(fiber, true);
  }
  return out;
}

}  // namespace dsdn::sim
