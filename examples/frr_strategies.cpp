// FRR strategy comparison (Appendix C) on a live packet walk: program a
// network, cut the fiber a route depends on, and watch how each bypass
// strategy repairs the same packet -- including where the detour goes and
// what it costs in latency.
//
//   $ ./example_frr_strategies

#include <cstdio>

#include "core/programmer.hpp"
#include "te/solver.hpp"
#include "topo/zoo.hpp"
#include "topo/prefix.hpp"
#include "traffic/gravity.hpp"

using namespace dsdn;

int main() {
  topo::Topology topo = topo::make_geant();
  const auto prefixes = topo::assign_router_prefixes(topo);
  traffic::GravityParams gp;
  gp.target_max_utilization = 0.9;
  const auto tm = traffic::generate_gravity(topo, gp).aggregated();
  const auto solution = te::Solver().solve(topo, tm);
  const auto residual = solution.residual_capacity(topo);

  // Program the data plane from the TE solution.
  dataplane::VectorDataplanes routers(topo.num_nodes());
  for (topo::NodeId n = 0; n < topo.num_nodes(); ++n) {
    auto& rd = routers.mutable_at(n);
    for (topo::NodeId m = 0; m < topo.num_nodes(); ++m) {
      rd.ingress.set_prefix(prefixes[m], m);
    }
  }
  for (const auto& a : solution.allocations) {
    dataplane::EncapEntry entry;
    for (const auto& wp : a.paths) {
      if (wp.path.hops() > dataplane::kMaxLabelDepth) continue;
      entry.routes.push_back(
          {dataplane::encode_strict_route(wp.path), wp.weight});
    }
    if (!entry.routes.empty()) {
      routers.mutable_at(a.demand.src)
          .ingress.set_routes(a.demand.dst, a.demand.priority,
                              std::move(entry));
    }
  }

  // Find a demand whose route has >= 2 hops, and cut its middle fiber.
  const dataplane::Forwarder fwd(topo, &routers);
  topo::NodeId src = 0, dst = 0;
  for (const auto& a : solution.allocations) {
    if (!a.paths.empty() && a.paths[0].path.hops() >= 2) {
      src = a.demand.src;
      dst = a.demand.dst;
      break;
    }
  }
  dataplane::Packet probe;
  probe.dst_ip = topo::host_in(prefixes[dst]);
  const auto before = fwd.forward(probe, src);
  std::printf("healthy route %s -> %s: ", topo.node(src).name.c_str(),
              topo.node(dst).name.c_str());
  for (std::size_t i = 0; i < before.trace.size(); ++i) {
    std::printf("%s%s", i ? "->" : "", topo.node(before.trace[i]).name.c_str());
  }
  std::printf("  (%.2f ms)\n", before.latency_s * 1e3);

  const topo::LinkId fiber =
      topo.find_link(before.trace[before.trace.size() / 2 - 1],
                     before.trace[before.trace.size() / 2]);
  std::printf("cutting mid-route fiber %s <-> %s\n\n",
              topo.node(topo.link(fiber).src).name.c_str(),
              topo.node(topo.link(fiber).dst).name.c_str());

  // Each fiber endpoint pre-installs its own bypasses under each
  // strategy, as its Programmer would; then cut and re-probe.
  for (const auto strategy : {dataplane::BypassStrategy::kShortestPath,
                              dataplane::BypassStrategy::kCapacityAware,
                              dataplane::BypassStrategy::kKShortestPaths,
                              dataplane::BypassStrategy::kKCapacityAware}) {
    for (const topo::NodeId end : {topo.link(fiber).src, topo.link(fiber).dst})
      core::Programmer(end).program_bypasses(topo, residual, strategy, 16,
                                             routers.mutable_at(end));
    topo.set_duplex_up(fiber, false);
    const auto after = fwd.forward(probe, src);
    std::printf("%-18s %s: ", dataplane::bypass_strategy_name(strategy),
                dataplane::forward_outcome_name(after.outcome));
    for (std::size_t i = 0; i < after.trace.size(); ++i) {
      std::printf("%s%s", i ? "->" : "",
                  topo.node(after.trace[i]).name.c_str());
    }
    if (after.outcome == dataplane::ForwardOutcome::kDelivered) {
      std::printf("  (%.2f ms, %.2fx, %zu FRR splice%s)",
                  after.latency_s * 1e3, after.latency_s / before.latency_s,
                  after.frr_activations,
                  after.frr_activations == 1 ? "" : "s");
    }
    std::printf("\n");
    topo.set_duplex_up(fiber, true);
  }
  std::printf("\nthe headend never learned of the failure: every repair "
              "happened at the router adjacent to the cut.\n");
  return 0;
}
