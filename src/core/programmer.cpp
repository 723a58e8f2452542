#include "core/programmer.hpp"

#include <limits>
#include <map>

#include "dataplane/label.hpp"
#include "te/segment_routing.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace dsdn::core {

void Programmer::program_prefixes(const StateDb& state,
                                  dataplane::RouterDataplane& hw) const {
  DSDN_TRACE_SPAN("program.prefixes");
  hw.ingress.clear_prefixes();
  for (const auto& [prefix, egress] : state.prefix_entries()) {
    hw.ingress.set_prefix(prefix, egress);
  }
}

Programmer::EncapReport Programmer::program_encap(
    const std::vector<te::Allocation>& own,
    dataplane::RouterDataplane& hw) const {
  DSDN_TRACE_SPAN("program.encap");
  auto& reg = obs::Registry::global();
  static obs::Counter& m_installed = reg.counter("program.routes_installed");
  static obs::Counter& m_too_deep = reg.counter("program.routes_too_deep");
  EncapReport report;
  hw.ingress.clear_routes();
  for (const te::Allocation& a : own) {
    dataplane::EncapEntry entry;
    // An SR allocation carries one WeightedPath per ECMP *expansion*, many
    // sharing one segment stack; the hardware holds one route per stack,
    // so fold the expansion weights per distinct segment list first.
    std::map<std::vector<topo::NodeId>, double> sr_weights;
    for (const te::WeightedPath& wp : a.paths) {
      if (!wp.segments.empty()) {
        sr_weights[wp.segments] += wp.weight;
        continue;
      }
      if (wp.path.hops() > dataplane::kMaxLabelDepth) {
        ++report.routes_too_deep;
        continue;
      }
      dataplane::WeightedRoute route;
      route.stack = dataplane::encode_strict_route(wp.path);
      route.weight = wp.weight;
      entry.routes.push_back(std::move(route));
      ++report.routes_installed;
    }
    for (const auto& [segments, weight] : sr_weights) {
      dataplane::WeightedRoute route;
      route.stack = dataplane::encode_segment_route(segments);
      route.weight = weight;
      entry.routes.push_back(std::move(route));
      ++report.routes_installed;
      ++report.sr_routes_installed;
    }
    if (!entry.routes.empty()) {
      hw.ingress.set_routes(a.demand.dst, a.demand.priority, std::move(entry));
    }
  }
  m_installed.add(report.routes_installed);
  m_too_deep.add(report.routes_too_deep);
  return report;
}

Programmer::SrReport Programmer::program_sr(
    const topo::Topology& view, dataplane::RouterDataplane& hw) const {
  DSDN_TRACE_SPAN("program.sr");
  SrReport report;
  hw.sr.clear();
  // Same underlay math the SR solver expands against: membership from
  // one build over the converged view keeps transit splits and headend
  // capacity accounting consistent.
  const te::SrUnderlay underlay = te::SrUnderlay::build(view);
  std::vector<topo::LinkId> members;
  for (topo::NodeId t = 0; t < view.num_nodes(); ++t) {
    if (t == self_) continue;
    members.clear();
    underlay.ecmp_members(view, self_, t, members);
    if (members.empty()) continue;
    std::vector<dataplane::SrNextHop> hops;
    hops.reserve(members.size());
    for (topo::LinkId lid : members) {
      hops.push_back({lid, view.link(lid).dst});
    }
    report.next_hops += hops.size();
    hw.sr.set_members(t, std::move(hops));
    ++report.targets;
  }
  return report;
}

Programmer::BypassReport Programmer::program_bypasses(
    const topo::Topology& view, const std::vector<double>& residual_gbps,
    dataplane::BypassStrategy strategy, std::size_t k,
    dataplane::RouterDataplane& hw) const {
  DSDN_TRACE_SPAN("program.bypasses");
  BypassReport report;
  hw.bypass.clear();
  for (topo::LinkId lid : view.node(self_).out_links) {
    if (!view.link(lid).up) continue;
    const auto plan = dataplane::BypassPlan::compute_for_links(
        view, strategy, {lid}, residual_gbps, k);
    const auto& candidates = plan.candidates(lid);
    if (candidates.empty()) continue;

    std::vector<dataplane::WeightedRoute> routes;
    routes.reserve(candidates.size());
    for (std::size_t rank = 0; rank < candidates.size(); ++rank) {
      const te::Path& p = candidates[rank];
      double weight = 1.0;
      switch (strategy) {
        case dataplane::BypassStrategy::kShortestPath:
        case dataplane::BypassStrategy::kCapacityAware:
          weight = 1.0;  // single candidate
          break;
        case dataplane::BypassStrategy::kKShortestPaths:
          weight = 1.0 / static_cast<double>(rank + 1);
          break;
        case dataplane::BypassStrategy::kKCapacityAware: {
          double bottleneck = std::numeric_limits<double>::infinity();
          for (topo::LinkId l : p.links) {
            bottleneck = std::min(
                bottleneck, residual_gbps.empty()
                                ? view.link(l).capacity_gbps
                                : residual_gbps[l]);
          }
          weight = std::max(bottleneck, 1e-9);
          break;
        }
      }
      routes.push_back(dataplane::WeightedRoute{
          dataplane::encode_strict_route(p, /*enforce_depth=*/false),
          weight});
      ++report.routes_installed;
    }
    hw.bypass.set_bypasses(lid, std::move(routes));
    ++report.links_protected;
  }
  return report;
}

}  // namespace dsdn::core
