#include "sim/flow_eval.hpp"

#include <algorithm>
#include <cmath>

#include "util/rng.hpp"

namespace dsdn::sim {

InstalledRouting InstalledRouting::from_solution(
    const te::Solution& solution) {
  InstalledRouting r;
  r.rows.reserve(solution.allocations.size());
  for (const te::Allocation& a : solution.allocations) {
    r.rows.push_back(a.paths);
  }
  return r;
}

namespace {

// Branch cap per SR route expansion: generous relative to real ECMP
// fan-out (<= 3 segments, small per-hop width), so dropped branches --
// which get charged as loss -- only occur on pathological FIBs.
constexpr std::size_t kMaxSrExpansions = 64;

// DFS through the installed SrFibs: follow the up members toward each
// segment target with uniform per-hop splits; a node whose members are
// all down terminates its branch ON the dead link (structurally scored
// as dropped, like the forwarder); a missing entry abandons the branch
// (its weight is charged as loss).
void expand_sr_route(const topo::Topology& topo,
                     const dataplane::DataplaneProvider& dataplanes,
                     topo::NodeId at, std::size_t seg_idx,
                     const std::vector<topo::NodeId>& segments,
                     std::vector<topo::LinkId>& links, double frac,
                     std::size_t max_hops,
                     std::vector<te::WeightedPath>& out) {
  if (out.size() >= kMaxSrExpansions) return;
  if (seg_idx == segments.size()) {
    te::WeightedPath wp;
    wp.path.links = links;
    wp.weight = frac;
    wp.segments = segments;
    out.push_back(std::move(wp));
    return;
  }
  const topo::NodeId target = segments[seg_idx];
  if (at == target) {
    expand_sr_route(topo, dataplanes, at, seg_idx + 1, segments, links, frac,
                    max_hops, out);
    return;
  }
  if (links.size() >= max_hops) return;  // cycling FIBs: abandon branch
  const std::vector<dataplane::SrNextHop>* members =
      dataplanes.at(at).sr.members(target);
  if (!members) return;
  std::vector<const dataplane::SrNextHop*> up;
  for (const dataplane::SrNextHop& m : *members) {
    if (topo.link(m.link).up) up.push_back(&m);
  }
  if (up.empty()) {
    te::WeightedPath wp;
    wp.path.links = links;
    wp.path.links.push_back(members->front().link);  // the dead hop
    wp.weight = frac;
    wp.segments = segments;
    out.push_back(std::move(wp));
    return;
  }
  const double split = frac / static_cast<double>(up.size());
  for (const dataplane::SrNextHop* m : up) {
    links.push_back(m->link);
    expand_sr_route(topo, dataplanes, m->next, seg_idx, segments, links,
                    split, max_hops, out);
    links.pop_back();
  }
}

}  // namespace

InstalledRouting InstalledRouting::from_dataplane(
    const traffic::TrafficMatrix& tm,
    const dataplane::DataplaneProvider& dataplanes,
    const topo::Topology* topo) {
  InstalledRouting r;
  r.rows.resize(tm.size());
  const auto& demands = tm.demands();
  for (std::size_t i = 0; i < demands.size(); ++i) {
    const traffic::Demand& d = demands[i];
    const dataplane::EncapEntry* entry =
        dataplanes.at(d.src).ingress.routes_for(d.dst, d.priority);
    if (!entry) continue;  // nothing installed: scored as blackholed
    for (const dataplane::WeightedRoute& wr : entry->routes) {
      const auto& labels = wr.stack.labels();
      if (!labels.empty() && dataplane::is_node_segment_label(labels[0])) {
        if (!topo) continue;  // cannot expand: weight charged as loss
        std::vector<topo::NodeId> segments;
        segments.reserve(labels.size());
        bool well_formed = true;
        for (dataplane::Label l : labels) {
          if (!dataplane::is_node_segment_label(l)) {
            well_formed = false;  // mixed stack: no encoder emits this
            break;
          }
          segments.push_back(dataplane::segment_node(l));
        }
        if (!well_formed) continue;
        std::vector<te::WeightedPath> expanded;
        std::vector<topo::LinkId> links;
        expand_sr_route(*topo, dataplanes, d.src, 0, segments, links,
                        wr.weight, dataplane::forward_hop_bound(*topo),
                        expanded);
        for (te::WeightedPath& wp : expanded) {
          r.rows[i].push_back(std::move(wp));
        }
        continue;
      }
      r.rows[i].push_back(te::WeightedPath{
          dataplane::decode_strict_route(wr.stack), wr.weight, {}});
    }
  }
  return r;
}

namespace {

// A demand's traffic on one installed path, after splicing bypasses
// around down links. dropped == true when a down link had no usable
// bypass (that traffic is lost entirely).
struct EffectivePath {
  std::vector<topo::LinkId> links;
  std::vector<topo::LinkId> bypass_links;  // the spliced-in detour hops
  bool dropped = false;
};

EffectivePath splice_bypasses(const topo::Topology& topo,
                              const te::Path& path, double rate,
                              std::uint64_t entropy,
                              const dataplane::BypassPlan* bypasses,
                              const std::vector<double>& residual) {
  EffectivePath out;
  for (topo::LinkId lid : path.links) {
    const topo::Link& l = topo.link(lid);
    if (l.up) {
      out.links.push_back(lid);
      continue;
    }
    if (!bypasses) {
      out.dropped = true;
      return out;
    }
    const auto bypass = bypasses->select(topo, lid, rate, entropy, residual);
    if (!bypass) {
      out.dropped = true;
      return out;
    }
    // The bypass was computed on the healthy topology; links inside it
    // may themselves be down now (select() filters that, but re-check
    // defensively -- a second concurrent failure can slip through for
    // multi-candidate strategies).
    for (topo::LinkId bl : bypass->links) {
      if (!topo.link(bl).up) {
        out.dropped = true;
        return out;
      }
      out.links.push_back(bl);
      out.bypass_links.push_back(bl);
    }
  }
  return out;
}

}  // namespace

LossReport evaluate_loss(const topo::Topology& topo,
                         const traffic::TrafficMatrix& tm,
                         const InstalledRouting& routing,
                         const dataplane::BypassPlan* bypasses,
                         const LossOptions& options) {
  const auto& demands = tm.demands();
  LossReport report;
  report.loss.assign(demands.size(), 0.0);
  report.utilization.assign(topo.num_links(), 0.0);

  // Offered load per (link, class), plus the effective paths we need for
  // the second pass.
  std::vector<std::array<double, metrics::kNumPriorityClasses>> offered(
      topo.num_links(), std::array<double, metrics::kNumPriorityClasses>{});
  struct Portion {
    std::size_t demand;
    double weight;
    EffectivePath eff;
  };
  std::vector<Portion> portions;
  portions.reserve(demands.size());

  // Live spare-capacity view for bypass admission: flows rerouted onto a
  // bypass drain it for subsequent flows, which is what spreads load
  // across candidates in the multi-path strategies.
  std::vector<double> live_residual;
  if (options.bypass_residual) {
    live_residual = *options.bypass_residual;
  } else {
    live_residual.resize(topo.num_links());
    for (std::size_t l = 0; l < topo.num_links(); ++l)
      live_residual[l] = topo.link(static_cast<topo::LinkId>(l)).capacity_gbps;
  }

  for (std::size_t i = 0; i < demands.size(); ++i) {
    const auto& rows = routing.rows;
    if (demands[i].rate_gbps <= 0) continue;  // offers nothing, loses nothing
    if (i >= rows.size() || rows[i].empty()) {
      report.loss[i] = 1.0;  // nothing installed: blackholed
      continue;
    }
    for (const te::WeightedPath& wp : rows[i]) {
      if (wp.weight <= 0) continue;  // carries no share of the demand
      const double rate = demands[i].rate_gbps * wp.weight;
      EffectivePath eff =
          splice_bypasses(topo, wp.path, rate,
                          util::splitmix64(i * 2654435761u), bypasses,
                          live_residual);
      if (!eff.dropped) {
        const auto cls = static_cast<int>(demands[i].priority);
        for (topo::LinkId l : eff.links) offered[l][cls] += rate;
        for (topo::LinkId l : eff.bypass_links) live_residual[l] -= rate;
      }
      portions.push_back(Portion{i, wp.weight, std::move(eff)});
    }
  }

  // Per-link strict-priority capacity grant.
  std::vector<std::array<double, metrics::kNumPriorityClasses>> drop_frac(
      topo.num_links(), std::array<double, metrics::kNumPriorityClasses>{});
  for (std::size_t l = 0; l < topo.num_links(); ++l) {
    const double capacity =
        topo.link(static_cast<topo::LinkId>(l)).capacity_gbps;
    double total_offered = 0.0;
    for (int c = 0; c < metrics::kNumPriorityClasses; ++c)
      total_offered += offered[l][c];
    if (!options.congestion) {
      // Structural-only scoring: every class granted in full.
    } else if (options.strict_priority) {
      double remaining = capacity;
      for (int c = 0; c < metrics::kNumPriorityClasses; ++c) {
        const double o = offered[l][c];
        if (o <= 0) continue;
        const double granted = std::min(remaining, o);
        drop_frac[l][c] = 1.0 - granted / o;
        remaining -= granted;
      }
    } else if (total_offered > capacity) {
      const double shared_drop = 1.0 - capacity / total_offered;
      for (int c = 0; c < metrics::kNumPriorityClasses; ++c)
        drop_frac[l][c] = shared_drop;
    }
    report.utilization[l] = total_offered / capacity;
  }

  // Per-demand loss: weighted across installed paths; per path, the
  // worst drop fraction along it (bottleneck discipline).
  std::vector<double> weight_seen(demands.size(), 0.0);
  for (const Portion& p : portions) {
    double path_loss;
    if (p.eff.dropped) {
      path_loss = 1.0;
    } else {
      path_loss = 0.0;
      const auto cls = static_cast<int>(demands[p.demand].priority);
      for (topo::LinkId l : p.eff.links)
        path_loss = std::max(path_loss, drop_frac[l][cls]);
    }
    report.loss[p.demand] += p.weight * path_loss;
    weight_seen[p.demand] += p.weight;
  }
  // Partial-install accounting: weights might not sum to 1 (routes
  // skipped at programming time -- too deep, or install gave up). The
  // missing share of the demand is charged as loss *proportionally*;
  // only a demand with no installed route at all is the full blackhole
  // handled above. A demand offering zero rate keeps loss 0 either way.
  for (std::size_t i = 0; i < demands.size(); ++i) {
    if (demands[i].rate_gbps <= 0) continue;
    if (i < routing.rows.size() && !routing.rows[i].empty()) {
      report.loss[i] += std::max(0.0, 1.0 - weight_seen[i]);
      report.loss[i] = std::clamp(report.loss[i], 0.0, 1.0);
    }
  }
  return report;
}

double blast_radius(const traffic::TrafficMatrix& tm,
                    const std::vector<traffic::FlowGroup>& class_groups,
                    const LossReport& report) {
  if (class_groups.empty()) return 0.0;
  std::size_t violating = 0;
  for (const traffic::FlowGroup& g : class_groups) {
    const double threshold = metrics::slo_loss_threshold(g.key.priority);
    double hurt_volume = 0.0;
    for (std::size_t idx : g.demand_indices) {
      if (report.loss[idx] > threshold)
        hurt_volume += tm.demands()[idx].rate_gbps;
    }
    if (g.total_rate_gbps > 0 &&
        hurt_volume / g.total_rate_gbps > metrics::kGroupViolationFraction) {
      ++violating;
    }
  }
  return static_cast<double>(violating) /
         static_cast<double>(class_groups.size());
}

double median_latency_inflation(const topo::Topology& topo,
                                const traffic::TrafficMatrix& tm,
                                const InstalledRouting& reference,
                                const InstalledRouting& current,
                                const dataplane::BypassPlan* bypasses,
                                const std::vector<double>* bypass_residual) {
  auto mean_latency = [&](const std::vector<te::WeightedPath>& row,
                          std::size_t demand_idx,
                          bool splice) -> std::optional<double> {
    double total = 0.0;
    double weight = 0.0;
    for (const te::WeightedPath& wp : row) {
      double lat = 0.0;
      if (splice) {
        EffectivePath eff = splice_bypasses(
            topo, wp.path, tm.demands()[demand_idx].rate_gbps * wp.weight,
            util::splitmix64(demand_idx * 2654435761u), bypasses,
            bypass_residual ? *bypass_residual : std::vector<double>{});
        if (eff.dropped) continue;
        for (topo::LinkId l : eff.links) lat += topo.link(l).delay_s;
      } else {
        lat = wp.path.latency_s(topo);
      }
      total += wp.weight * lat;
      weight += wp.weight;
    }
    if (weight <= 0) return std::nullopt;
    return total / weight;
  };

  std::vector<double> inflations;
  for (std::size_t i = 0; i < tm.size(); ++i) {
    if (i >= reference.rows.size() || i >= current.rows.size()) continue;
    const auto ref = mean_latency(reference.rows[i], i, /*splice=*/false);
    const auto cur = mean_latency(current.rows[i], i, /*splice=*/true);
    if (!ref || !cur || *ref <= 0) continue;
    inflations.push_back(*cur / *ref);
  }
  if (inflations.empty()) return 1.0;
  std::nth_element(inflations.begin(),
                   inflations.begin() + inflations.size() / 2,
                   inflations.end());
  return inflations[inflations.size() / 2];
}

}  // namespace dsdn::sim
