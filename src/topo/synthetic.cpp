#include "topo/synthetic.hpp"

#include <algorithm>
#include <cmath>
#include <set>
#include <string>

#include "util/rng.hpp"

namespace dsdn::topo {

namespace {

struct Point {
  double x = 0.0;
  double y = 0.0;
};

double dist_km(const Point& a, const Point& b) {
  const double dx = a.x - b.x;
  const double dy = a.y - b.y;
  return std::sqrt(dx * dx + dy * dy);
}

// Propagation delay in seconds for a fiber of the given route length.
// Light in fiber covers ~200,000 km/s; routes are ~1.3x line-of-sight.
double fiber_delay_s(double km) { return 1.3 * km / 200000.0; }

// Plane dimensions, continental scale.
constexpr double kPlaneX = 5000.0;
constexpr double kPlaneY = 3000.0;

std::vector<Point> scatter(std::size_t n, util::Rng& rng) {
  std::vector<Point> pts(n);
  for (auto& p : pts) {
    p.x = rng.uniform(0.0, kPlaneX);
    p.y = rng.uniform(0.0, kPlaneY);
  }
  return pts;
}

// Prim MST over point set; returns edges (i, j).
std::vector<std::pair<std::size_t, std::size_t>> mst_edges(
    const std::vector<Point>& pts) {
  const std::size_t n = pts.size();
  std::vector<std::pair<std::size_t, std::size_t>> edges;
  if (n < 2) return edges;
  std::vector<bool> in_tree(n, false);
  std::vector<double> best(n, std::numeric_limits<double>::infinity());
  std::vector<std::size_t> parent(n, 0);
  in_tree[0] = true;
  for (std::size_t j = 1; j < n; ++j) best[j] = dist_km(pts[0], pts[j]);
  for (std::size_t added = 1; added < n; ++added) {
    std::size_t pick = 0;
    double pick_d = std::numeric_limits<double>::infinity();
    for (std::size_t j = 0; j < n; ++j) {
      if (!in_tree[j] && best[j] < pick_d) {
        pick = j;
        pick_d = best[j];
      }
    }
    in_tree[pick] = true;
    edges.emplace_back(parent[pick], pick);
    for (std::size_t j = 0; j < n; ++j) {
      if (!in_tree[j]) {
        const double d = dist_km(pts[pick], pts[j]);
        if (d < best[j]) {
          best[j] = d;
          parent[j] = pick;
        }
      }
    }
  }
  return edges;
}

}  // namespace

namespace detail {

Topology make_geo_network(const GeoNetworkParams& params) {
  util::Rng rng(params.seed);
  Topology topo;
  const std::size_t n_hubs = std::min(params.n_hubs, params.n_nodes);
  const auto hub_pts = scatter(n_hubs, rng);

  // Hubs: one per metro, higher gravity weight.
  for (std::size_t h = 0; h < n_hubs; ++h) {
    const std::string name =
        std::string(params.name_prefix) + "-hub" + std::to_string(h);
    topo.add_node(name, name, rng.uniform(2.0, 4.0));
  }

  std::set<std::pair<NodeId, NodeId>> used;
  auto add_core = [&](std::size_t a, std::size_t b) {
    // Build the pair by value: std::minmax over prvalues returns a pair
    // of references into expired temporaries.
    const std::pair<NodeId, NodeId> key{
        static_cast<NodeId>(std::min(a, b)), static_cast<NodeId>(std::max(a, b))};
    if (a == b || used.contains(key)) return;
    used.insert(key);
    const double d = dist_km(hub_pts[a], hub_pts[b]);
    topo.add_duplex(static_cast<NodeId>(a), static_cast<NodeId>(b),
                    params.capacity_core_gbps, std::max(1.0, d / 100.0),
                    fiber_delay_s(d));
  };

  for (const auto& [a, b] : mst_edges(hub_pts)) add_core(a, b);

  // Waxman-style chords: prefer shorter candidate pairs.
  std::size_t chords_added = 0;
  std::size_t attempts = 0;
  const double scale_l = std::sqrt(kPlaneX * kPlaneX + kPlaneY * kPlaneY);
  while (chords_added < params.extra_core_chords &&
         attempts < params.extra_core_chords * 50 + 100) {
    ++attempts;
    const auto a = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(n_hubs) - 1));
    const auto b = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(n_hubs) - 1));
    if (a == b) continue;
    const double d = dist_km(hub_pts[a], hub_pts[b]);
    if (!rng.bernoulli(std::exp(-d / (0.25 * scale_l)))) continue;
    const std::pair<NodeId, NodeId> key{
        static_cast<NodeId>(std::min(a, b)), static_cast<NodeId>(std::max(a, b))};
    if (used.contains(key)) continue;
    add_core(a, b);
    ++chords_added;
  }

  // Spur nodes: attach to the nearest hub plus avg_spur_degree more.
  for (std::size_t i = n_hubs; i < params.n_nodes; ++i) {
    Point p{rng.uniform(0.0, kPlaneX), rng.uniform(0.0, kPlaneY)};
    // Rank hubs by distance.
    std::vector<std::size_t> order(n_hubs);
    for (std::size_t h = 0; h < n_hubs; ++h) order[h] = h;
    std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
      return dist_km(p, hub_pts[a]) < dist_km(p, hub_pts[b]);
    });
    const std::string metro = topo.node(static_cast<NodeId>(order[0])).metro;
    const NodeId id = topo.add_node(
        std::string(params.name_prefix) + "-" + std::to_string(i), metro,
        rng.uniform(0.5, 1.5));
    const std::size_t uplinks = 1 + params.avg_spur_degree;
    for (std::size_t k = 0; k < std::min(uplinks, n_hubs); ++k) {
      const double d = dist_km(p, hub_pts[order[k]]);
      topo.add_duplex(id, static_cast<NodeId>(order[k]),
                      params.capacity_spur_gbps, std::max(1.0, d / 100.0),
                      fiber_delay_s(d));
    }
  }

  topo.validate();
  return topo;
}

}  // namespace detail

namespace {

// Shared metro-mesh generator for B4/B2-like WANs: metros on a plane, each
// holding `routers_per_metro` fully-meshed routers; metro-level MST +
// Waxman chords, each metro-level adjacency realized as duplex links
// between randomly chosen border routers.
Topology make_metro_wan(std::size_t n_metros, std::size_t routers_per_metro,
                        std::size_t extra_metro_chords, double core_gbps,
                        std::uint64_t seed, const char* prefix) {
  util::Rng rng(seed);
  Topology topo;
  const auto metro_pts = scatter(n_metros, rng);

  std::vector<std::vector<NodeId>> metro_routers(n_metros);
  for (std::size_t m = 0; m < n_metros; ++m) {
    const std::string metro = std::string(prefix) + std::to_string(m);
    const double metro_weight = rng.uniform(0.5, 4.0);
    for (std::size_t r = 0; r < routers_per_metro; ++r) {
      metro_routers[m].push_back(topo.add_node(
          metro + "r" + std::to_string(r), metro, metro_weight));
    }
    // Intra-metro full mesh: short, fat links.
    for (std::size_t a = 0; a < routers_per_metro; ++a) {
      for (std::size_t b = a + 1; b < routers_per_metro; ++b) {
        topo.add_duplex(metro_routers[m][a], metro_routers[m][b],
                        core_gbps * 4.0, 1.0, 50e-6);
      }
    }
  }

  std::set<std::pair<std::size_t, std::size_t>> metro_used;
  auto add_metro_edge = [&](std::size_t a, std::size_t b) {
    auto key = std::minmax(a, b);
    if (a == b || metro_used.contains(key)) return;
    metro_used.insert(key);
    const double d = dist_km(metro_pts[a], metro_pts[b]);
    // Two parallel duplex links between distinct router pairs for
    // intra-metro failure diversity (as in real WAN metros).
    for (int dup = 0; dup < 2; ++dup) {
      const auto& ra = rng.pick(metro_routers[a]);
      const auto& rb = rng.pick(metro_routers[b]);
      topo.add_duplex(ra, rb, core_gbps, std::max(1.0, d / 100.0),
                      fiber_delay_s(d));
    }
  };

  for (const auto& [a, b] : mst_edges(metro_pts)) add_metro_edge(a, b);

  const double scale_l = std::sqrt(kPlaneX * kPlaneX + kPlaneY * kPlaneY);
  std::size_t chords = 0;
  std::size_t attempts = 0;
  while (chords < extra_metro_chords && attempts < extra_metro_chords * 60) {
    ++attempts;
    const auto a = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(n_metros) - 1));
    const auto b = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(n_metros) - 1));
    if (a == b) continue;
    const double d = dist_km(metro_pts[a], metro_pts[b]);
    if (!rng.bernoulli(std::exp(-d / (0.3 * scale_l)))) continue;
    auto key = std::minmax(a, b);
    if (metro_used.contains(key)) continue;
    add_metro_edge(a, b);
    ++chords;
  }

  topo.validate();
  return topo;
}

}  // namespace

Topology make_b4_like(const B4LikeParams& params) {
  return make_metro_wan(params.n_metros, params.routers_per_metro,
                        params.n_metros, 100.0, params.seed, "m");
}

Topology make_b2_like(const B2LikeParams& params) {
  const auto metros = static_cast<std::size_t>(
      std::max(4.0, std::round(static_cast<double>(params.n_metros) *
                               params.scale)));
  // B2 is denser than B4: ~2 chords per metro.
  return make_metro_wan(metros, params.routers_per_metro, metros * 2, 100.0,
                        params.seed, "b2m");
}

std::vector<GrowthSnapshot> b2_growth_snapshots(std::size_t quarters,
                                                double final_scale) {
  static constexpr const char* kLabels[] = {
      "Jan '20", "May '20", "Sep '20", "Jan '21", "May '21", "Sep '21",
      "Jan '22", "May '22", "Sep '22", "Jan '23", "May '23", "Sep '23"};
  std::vector<GrowthSnapshot> out;
  for (std::size_t q = 0; q < quarters; ++q) {
    const double frac = static_cast<double>(q + 1) /
                        static_cast<double>(quarters);
    B2LikeParams p;
    p.scale = final_scale * (0.35 + 0.65 * frac);
    const char* label = q < std::size(kLabels) ? kLabels[q] : "later";
    out.push_back({label, make_b2_like(p)});
  }
  return out;
}

Topology make_line(std::size_t n, double capacity_gbps) {
  Topology topo;
  for (std::size_t i = 0; i < n; ++i)
    topo.add_node("n" + std::to_string(i));
  for (std::size_t i = 0; i + 1 < n; ++i) {
    topo.add_duplex(static_cast<NodeId>(i), static_cast<NodeId>(i + 1),
                    capacity_gbps);
  }
  return topo;
}

Topology make_ring(std::size_t n, double capacity_gbps) {
  Topology topo = make_line(n, capacity_gbps);
  if (n > 2) {
    topo.add_duplex(static_cast<NodeId>(n - 1), 0, capacity_gbps);
  }
  return topo;
}

Topology make_full_mesh(std::size_t n, double capacity_gbps) {
  Topology topo;
  for (std::size_t i = 0; i < n; ++i)
    topo.add_node("n" + std::to_string(i));
  for (std::size_t a = 0; a < n; ++a) {
    for (std::size_t b = a + 1; b < n; ++b) {
      topo.add_duplex(static_cast<NodeId>(a), static_cast<NodeId>(b),
                      capacity_gbps);
    }
  }
  return topo;
}

Topology make_fig5() {
  // The three-router example of Fig 5: R0 (ingress), R2 (transit),
  // R1 (egress), with parallel paths R0->R1 direct and via R2.
  Topology topo;
  const NodeId r0 = topo.add_node("R0", "m0");
  const NodeId r1 = topo.add_node("R1", "m1");
  const NodeId r2 = topo.add_node("R2", "m2");
  topo.add_duplex(r0, r1, 100.0, 2.0, 1e-3);  // direct
  topo.add_duplex(r0, r2, 100.0, 1.0, 1e-3);
  topo.add_duplex(r2, r1, 100.0, 1.0, 1e-3);
  return topo;
}

}  // namespace dsdn::topo
