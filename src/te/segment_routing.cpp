#include "te/segment_routing.hpp"

#include <algorithm>
#include <functional>
#include <numeric>
#include <unordered_map>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "te/batch_solver.hpp"

namespace dsdn::te {

SrUnderlay SrUnderlay::build(const topo::Topology& topo) {
  SrUnderlay u;
  u.n_ = topo.num_nodes();
  // One all-targets run from t over the reversed up links gives dist(v, t)
  // for every v. It pops the (dist, node) sequence of a reverse Dijkstra
  // relaxing in_links in order, so every distance sums its metrics in
  // that order. (A table row's forward distance sums them the other way
  // round and can differ in the last bit.)
  const BatchGraph g = build_batch_graph(topo, CsrView::kUpLinksReversed);
  const std::vector<double> no_floor(topo.num_links(), 0.0);
  std::vector<std::uint32_t> all(u.n_);
  std::iota(all.begin(), all.end(), 0u);
  u.dist_to_.assign(u.n_ * u.n_, kInf);
  SsspWorkspace ws;
  for (std::uint32_t t = 0; t < u.n_; ++t) {
    sssp(g, no_floor, 0.0, t, all.data(), all.size(), ws);
    double* const to_t = u.dist_to_.data() + t * u.n_;
    for (std::uint32_t v = 0; v < u.n_; ++v) {
      if (ws.reached(v)) to_t[v] = ws.dist[v];
    }
  }
  return u;
}

std::vector<topo::LinkId> SrUnderlay::ecmp_members(const topo::Topology& topo,
                                                   topo::NodeId u,
                                                   topo::NodeId t) const {
  std::vector<topo::LinkId> members;
  if (u == t) return members;
  const double du = dist(u, t);
  if (du >= kInf) return members;
  const double eps = sr_eps(du);
  for (topo::LinkId lid : topo.node(u).out_links) {
    const topo::Link& l = topo.link(lid);
    if (!l.up) continue;
    const double through = l.igp_metric + dist(l.dst, t);
    if (through <= du + eps) members.push_back(lid);
  }
  std::sort(members.begin(), members.end());
  return members;
}

std::vector<topo::NodeId> rank_middlepoints(const SrUnderlay& underlay,
                                            std::size_t k) {
  const std::size_t n = underlay.num_nodes();
  // score(v) = ordered pairs (s, t) whose shortest path can pass v.
  std::vector<std::uint64_t> score(n, 0);
  for (topo::NodeId s = 0; s < n; ++s) {
    for (topo::NodeId t = 0; t < n; ++t) {
      if (s == t) continue;
      const double dst = underlay.dist(s, t);
      if (dst >= SrUnderlay::kInf) continue;
      const double eps = sr_eps(dst);
      for (topo::NodeId v = 0; v < n; ++v) {
        if (v == s || v == t) continue;
        const double via = underlay.dist(s, v) + underlay.dist(v, t);
        if (via <= dst + eps) ++score[v];
      }
    }
  }
  std::vector<topo::NodeId> ranked(n);
  for (topo::NodeId v = 0; v < n; ++v) ranked[v] = v;
  std::sort(ranked.begin(), ranked.end(),
            [&](topo::NodeId a, topo::NodeId b) {
              if (score[a] != score[b]) return score[a] > score[b];
              return a < b;
            });
  if (ranked.size() > k) ranked.resize(k);
  return ranked;
}

std::vector<SegmentRoute> segment_route_candidates(
    const SrUnderlay& underlay, topo::NodeId src, topo::NodeId dst,
    const std::vector<topo::NodeId>& middlepoints) {
  std::vector<SegmentRoute> routes;
  if (src == dst) return routes;

  const auto leg = [&](topo::NodeId a, topo::NodeId b) {
    return underlay.dist(a, b);
  };
  if (underlay.reachable(src, dst)) {
    routes.push_back({{dst}, leg(src, dst)});
  }
  const auto usable = [&](topo::NodeId m) { return m != src && m != dst; };
  // One- and two-middlepoint routes fill the stack up to its cap.
  static_assert(SrOptions::max_segments == 3);
  const std::size_t singles =
      std::min(SrOptions::num_middlepoints, middlepoints.size());
  for (std::size_t i = 0; i < singles; ++i) {
    const topo::NodeId m = middlepoints[i];
    if (!usable(m)) continue;
    const double c = leg(src, m) + leg(m, dst);
    if (c >= SrUnderlay::kInf) continue;
    routes.push_back({{m, dst}, c});
  }
  const std::size_t pairs =
      std::min(SrOptions::pair_middlepoints, middlepoints.size());
  for (std::size_t i = 0; i < pairs; ++i) {
    for (std::size_t j = 0; j < pairs; ++j) {
      if (i == j) continue;
      const topo::NodeId m1 = middlepoints[i];
      const topo::NodeId m2 = middlepoints[j];
      if (!usable(m1) || !usable(m2)) continue;
      const double c = leg(src, m1) + leg(m1, m2) + leg(m2, dst);
      if (c >= SrUnderlay::kInf) continue;
      routes.push_back({{m1, m2, dst}, c});
    }
  }
  std::sort(routes.begin(), routes.end(),
            [](const SegmentRoute& a, const SegmentRoute& b) {
              if (a.cost != b.cost) return a.cost < b.cost;
              if (a.segments.size() != b.segments.size())
                return a.segments.size() < b.segments.size();
              return a.segments < b.segments;
            });
  if (routes.size() > SrOptions::max_candidates)
    routes.resize(SrOptions::max_candidates);
  return routes;
}

namespace {

struct SegPath {
  std::vector<topo::LinkId> links;
  double frac = 1.0;
};

// DFS over the ECMP DAG from s to t, members in link-id order, frac =
// product of per-node uniform splits; capped + renormalized.
std::vector<SegPath> enumerate_segment_paths(const topo::Topology& topo,
                                             const SrUnderlay& underlay,
                                             topo::NodeId s, topo::NodeId t,
                                             std::size_t cap) {
  std::vector<SegPath> paths;
  if (s == t) {
    paths.push_back({{}, 1.0});
    return paths;
  }
  std::vector<topo::LinkId> links;
  const std::function<void(topo::NodeId, double)> dfs =
      [&](topo::NodeId u, double frac) {
        if (paths.size() >= cap) return;
        if (u == t) {
          paths.push_back({links, frac});
          return;
        }
        const std::vector<topo::LinkId> members =
            underlay.ecmp_members(topo, u, t);
        if (members.empty()) return;  // partitioned mid-DFS view: dead end
        const double split = frac / static_cast<double>(members.size());
        for (topo::LinkId lid : members) {
          if (paths.size() >= cap) return;
          links.push_back(lid);
          dfs(topo.link(lid).dst, split);
          links.pop_back();
        }
      };
  dfs(s, 1.0);
  double total = 0.0;
  for (const SegPath& p : paths) total += p.frac;
  if (total > 0.0) {
    for (SegPath& p : paths) p.frac /= total;
  }
  return paths;
}

std::uint64_t node_pair_key(topo::NodeId a, topo::NodeId b) {
  return (static_cast<std::uint64_t>(a) << 32) | b;
}

// Expands segment routes over one view. Each (at, target) leg's ECMP
// enumeration is a pure function of the view, so it is computed on first
// use and interned for the expander's lifetime: every route sharing a
// leg reads the same enumeration. The solver keeps one expander per
// solve; expand_segment_route uses a throwaway one.
class SegmentExpander {
 public:
  SegmentExpander(const topo::Topology& topo, const SrUnderlay& underlay)
      : topo_(topo), underlay_(underlay) {}

  std::vector<WeightedPath> expand(topo::NodeId src,
                                   const std::vector<topo::NodeId>& segments);

  std::size_t legs_enumerated() const { return legs_.size(); }

 private:
  // Node-based map: the returned reference stays valid across inserts.
  const std::vector<SegPath>& leg(topo::NodeId at, topo::NodeId target) {
    const auto [it, inserted] = legs_.try_emplace(node_pair_key(at, target));
    if (inserted) {
      it->second = enumerate_segment_paths(topo_, underlay_, at, target,
                                           SrOptions::max_paths_per_segment);
    }
    return it->second;
  }

  const topo::Topology& topo_;
  const SrUnderlay& underlay_;
  std::unordered_map<std::uint64_t, std::vector<SegPath>> legs_;
};

std::vector<WeightedPath> SegmentExpander::expand(
    topo::NodeId src, const std::vector<topo::NodeId>& segments) {
  // Per-segment enumeration, then a capped cross-product concatenation.
  std::vector<SegPath> combos = {{{}, 1.0}};
  topo::NodeId at = src;
  for (topo::NodeId target : segments) {
    const std::vector<SegPath>& seg_paths = leg(at, target);
    if (seg_paths.empty()) return {};
    std::vector<SegPath> next;
    for (const SegPath& c : combos) {
      for (const SegPath& sp : seg_paths) {
        if (next.size() >= SrOptions::max_expansions_per_route) break;
        SegPath joined;
        joined.links = c.links;
        joined.links.insert(joined.links.end(), sp.links.begin(),
                            sp.links.end());
        joined.frac = c.frac * sp.frac;
        next.push_back(std::move(joined));
      }
      if (next.size() >= SrOptions::max_expansions_per_route) break;
    }
    combos = std::move(next);
    at = target;
  }

  // Drop concatenations that revisit a node -- Path feasibility (and the
  // dataplane hop bound) requires loop-freedom -- and renormalize.
  std::vector<WeightedPath> out;
  double total = 0.0;
  for (SegPath& c : combos) {
    bool loop_free = true;
    std::vector<topo::NodeId> seen = {src};
    for (topo::LinkId lid : c.links) {
      const topo::NodeId nxt = topo_.link(lid).dst;
      if (std::find(seen.begin(), seen.end(), nxt) != seen.end()) {
        loop_free = false;
        break;
      }
      seen.push_back(nxt);
    }
    if (!loop_free || c.links.empty()) continue;
    WeightedPath wp;
    wp.path.links = std::move(c.links);
    wp.weight = c.frac;
    wp.segments = segments;
    total += c.frac;
    out.push_back(std::move(wp));
  }
  if (total <= 0.0) return {};
  for (WeightedPath& wp : out) wp.weight /= total;
  return out;
}

}  // namespace

std::vector<WeightedPath> expand_segment_route(
    const topo::Topology& topo, const SrUnderlay& underlay, topo::NodeId src,
    const std::vector<topo::NodeId>& segments) {
  return SegmentExpander(topo, underlay).expand(src, segments);
}

Solution SrSolver::solve(const topo::Topology& topo,
                         const traffic::TrafficMatrix& tm,
                         const std::vector<double>* residual_override) const {
  DSDN_TRACE_SPAN("te.sr.solve");
  auto& reg = obs::Registry::global();
  static obs::Counter& m_solves = reg.counter("te.sr.solves");
  static obs::Counter& m_rounds = reg.counter("te.sr.rounds");
  static obs::Counter& m_frozen = reg.counter("te.sr.frozen_demands");
  static obs::Counter& m_legs = reg.counter("te.sr.legs_enumerated");
  static obs::Counter& m_considered =
      reg.counter("te.sr.candidates_considered");
  static obs::Counter& m_expanded = reg.counter("te.sr.candidates_expanded");

  const auto& demands = tm.demands();
  Solution sol;
  sol.allocations.resize(demands.size());
  for (std::size_t i = 0; i < demands.size(); ++i)
    sol.allocations[i].demand = demands[i];

  std::vector<double> residual;
  if (residual_override) {
    residual = *residual_override;
  } else {
    residual.resize(topo.num_links());
    for (topo::LinkId l = 0; l < topo.num_links(); ++l)
      residual[l] = topo.link(l).capacity_gbps;
  }

  const SrUnderlay underlay = SrUnderlay::build(topo);
  const std::vector<topo::NodeId> middlepoints = rank_middlepoints(
      underlay,
      std::max(SrOptions::num_middlepoints, SrOptions::pair_middlepoints));

  // Per-candidate placement state: the ECMP expansions and the per-link
  // charge fraction they imply (sum of the fracs of expansions crossing
  // the link). Granting g Gbps deducts g*frac from each touched link, and
  // the same products become the output weights -- so conservation is
  // exact by construction. Both are pure functions of (src, segments), so
  // one (src, dst) pair's candidate list is shared by its demands in every
  // priority class, and a candidate is expanded only when the waterfill
  // first evaluates it.
  struct Candidate {
    std::vector<topo::NodeId> segments;
    bool expanded = false;
    std::vector<WeightedPath> expansions;       // frac in weight, sums to 1
    std::vector<std::pair<topo::LinkId, double>> link_frac;
  };
  struct DemandState {
    std::size_t index = 0;
    double rate = 0.0;
    double remaining = 0.0;
    bool active = false;
    std::vector<Candidate>* candidates = nullptr;  // the pair's, cost order
    std::vector<double> mass;  // Gbps granted, by candidate index
  };

  SegmentExpander expander(topo, underlay);
  // Node-based map: demands hold pointers to the pair lists.
  std::unordered_map<std::uint64_t, std::vector<Candidate>> pair_candidates;
  std::size_t rounds = 0, frozen = 0, considered = 0, expanded = 0;
  // Dense per-link accumulator, all zero between expansions; `touched`
  // lists the links to read back and reset.
  std::vector<double> frac(topo.num_links(), 0.0);
  std::vector<topo::LinkId> touched;

  const auto candidates_of = [&](topo::NodeId src, topo::NodeId dst) {
    const auto [it, inserted] =
        pair_candidates.try_emplace(node_pair_key(src, dst));
    if (inserted) {
      for (SegmentRoute& route :
           segment_route_candidates(underlay, src, dst, middlepoints)) {
        it->second.emplace_back().segments = std::move(route.segments);
      }
      considered += it->second.size();
    }
    return &it->second;
  };
  // Expands on first use; true when the candidate has a loop-free
  // expansion (the only ones the waterfill may charge).
  const auto usable = [&](topo::NodeId src, Candidate& cand) {
    if (!cand.expanded) {
      cand.expanded = true;
      ++expanded;
      cand.expansions = expander.expand(src, cand.segments);
      // Same summation order as a dense per-candidate vector: expansions
      // in order, links in path order. A link may be listed twice if a
      // weight is 0; the second read finds it reset and skips it.
      for (const WeightedPath& wp : cand.expansions) {
        for (topo::LinkId l : wp.path.links) {
          if (frac[l] == 0.0) touched.push_back(l);
          frac[l] += wp.weight;
        }
      }
      std::sort(touched.begin(), touched.end());
      for (topo::LinkId l : touched) {
        if (frac[l] > 0.0) cand.link_frac.push_back({l, frac[l]});
        frac[l] = 0.0;
      }
      touched.clear();
    }
    return !cand.expansions.empty();
  };

  for (int cls = 0; cls < metrics::kNumPriorityClasses; ++cls) {
    std::vector<DemandState> states;
    for (std::size_t i = 0; i < demands.size(); ++i) {
      const traffic::Demand& d = demands[i];
      if (static_cast<int>(d.priority) != cls) continue;
      if (d.rate_gbps <= detail::kEpsilonGbps) continue;
      DemandState st;
      st.index = i;
      st.rate = d.rate_gbps;
      st.remaining = d.rate_gbps;
      st.candidates = candidates_of(d.src, d.dst);
      // Active iff some candidate has a loop-free expansion: expanding in
      // cost order up to the first one decides it.
      for (Candidate& cand : *st.candidates) {
        if (usable(d.src, cand)) {
          st.active = true;
          break;
        }
      }
      if (!st.active) ++frozen;
      states.push_back(std::move(st));
    }

    // Progressive filling, same round discipline as te::Solver.
    std::size_t round = 0;
    for (; round < detail::kMaxRounds; ++round) {
      double max_remaining = 0.0;
      for (const DemandState& st : states) {
        if (st.active && st.remaining > max_remaining)
          max_remaining = st.remaining;
      }
      if (max_remaining <= detail::kEpsilonGbps) break;
      ++rounds;
      const double quantum = detail::round_quantum(options_, max_remaining);
      bool progressed = false;
      for (DemandState& st : states) {
        if (!st.active) continue;
        const topo::NodeId src = demands[st.index].src;
        const double sliver = detail::sliver_threshold(quantum, st.remaining);
        std::vector<Candidate>& cands = *st.candidates;
        std::size_t chosen = cands.size();
        double grant = 0.0;
        // First candidate (cost order) able to carry a meaningful sliver
        // of this round's quantum wins -- shortest-first, like the strict
        // solver's preferred-path step.
        for (std::size_t k = 0; k < cands.size(); ++k) {
          if (!usable(src, cands[k])) continue;
          double g = std::min(quantum, st.remaining);
          for (const auto& [l, f] : cands[k].link_frac) {
            const double cap = residual[l] / f;
            if (cap < g) g = cap;
          }
          if (g > sliver) {
            chosen = k;
            grant = g;
            break;
          }
        }
        if (chosen == cands.size()) {
          st.active = false;  // frozen: no capacity-feasible candidate
          ++frozen;
          continue;
        }
        for (const auto& [l, f] : cands[chosen].link_frac) {
          residual[l] = std::max(0.0, residual[l] - grant * f);
        }
        if (chosen >= st.mass.size()) st.mass.resize(chosen + 1, 0.0);
        st.mass[chosen] += grant;
        st.remaining -= grant;
        progressed = true;
        if (st.remaining <= st.rate * detail::kSatisfiedTolerance)
          st.active = false;  // satisfied
      }
      if (!progressed) break;
    }
    if (round == detail::kMaxRounds) {
      for (const DemandState& st : states) frozen += st.active;
    }

    for (DemandState& st : states) {
      Allocation& a = sol.allocations[st.index];
      // Masses sum in candidate order; candidates never granted add 0.
      double total = 0.0;
      for (double m : st.mass) total += m;
      a.allocated_gbps = total;
      if (total <= detail::kEpsilonGbps) {
        a.allocated_gbps = 0.0;
        continue;
      }
      for (std::size_t k = 0; k < st.mass.size(); ++k) {
        if (st.mass[k] <= 0.0) continue;
        for (const WeightedPath& wp : (*st.candidates)[k].expansions) {
          WeightedPath placed = wp;
          placed.weight = st.mass[k] * wp.weight / total;
          a.paths.push_back(std::move(placed));
        }
      }
    }
  }

  m_solves.inc();
  m_rounds.add(rounds);
  m_frozen.add(frozen);
  m_legs.add(expander.legs_enumerated());
  m_considered.add(considered);
  m_expanded.add(expanded);
  return sol;
}

}  // namespace dsdn::te
