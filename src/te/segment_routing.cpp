#include "te/segment_routing.hpp"

#include <algorithm>
#include <array>
#include <numeric>

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

void SrUnderlay::ecmp_members(const topo::Topology& topo, topo::NodeId u,
                              topo::NodeId t,
                              std::vector<topo::LinkId>& out) const {
  if (u == t) return;
  const double du = dist(u, t);
  if (du >= kInf) return;
  const double eps = sr_eps(du);
  const auto first = static_cast<std::ptrdiff_t>(out.size());
  for (topo::LinkId lid : topo.node(u).out_links) {
    const topo::Link& l = topo.link(lid);
    if (!l.up) continue;
    const double through = l.igp_metric + dist(l.dst, t);
    if (through <= du + eps) out.push_back(lid);
  }
  std::sort(out.begin() + first, out.end());
}

std::vector<topo::LinkId> SrUnderlay::ecmp_members(const topo::Topology& topo,
                                                   topo::NodeId u,
                                                   topo::NodeId t) const {
  std::vector<topo::LinkId> members;
  ecmp_members(topo, u, t, members);
  return members;
}

std::vector<topo::NodeId> rank_middlepoints(const SrUnderlay& underlay,
                                            std::size_t k) {
  const std::size_t n = underlay.num_nodes();
  // score(v) = ordered pairs (s, t) whose shortest path can pass v. Per
  // source s, one row holds each target's bound dist(s, t) + eps (-inf for
  // t = s and unreachable t, which no sum meets), and each v counts the
  // targets with dist(s, v) + dist(v, t) <= bound, branch-free along the
  // contiguous row dist(v, .). That counts v = s and v = t too, which are
  // taken off after: dist(v, v) is exactly 0, so the sum is dist(s, t)
  // there, and eps > 0 puts it within the bound. Every sum and bound keeps
  // its operands and order.
  std::vector<double> from(n * n);
  for (topo::NodeId s = 0; s < n; ++s) {
    for (topo::NodeId v = 0; v < n; ++v) from[s * n + v] = underlay.dist(s, v);
  }
  std::vector<std::uint64_t> score(n, 0);
  std::vector<double> bound(n);
  for (topo::NodeId s = 0; s < n; ++s) {
    const double* const from_s = from.data() + s * n;
    for (topo::NodeId t = 0; t < n; ++t) {
      const double dst = from_s[t];
      bound[t] = t != s && dst < SrUnderlay::kInf ? dst + sr_eps(dst)
                                                  : -SrUnderlay::kInf;
    }
    for (topo::NodeId v = 0; v < n; ++v) {
      const double* const from_v = from.data() + v * n;
      std::uint64_t count = 0;
      for (std::size_t t = 0; t < n; ++t) {
        count += static_cast<std::uint64_t>(from_s[v] + from_v[t] <= bound[t]);
      }
      score[v] += count;
    }
    for (topo::NodeId t = 0; t < n; ++t) {
      if (bound[t] == -SrUnderlay::kInf) continue;
      --score[s];
      --score[t];
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

namespace {

// A candidate node-segment stack held inline (no heap block) with its
// underlay cost.
struct Stack {
  double cost = 0.0;
  std::uint32_t size = 0;
  std::array<topo::NodeId, SrOptions::max_segments> seg{};

  const topo::NodeId* begin() const { return seg.data(); }
  const topo::NodeId* end() const { return seg.data() + size; }
};

// The candidate order: (cost, #segments, lexicographic segments).
// Middlepoints are distinct, so no two stacks of one pair tie.
bool stack_before(const Stack& a, const Stack& b) {
  if (a.cost != b.cost) return a.cost < b.cost;
  if (a.size != b.size) return a.size < b.size;
  return std::lexicographical_compare(a.begin(), a.end(), b.begin(), b.end());
}

// Every stack one pair can list before the cap: the direct route, the
// single middlepoints, and the ordered middlepoint pairs.
constexpr std::size_t kMaxListed =
    1 + SrOptions::num_middlepoints +
    SrOptions::pair_middlepoints * (SrOptions::pair_middlepoints - 1);
using StackList = std::array<Stack, kMaxListed>;

// Lists src -> dst's candidates into `out` in candidate order and returns
// how many were kept (at most max_candidates).
std::size_t list_candidates(const SrUnderlay& underlay, topo::NodeId src,
                            topo::NodeId dst,
                            const std::vector<topo::NodeId>& middlepoints,
                            StackList& out) {
  if (src == dst) return 0;
  std::size_t count = 0;
  const auto leg = [&](topo::NodeId a, topo::NodeId b) {
    return underlay.dist(a, b);
  };
  if (underlay.reachable(src, dst)) {
    out[count++] = {leg(src, dst), 1, {dst}};
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
    out[count++] = {c, 2, {m, dst}};
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
      out[count++] = {c, 3, {m1, m2, dst}};
    }
  }
  std::sort(out.begin(), out.begin() + count, stack_before);
  return std::min(count, SrOptions::max_candidates);
}

// A run of one flat per-solve arena.
struct Run {
  std::uint32_t off = 0;
  std::uint32_t len = 0;
};

// One concrete path (a run of an arena's links) and its split fraction.
struct FracPath {
  Run links;
  double frac = 1.0;
};

// Expands segment routes over one view into flat arenas. Each (at,
// target) leg's ECMP enumeration is a pure function of the view, so it is
// computed on first use and kept for the expander's lifetime: every route
// sharing a leg reads the same runs. The solver keeps one expander per
// solve; expand_segment_route uses a throwaway one.
//
// Arenas only grow, so runs stay valid; pointers into them do not survive
// a call that appends.
class SegmentExpander {
 public:
  SegmentExpander(const topo::Topology& topo, const SrUnderlay& underlay)
      : topo_(topo),
        underlay_(underlay),
        leg_of_(underlay.num_nodes() * underlay.num_nodes(), kNoLeg),
        seen_(underlay.num_nodes(), 0) {}

  // Appends the loop-free expansions of `segments` from `src` to paths()
  // (frac = split fraction, summing to 1) and returns their run; len 0
  // when no loop-free expansion exists.
  Run expand(topo::NodeId src, const topo::NodeId* segments,
             std::size_t num_segments);

  const FracPath& path(std::uint32_t i) const { return exp_[i]; }
  const topo::LinkId* links(Run r) const { return exp_links_.data() + r.off; }
  std::size_t legs_enumerated() const { return legs_.size(); }

 private:
  static constexpr std::uint32_t kNoLeg = 0xffffffffu;

  Run leg(topo::NodeId at, topo::NodeId target);
  void dfs(topo::NodeId u, double frac);
  // True when the walk from src over `links`, a run of combo_links_,
  // revisits no node.
  bool loop_free(topo::NodeId src, Run links);

  const topo::Topology& topo_;
  const SrUnderlay& underlay_;
  // Leg enumerations: leg_of_[at * n + target] indexes legs_, whose runs
  // index leg_paths_, whose runs index leg_links_.
  std::vector<std::uint32_t> leg_of_;
  std::vector<Run> legs_;
  std::vector<FracPath> leg_paths_;
  std::vector<topo::LinkId> leg_links_;
  // DFS state of the leg being enumerated: its target, first path, the
  // links walked so far, and each level's ECMP members back to back.
  topo::NodeId dfs_target_ = 0;
  std::size_t dfs_first_ = 0;
  std::vector<topo::LinkId> dfs_links_;
  std::vector<topo::LinkId> members_;
  // Cross-product scratch: the combinations so far and the next ones.
  std::vector<FracPath> combos_, next_;
  std::vector<topo::LinkId> combo_links_, next_links_;
  // Kept expansions of every route expanded so far.
  std::vector<FracPath> exp_;
  std::vector<topo::LinkId> exp_links_;
  // Node stamps of the loop check.
  std::vector<std::uint32_t> seen_;
  std::uint32_t stamp_ = 0;
};

Run SegmentExpander::leg(topo::NodeId at, topo::NodeId target) {
  std::uint32_t& slot = leg_of_[at * underlay_.num_nodes() + target];
  if (slot != kNoLeg) return legs_[slot];
  // DFS over the ECMP DAG from at to target, members in link-id order,
  // frac = product of per-node uniform splits; capped + renormalized.
  const auto off = static_cast<std::uint32_t>(leg_paths_.size());
  if (at == target) {
    leg_paths_.push_back(
        {{static_cast<std::uint32_t>(leg_links_.size()), 0}, 1.0});
  } else {
    dfs_target_ = target;
    dfs_first_ = off;
    dfs(at, 1.0);
  }
  double total = 0.0;
  for (std::size_t i = off; i < leg_paths_.size(); ++i)
    total += leg_paths_[i].frac;
  if (total > 0.0) {
    for (std::size_t i = off; i < leg_paths_.size(); ++i)
      leg_paths_[i].frac /= total;
  }
  slot = static_cast<std::uint32_t>(legs_.size());
  legs_.push_back(
      {off, static_cast<std::uint32_t>(leg_paths_.size() - off)});
  return legs_.back();
}

void SegmentExpander::dfs(topo::NodeId u, double frac) {
  const auto full = [&] {
    return leg_paths_.size() - dfs_first_ >= SrOptions::max_paths_per_segment;
  };
  if (full()) return;
  if (u == dfs_target_) {
    leg_paths_.push_back({{static_cast<std::uint32_t>(leg_links_.size()),
                           static_cast<std::uint32_t>(dfs_links_.size())},
                          frac});
    leg_links_.insert(leg_links_.end(), dfs_links_.begin(), dfs_links_.end());
    return;
  }
  // This level's members sit past every outer level's; deeper levels
  // append and truncate back, so they are read by index.
  const std::size_t first = members_.size();
  underlay_.ecmp_members(topo_, u, dfs_target_, members_);
  const std::size_t count = members_.size() - first;
  if (count == 0) return;  // partitioned mid-DFS view: dead end
  const double split = frac / static_cast<double>(count);
  for (std::size_t i = first; i < first + count && !full(); ++i) {
    const topo::LinkId lid = members_[i];
    dfs_links_.push_back(lid);
    dfs(topo_.link(lid).dst, split);
    dfs_links_.pop_back();
  }
  members_.resize(first);
}

bool SegmentExpander::loop_free(topo::NodeId src, Run links) {
  if (++stamp_ == 0) {  // stamp wrap: one full clear every 2^32 checks
    std::fill(seen_.begin(), seen_.end(), 0u);
    stamp_ = 1;
  }
  seen_[src] = stamp_;
  for (std::uint32_t i = links.off; i < links.off + links.len; ++i) {
    const topo::NodeId nxt = topo_.link(combo_links_[i]).dst;
    if (seen_[nxt] == stamp_) return false;
    seen_[nxt] = stamp_;
  }
  return true;
}

Run SegmentExpander::expand(topo::NodeId src, const topo::NodeId* segments,
                            std::size_t num_segments) {
  // Per-segment enumeration, then a capped cross-product concatenation.
  constexpr std::size_t kCap = SrOptions::max_expansions_per_route;
  const auto off = static_cast<std::uint32_t>(exp_.size());
  combos_.assign(1, FracPath{});
  combo_links_.clear();
  topo::NodeId at = src;
  for (std::size_t s = 0; s < num_segments; ++s) {
    const Run seg_paths = leg(at, segments[s]);
    if (seg_paths.len == 0) return {off, 0};
    next_.clear();
    next_links_.clear();
    for (const FracPath& c : combos_) {
      for (std::uint32_t p = seg_paths.off;
           p < seg_paths.off + seg_paths.len && next_.size() < kCap; ++p) {
        const FracPath& sp = leg_paths_[p];
        const auto joined_off = static_cast<std::uint32_t>(next_links_.size());
        next_links_.insert(next_links_.end(),
                           combo_links_.begin() + c.links.off,
                           combo_links_.begin() + c.links.off + c.links.len);
        next_links_.insert(next_links_.end(),
                           leg_links_.begin() + sp.links.off,
                           leg_links_.begin() + sp.links.off + sp.links.len);
        next_.push_back({{joined_off, c.links.len + sp.links.len},
                         c.frac * sp.frac});
      }
      if (next_.size() >= kCap) break;
    }
    combos_.swap(next_);
    combo_links_.swap(next_links_);
    at = segments[s];
  }

  // Drop concatenations that revisit a node -- Path feasibility (and the
  // dataplane hop bound) requires loop-freedom -- and renormalize.
  const std::size_t links_off = exp_links_.size();
  double total = 0.0;
  for (const FracPath& c : combos_) {
    if (c.links.len == 0 || !loop_free(src, c.links)) continue;
    exp_.push_back(
        {{static_cast<std::uint32_t>(exp_links_.size()), c.links.len},
         c.frac});
    exp_links_.insert(exp_links_.end(), combo_links_.begin() + c.links.off,
                      combo_links_.begin() + c.links.off + c.links.len);
    total += c.frac;
  }
  if (total <= 0.0) {
    exp_.resize(off);
    exp_links_.resize(links_off);
    return {off, 0};
  }
  for (std::size_t i = off; i < exp_.size(); ++i) exp_[i].frac /= total;
  return {off, static_cast<std::uint32_t>(exp_.size() - off)};
}

}  // namespace

std::vector<SegmentRoute> segment_route_candidates(
    const SrUnderlay& underlay, topo::NodeId src, topo::NodeId dst,
    const std::vector<topo::NodeId>& middlepoints) {
  StackList listed;
  const std::size_t count =
      list_candidates(underlay, src, dst, middlepoints, listed);
  std::vector<SegmentRoute> routes(count);
  for (std::size_t i = 0; i < count; ++i) {
    routes[i].segments.assign(listed[i].begin(), listed[i].end());
    routes[i].cost = listed[i].cost;
  }
  return routes;
}

std::vector<WeightedPath> expand_segment_route(
    const topo::Topology& topo, const SrUnderlay& underlay, topo::NodeId src,
    const std::vector<topo::NodeId>& segments) {
  SegmentExpander expander(topo, underlay);
  const Run run = expander.expand(src, segments.data(), segments.size());
  std::vector<WeightedPath> out(run.len);
  for (std::uint32_t i = 0; i < run.len; ++i) {
    const FracPath& p = expander.path(run.off + i);
    const topo::LinkId* links = expander.links(p.links);
    out[i].path.links.assign(links, links + p.links.len);
    out[i].weight = p.frac;
    out[i].segments = segments;
  }
  return out;
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

  // Per-candidate placement state: the run of its ECMP expansions and the
  // run of per-link charge fractions they imply (sum of the fracs of
  // expansions crossing the link). Granting g Gbps deducts g*frac from
  // each touched link, and the same products become the output weights --
  // so conservation is exact by construction. Both are pure functions of
  // (src, segments), so one (src, dst) pair's candidates are shared by its
  // demands in every priority class, and a candidate is expanded only when
  // the waterfill first evaluates it.
  struct Candidate {
    Stack stack;
    bool expanded = false;
    Run expansions;  // into the expander's paths, frac sums to 1
    Run link_frac;   // into link_frac
  };
  struct DemandState {
    std::size_t index = 0;
    double rate = 0.0;
    double remaining = 0.0;
    bool active = false;
    Run candidates;  // the pair's, cost order
    // Gbps granted, by candidate index; candidates never granted hold 0.
    std::array<double, SrOptions::max_candidates> mass{};
  };

  const std::size_t n = topo.num_nodes();
  SegmentExpander expander(topo, underlay);
  // pair_of[src * n + dst] indexes pairs: the run of that pair's
  // candidates in `candidates`.
  constexpr std::uint32_t kNoPair = 0xffffffffu;
  std::vector<std::uint32_t> pair_of(n * n, kNoPair);
  std::vector<Run> pairs;
  std::vector<Candidate> candidates;
  std::vector<std::pair<topo::LinkId, double>> link_frac;
  std::size_t rounds = 0, frozen = 0, expanded = 0;
  // Dense per-link accumulator, all zero between expansions; `touched`
  // lists the links to read back and reset.
  std::vector<double> frac(topo.num_links(), 0.0);
  std::vector<topo::LinkId> touched;

  const auto candidates_of = [&](topo::NodeId src, topo::NodeId dst) {
    std::uint32_t& slot = pair_of[src * n + dst];
    if (slot == kNoPair) {
      StackList listed;
      const std::size_t count =
          list_candidates(underlay, src, dst, middlepoints, listed);
      slot = static_cast<std::uint32_t>(pairs.size());
      pairs.push_back({static_cast<std::uint32_t>(candidates.size()),
                       static_cast<std::uint32_t>(count)});
      for (std::size_t i = 0; i < count; ++i)
        candidates.emplace_back().stack = listed[i];
    }
    return pairs[slot];
  };
  // Expands on first use; true when the candidate has a loop-free
  // expansion (the only ones the waterfill may charge).
  const auto usable = [&](topo::NodeId src, Candidate& cand) {
    if (!cand.expanded) {
      cand.expanded = true;
      ++expanded;
      cand.expansions =
          expander.expand(src, cand.stack.seg.data(), cand.stack.size);
      // Same summation order as a dense per-candidate vector: expansions
      // in order, links in path order. A link may be listed twice if a
      // weight is 0; the second read finds it reset and skips it.
      for (std::uint32_t e = 0; e < cand.expansions.len; ++e) {
        const FracPath& p = expander.path(cand.expansions.off + e);
        const topo::LinkId* links = expander.links(p.links);
        for (std::uint32_t i = 0; i < p.links.len; ++i) {
          const topo::LinkId l = links[i];
          if (frac[l] == 0.0) touched.push_back(l);
          frac[l] += p.frac;
        }
      }
      std::sort(touched.begin(), touched.end());
      cand.link_frac.off = static_cast<std::uint32_t>(link_frac.size());
      for (topo::LinkId l : touched) {
        if (frac[l] > 0.0) link_frac.push_back({l, frac[l]});
        frac[l] = 0.0;
      }
      cand.link_frac.len =
          static_cast<std::uint32_t>(link_frac.size() - cand.link_frac.off);
      touched.clear();
    }
    return cand.expansions.len != 0;
  };

  for (int cls = 0; cls < metrics::kNumPriorityClasses; ++cls) {
    std::vector<DemandState> states;
    for (std::size_t i = 0; i < demands.size(); ++i) {
      const traffic::Demand& d = demands[i];
      if (static_cast<int>(d.priority) != cls) continue;
      if (d.rate_gbps <= detail::kEpsilonGbps) continue;
      DemandState& st = states.emplace_back();
      st.index = i;
      st.rate = d.rate_gbps;
      st.remaining = d.rate_gbps;
      st.candidates = candidates_of(d.src, d.dst);
      // Active iff some candidate has a loop-free expansion: expanding in
      // cost order up to the first one decides it.
      for (std::uint32_t k = 0; k < st.candidates.len; ++k) {
        if (usable(d.src, candidates[st.candidates.off + k])) {
          st.active = true;
          break;
        }
      }
      if (!st.active) ++frozen;
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
      const double quantum =
          detail::round_quantum(SolverOptions{}, max_remaining);
      bool progressed = false;
      for (DemandState& st : states) {
        if (!st.active) continue;
        const topo::NodeId src = demands[st.index].src;
        const double sliver = detail::sliver_threshold(quantum, st.remaining);
        Candidate* const cands = candidates.data() + st.candidates.off;
        std::uint32_t chosen = st.candidates.len;
        double grant = 0.0;
        // First candidate (cost order) able to carry a meaningful sliver
        // of this round's quantum wins -- shortest-first, like the strict
        // solver's preferred-path step.
        for (std::uint32_t k = 0; k < st.candidates.len; ++k) {
          if (!usable(src, cands[k])) continue;
          double g = std::min(quantum, st.remaining);
          const Run lf = cands[k].link_frac;
          for (std::uint32_t i = lf.off; i < lf.off + lf.len; ++i) {
            const double cap = residual[link_frac[i].first] /
                               link_frac[i].second;
            if (cap < g) g = cap;
          }
          if (g > sliver) {
            chosen = k;
            grant = g;
            break;
          }
        }
        if (chosen == st.candidates.len) {
          st.active = false;  // frozen: no capacity-feasible candidate
          ++frozen;
          continue;
        }
        const Run lf = cands[chosen].link_frac;
        for (std::uint32_t i = lf.off; i < lf.off + lf.len; ++i) {
          const auto [l, f] = link_frac[i];
          residual[l] = std::max(0.0, residual[l] - grant * f);
        }
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

    for (const DemandState& st : states) {
      Allocation& a = sol.allocations[st.index];
      // Masses sum in candidate order; the zeros of candidates never
      // granted leave the sum's bits unchanged.
      double total = 0.0;
      for (double m : st.mass) total += m;
      a.allocated_gbps = total;
      if (total <= detail::kEpsilonGbps) {
        a.allocated_gbps = 0.0;
        continue;
      }
      for (std::uint32_t k = 0; k < st.candidates.len; ++k) {
        if (st.mass[k] <= 0.0) continue;
        const Candidate& cand = candidates[st.candidates.off + k];
        for (std::uint32_t e = 0; e < cand.expansions.len; ++e) {
          const FracPath& p = expander.path(cand.expansions.off + e);
          const topo::LinkId* links = expander.links(p.links);
          WeightedPath& placed = a.paths.emplace_back();
          placed.path.links.assign(links, links + p.links.len);
          placed.weight = st.mass[k] * p.frac / total;
          placed.segments.assign(cand.stack.begin(), cand.stack.end());
        }
      }
    }
  }

  m_solves.inc();
  m_rounds.add(rounds);
  m_frozen.add(frozen);
  m_legs.add(expander.legs_enumerated());
  m_considered.add(candidates.size());
  m_expanded.add(expanded);
  return sol;
}

}  // namespace dsdn::te
