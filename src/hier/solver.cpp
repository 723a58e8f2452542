#include "hier/solver.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <limits>
#include <map>
#include <tuple>
#include <unordered_map>
#include <utility>

#include "obs/metrics.hpp"
#include "te/parallel_solver.hpp"

namespace dsdn::hier {
namespace {

using Clock = std::chrono::steady_clock;

double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

constexpr double kEps = 1e-9;

// One aggregated (from, to, class) row inside a region's segment solve.
// Keyed (from << 32 | to) per class: row indices are assigned in demand
// iteration order, so hash-map iteration order never matters.
struct RegionWork {
  std::unordered_map<std::uint64_t, std::size_t>
      rows[metrics::kNumPriorityClasses];
  std::vector<traffic::Demand> demands;
};

// Registers `rate` against the region's (from, to, class) row, creating it
// on first use. Returns the row index; kTrivialRow when from == to (no
// interior traversal needed).
constexpr std::size_t kTrivialRow = std::numeric_limits<std::size_t>::max();

std::size_t add_segment(RegionWork& w, topo::NodeId from, topo::NodeId to,
                        metrics::PriorityClass cls, double rate) {
  if (from == to) return kTrivialRow;
  const std::uint64_t key = (static_cast<std::uint64_t>(from) << 32) | to;
  auto [it, inserted] =
      w.rows[static_cast<int>(cls)].emplace(key, w.demands.size());
  if (inserted) {
    w.demands.push_back({from, to, cls, 0.0});
  }
  w.demands[it->second].rate_gbps += rate;
  return it->second;
}

// Normalizes an allocation's weighted paths in place (weights sum to 1).
void normalize_paths(te::Allocation& a) {
  double sum = 0.0;
  for (const te::WeightedPath& wp : a.paths) sum += wp.weight;
  if (sum > kEps) {
    for (te::WeightedPath& wp : a.paths) wp.weight /= sum;
  }
}

// Zips per-segment weighted splits into end-to-end weighted paths by
// aligning cumulative-weight intervals: for every interval of [0, 1) where
// each segment's active path is constant, emit the concatenation
// seg0 + member0 + seg1 + member1 + ... with weight = interval width. The
// per-link load of the result matches each segment's intended split
// exactly, and the path count is bounded by the *sum* of the segments'
// path counts, not their product.
//
// `segments[i] == nullptr` marks a trivial (from == to) segment. Appends
// into `out` (cleared first); the caller reuses the buffer across calls.
void zip_segments(
    const std::vector<const std::vector<te::WeightedPath>*>& segments,
    const std::vector<topo::LinkId>& member_links,
    std::vector<te::WeightedPath>& out) {
  std::vector<std::size_t> idx(segments.size(), 0);
  std::vector<double> cum(segments.size(),
                          std::numeric_limits<double>::infinity());
  for (std::size_t s = 0; s < segments.size(); ++s) {
    if (segments[s] && !segments[s]->empty()) {
      cum[s] = (*segments[s])[0].weight;
    }
  }
  out.clear();
  double pos = 0.0;
  while (pos < 1.0 - 1e-7) {
    double end = 1.0;
    for (std::size_t s = 0; s < segments.size(); ++s) {
      end = std::min(end, cum[s]);
    }
    double width = end - pos;
    if (width > 1e-7) {
      te::WeightedPath wp;
      wp.weight = width;
      for (std::size_t s = 0; s < segments.size(); ++s) {
        if (segments[s] && idx[s] < segments[s]->size()) {
          const te::Path& p = (*segments[s])[idx[s]].path;
          wp.path.links.insert(wp.path.links.end(), p.links.begin(),
                               p.links.end());
        }
        if (s + 1 < segments.size()) {
          wp.path.links.push_back(member_links[s]);
        }
      }
      out.push_back(std::move(wp));
    }
    for (std::size_t s = 0; s < segments.size(); ++s) {
      if (!segments[s]) continue;
      if (cum[s] <= end + 1e-9 && idx[s] + 1 <= segments[s]->size()) {
        ++idx[s];
        cum[s] = idx[s] < segments[s]->size()
                     ? cum[s] + (*segments[s])[idx[s]].weight
                     : std::numeric_limits<double>::infinity();
      }
    }
    if (end <= pos + 1e-12) break;  // no forward progress (defensive)
    pos = end;
  }
}

}  // namespace

Hierarchy build_hierarchy(const topo::Topology& topo,
                          const PartitionOptions& options) {
  Hierarchy h;
  h.partition = partition_regions(topo, options);
  h.logical = build_logical(topo, h.partition);
  return h;
}

te::Solution solve_hierarchical(const topo::Topology& topo,
                                const traffic::TrafficMatrix& tm,
                                const Hierarchy& hierarchy,
                                const HierOptions& options,
                                HierSolveStats* stats) {
  auto t_start = Clock::now();
  const RegionPartition& part = hierarchy.partition;
  const LogicalTopology& logical = hierarchy.logical;
  std::size_t n_regions = part.n_regions;

  HierSolveStats local_stats;
  HierSolveStats& st = stats ? *stats : local_stats;
  st = {};
  st.n_regions = n_regions;

  te::Solution out;
  out.allocations.resize(tm.size());
  for (std::size_t i = 0; i < tm.size(); ++i) {
    out.allocations[i].demand = tm.demands()[i];
  }
  if (tm.empty() || n_regions == 0) return out;

  // Border -> index within its region's LogicalNode, for transit lookups.
  std::vector<std::unordered_map<topo::NodeId, std::size_t>> border_index(
      n_regions);
  for (std::size_t r = 0; r < n_regions; ++r) {
    const LogicalNode& ln = logical.nodes[r];
    for (std::size_t i = 0; i < ln.borders.size(); ++i) {
      border_index[r].emplace(ln.borders[i], i);
    }
  }

  // ---- 1. Split demands: intra-region rows go straight to their region;
  // inter-region rows aggregate by (src region, dst region, class) into
  // the logical traffic matrix.
  struct Group {
    std::uint32_t r_src = 0, r_dst = 0;
    double rate = 0.0;
    std::vector<std::size_t> demand_rows;  // original tm indices
  };
  // Keyed ((r_src << 32 | r_dst) * kNumPriorityClasses + class); group
  // order is demand iteration order, independent of the hash map.
  std::unordered_map<std::uint64_t, std::size_t> group_index;
  std::vector<Group> groups;
  std::vector<traffic::Demand> logical_rows;
  std::vector<RegionWork> region_work(n_regions);
  // Per original demand: the group it joined, or its intra-region row.
  struct DemandRef {
    bool intra = false;
    std::size_t group = 0;       // when !intra
    std::size_t intra_row = 0;   // when intra (kTrivialRow for src == dst)
  };
  std::vector<DemandRef> refs(tm.size());

  for (std::size_t i = 0; i < tm.size(); ++i) {
    const traffic::Demand& d = tm.demands()[i];
    std::uint32_t rs = part.region_of[d.src];
    std::uint32_t rd = part.region_of[d.dst];
    if (rs == rd) {
      refs[i].intra = true;
      refs[i].intra_row =
          add_segment(region_work[rs], d.src, d.dst, d.priority, d.rate_gbps);
    } else {
      const std::uint64_t key =
          ((static_cast<std::uint64_t>(rs) << 32) | rd) *
              metrics::kNumPriorityClasses +
          static_cast<int>(d.priority);
      auto [it, inserted] = group_index.emplace(key, groups.size());
      if (inserted) {
        groups.push_back({rs, rd, 0.0, {}});
        logical_rows.push_back({rs, rd, d.priority, 0.0});
      }
      Group& g = groups[it->second];
      g.rate += d.rate_gbps;
      g.demand_rows.push_back(i);
      logical_rows[it->second].rate_gbps += d.rate_gbps;
      refs[i].group = it->second;
    }
  }
  st.logical_demands = logical_rows.size();

  // ---- 2. Top-level solve over the logical graph.
  auto t_top = Clock::now();
  traffic::TrafficMatrix logical_tm(logical_rows);
  te::SolverOptions top_options = options.top;
  te::Solution top = te::Solver(top_options).solve(logical.graph, logical_tm);
  st.top_solve_s = since(t_top);

  // ---- 3. Expand logical paths: pick one concrete member link per
  // logical hop (greedy on spare capacity, informed by the next region's
  // border-to-border transit matrix so we never enter a region at a border
  // that cannot reach the required exit), and register the induced
  // border-to-border transit segments.
  struct Expansion {
    double group_rate = 0.0;  // group rate carried by this logical path
    std::vector<topo::LinkId> member;        // one per logical hop
    std::vector<std::size_t> transit_rows;   // per transit region
    std::vector<std::uint32_t> transit_regions;
  };
  // expansions[g] parallels top.allocations[g].paths.
  std::vector<std::vector<Expansion>> expansions(groups.size());
  std::vector<double> placed(topo.num_links(), 0.0);

  for (std::size_t g = 0; g < groups.size(); ++g) {
    const te::Allocation& ta = top.allocations[g];
    if (ta.allocated_gbps <= kEps) continue;
    expansions[g].reserve(ta.paths.size());
    for (const te::WeightedPath& lp : ta.paths) {
      Expansion ex;
      ex.group_rate = ta.allocated_gbps * lp.weight;
      if (ex.group_rate <= kEps || lp.path.empty()) continue;
      ex.member.reserve(lp.path.links.size());
      bool expandable = true;
      for (std::size_t h = 0; h < lp.path.links.size(); ++h) {
        topo::LinkId llid = lp.path.links[h];
        const std::vector<topo::LinkId>& candidates = logical.members[llid];
        const std::vector<topo::LinkId>* next =
            h + 1 < lp.path.links.size()
                ? &logical.members[lp.path.links[h + 1]]
                : nullptr;
        topo::LinkId best = topo::kInvalidLink;
        double best_score = -std::numeric_limits<double>::infinity();
        for (topo::LinkId cand : candidates) {
          const topo::Link& cl = topo.link(cand);
          double spare = cl.capacity_gbps - placed[cand];
          double score = spare;
          if (next) {
            // Entering region_of[cl.dst]; can this entry border reach any
            // usable exit border of the next hop?
            std::uint32_t reg = part.region_of[cl.dst];
            const LogicalNode& ln = logical.nodes[reg];
            std::size_t bi = border_index[reg].at(cl.dst);
            double t = 0.0;
            for (topo::LinkId m2 : *next) {
              std::size_t bj = border_index[reg].at(topo.link(m2).src);
              t = std::max(t, ln.transit(bi, bj));
            }
            score = std::min(spare, t);
          }
          if (score > best_score) {
            best_score = score;
            best = cand;
          }
        }
        if (best == topo::kInvalidLink) {
          expandable = false;
          break;
        }
        placed[best] += ex.group_rate;
        ex.member.push_back(best);
      }
      if (!expandable) continue;
      // Transit segments between consecutive member links.
      for (std::size_t h = 0; h + 1 < ex.member.size(); ++h) {
        topo::NodeId entry = topo.link(ex.member[h]).dst;
        topo::NodeId exit = topo.link(ex.member[h + 1]).src;
        std::uint32_t reg = part.region_of[entry];
        ex.transit_regions.push_back(reg);
        ex.transit_rows.push_back(add_segment(region_work[reg], entry, exit,
                                              ta.demand.priority,
                                              ex.group_rate));
      }
      expansions[g].push_back(std::move(ex));
    }
  }

  // First/last segments are per original demand (the group aggregates
  // distinct source/destination routers within a region pair).
  // first_last[i][j] = rows for demand i on its group's j-th expansion.
  std::vector<std::vector<std::pair<std::size_t, std::size_t>>> first_last(
      tm.size());
  for (std::size_t g = 0; g < groups.size(); ++g) {
    const Group& grp = groups[g];
    if (expansions[g].empty() || grp.rate <= kEps) continue;
    for (std::size_t row : grp.demand_rows) {
      const traffic::Demand& d = tm.demands()[row];
      double share = d.rate_gbps / grp.rate;
      first_last[row].reserve(expansions[g].size());
      for (const Expansion& ex : expansions[g]) {
        double rate = ex.group_rate * share;
        topo::NodeId first_border = topo.link(ex.member.front()).src;
        topo::NodeId last_border = topo.link(ex.member.back()).dst;
        std::size_t fr = add_segment(region_work[grp.r_src], d.src,
                                     first_border, d.priority, rate);
        std::size_t lr = add_segment(region_work[grp.r_dst], last_border,
                                     d.dst, d.priority, rate);
        first_last[row].push_back({fr, lr});
      }
    }
  }
  for (const RegionWork& w : region_work) st.segment_demands += w.demands.size();

  // ---- 4. Per-region solves, parallel across regions. Each region is
  // extracted into a dense subtopology (up intra-region links only) so the
  // solver's per-round costs scale with the region, not the WAN -- the
  // batch solver scans the whole edge array it is handed every round, so
  // a residual-override over the full graph would forfeit the O(regions)
  // decomposition this subsystem exists for. Paths translate back through
  // the local -> global link map.
  auto t_regions = Clock::now();
  std::vector<te::Solution> region_solutions(n_regions);
  std::vector<topo::NodeId> to_local(topo.num_nodes(), topo::kInvalidNode);
  for (std::size_t r = 0; r < n_regions; ++r) {
    const auto& members = part.members[r];
    for (std::size_t i = 0; i < members.size(); ++i)
      to_local[members[i]] = static_cast<topo::NodeId>(i);
  }
  auto solve_region = [&](std::size_t r) {
    if (region_work[r].demands.empty()) return;
    topo::Topology sub;
    for (topo::NodeId n : part.members[r]) sub.add_node(topo.node(n).name);
    std::vector<topo::LinkId> to_global;
    for (const topo::Link& l : topo.links()) {
      if (!l.up || part.region_of[l.src] != r || part.region_of[l.dst] != r)
        continue;
      sub.add_link(to_local[l.src], to_local[l.dst], l.capacity_gbps,
                   l.igp_metric, l.delay_s);
      to_global.push_back(l.id);
    }
    std::vector<traffic::Demand> local = region_work[r].demands;
    for (traffic::Demand& d : local) {
      d.src = to_local[d.src];
      d.dst = to_local[d.dst];
    }
    te::Solution sol =
        te::Solver(options.region).solve(sub, traffic::TrafficMatrix(local));
    for (te::Allocation& a : sol.allocations) {
      for (te::WeightedPath& wp : a.paths) {
        for (topo::LinkId& l : wp.path.links) l = to_global[l];
      }
    }
    region_solutions[r] = std::move(sol);
  };
  if (options.pool) {
    options.pool->parallel_for(n_regions, solve_region);
  } else {
    for (std::size_t r = 0; r < n_regions; ++r) solve_region(r);
  }
  st.region_solve_s = since(t_regions);

  // Per-row delivered fraction and normalized split, reused by every
  // demand that shares the row. Paths are normalized in place inside the
  // region solutions; row_paths just points at them.
  static const std::vector<te::WeightedPath> kNoPaths;
  std::vector<std::vector<double>> row_fraction(n_regions);
  std::vector<std::vector<const std::vector<te::WeightedPath>*>> row_paths(
      n_regions);
  for (std::size_t r = 0; r < n_regions; ++r) {
    std::size_t n = region_work[r].demands.size();
    row_fraction[r].assign(n, 0.0);
    row_paths[r].assign(n, &kNoPaths);
    for (std::size_t s = 0; s < n; ++s) {
      te::Allocation& a = region_solutions[r].allocations[s];
      if (a.allocated_gbps <= kEps || a.demand.rate_gbps <= kEps) continue;
      row_fraction[r][s] =
          std::min(1.0, a.allocated_gbps / a.demand.rate_gbps);
      normalize_paths(a);
      row_paths[r][s] = &a.paths;
    }
  }

  // ---- 5. Stitch segments into end-to-end allocations.
  auto t_stitch = Clock::now();
  std::vector<const std::vector<te::WeightedPath>*> segs;
  std::vector<te::WeightedPath> zipped;
  std::vector<std::pair<std::vector<topo::LinkId>, double>> merged;
  for (std::size_t i = 0; i < tm.size(); ++i) {
    const traffic::Demand& d = tm.demands()[i];
    te::Allocation& alloc = out.allocations[i];
    if (refs[i].intra) {
      std::uint32_t r = part.region_of[d.src];
      std::size_t row = refs[i].intra_row;
      if (row == kTrivialRow) {
        // src == dst: degenerate, nothing to place.
        alloc.allocated_gbps = d.rate_gbps;
        continue;
      }
      alloc.allocated_gbps = d.rate_gbps * row_fraction[r][row];
      if (alloc.allocated_gbps > kEps) alloc.paths = *row_paths[r][row];
      continue;
    }
    const Group& grp = groups[refs[i].group];
    const std::vector<Expansion>& exs = expansions[refs[i].group];
    if (exs.empty() || grp.rate <= kEps) continue;
    double share = d.rate_gbps / grp.rate;
    // Merge duplicate concrete paths across logical-path expansions.
    // Counts are small (sum of segment path counts), so a linear scan
    // beats a tree map; first-appearance order is deterministic.
    merged.clear();
    double total = 0.0;
    for (std::size_t j = 0; j < exs.size(); ++j) {
      const Expansion& ex = exs[j];
      auto [first_row, last_row] = first_last[i][j];
      double frac = 1.0;
      segs.clear();
      auto push_seg = [&](std::uint32_t reg, std::size_t row) {
        if (row == kTrivialRow) {
          segs.push_back(nullptr);
        } else {
          frac = std::min(frac, row_fraction[reg][row]);
          segs.push_back(row_paths[reg][row]);
        }
      };
      push_seg(grp.r_src, first_row);
      for (std::size_t s = 0; s < ex.transit_rows.size(); ++s) {
        push_seg(ex.transit_regions[s], ex.transit_rows[s]);
      }
      push_seg(grp.r_dst, last_row);
      double rate = ex.group_rate * share * frac;
      if (rate <= kEps) continue;
      zip_segments(segs, ex.member, zipped);
      for (te::WeightedPath& wp : zipped) {
        const double add = rate * wp.weight;
        bool found = false;
        for (auto& [links, acc] : merged) {
          if (links == wp.path.links) {
            acc += add;
            found = true;
            break;
          }
        }
        if (!found) merged.emplace_back(std::move(wp.path.links), add);
      }
      total += rate;
    }
    if (total <= kEps) continue;
    alloc.allocated_gbps = total;
    alloc.paths.reserve(merged.size());
    for (auto& [links, rate] : merged) {
      alloc.paths.push_back({te::Path{std::move(links)}, rate / total, {}});
    }
  }
  st.stitch_s = since(t_stitch);

  // ---- 6. Settle pass: guarantee feasibility. Collapsed segment splits
  // and min-fraction stitching can leave a link oversubscribed; scale each
  // offending allocation down by its worst link's capacity ratio.
  if (options.settle) {
    std::vector<double> load(topo.num_links(), 0.0);
    for (const te::Allocation& a : out.allocations) {
      for (const te::WeightedPath& wp : a.paths) {
        double r = a.allocated_gbps * wp.weight;
        for (topo::LinkId l : wp.path.links) load[l] += r;
      }
    }
    std::vector<double> scale(topo.num_links(), 1.0);
    for (const topo::Link& l : topo.links()) {
      if (load[l.id] > l.capacity_gbps + kEps) {
        scale[l.id] = l.capacity_gbps / load[l.id];
      }
    }
    for (te::Allocation& a : out.allocations) {
      double factor = 1.0;
      for (const te::WeightedPath& wp : a.paths) {
        if (wp.weight <= kEps) continue;
        for (topo::LinkId l : wp.path.links) {
          factor = std::min(factor, scale[l]);
        }
      }
      if (factor < 1.0) {
        a.allocated_gbps *= factor;
        ++st.settle_scaled;
      }
    }
  }

  st.wall_time_s = since(t_start);
  static obs::Counter& c_solves =
      obs::Registry::global().counter("hier.solve.count");
  static obs::Counter& c_segments =
      obs::Registry::global().counter("hier.solve.segments");
  static obs::Counter& c_settled =
      obs::Registry::global().counter("hier.solve.settle_scaled");
  c_solves.add(1);
  c_segments.add(st.segment_demands);
  c_settled.add(st.settle_scaled);
  return out;
}

GapReport check_optimality_gap(const topo::Topology& topo,
                               const traffic::TrafficMatrix& tm,
                               const te::Solution& hier_solution,
                               const te::Solution& flat_solution,
                               const GapOptions& options) {
  GapReport report;
  char buf[256];
  auto fail = [&](const char* fmt, auto... args) {
    std::snprintf(buf, sizeof(buf), fmt, args...);
    report.violations.emplace_back(buf);
  };

  if (hier_solution.allocations.size() != tm.size()) {
    fail("allocation count %zu != demand count %zu",
         hier_solution.allocations.size(), tm.size());
    return report;
  }

  std::vector<double> load(topo.num_links(), 0.0);
  for (std::size_t i = 0; i < tm.size(); ++i) {
    const traffic::Demand& d = tm.demands()[i];
    const te::Allocation& a = hier_solution.allocations[i];
    if (!(a.demand == d)) {
      fail("allocation %zu demand mismatch (order not preserved)", i);
      continue;
    }
    if (a.allocated_gbps < -kEps ||
        a.allocated_gbps > d.rate_gbps * (1.0 + 1e-6) + kEps) {
      fail("allocation %zu rate %.6f outside [0, %.6f]", i, a.allocated_gbps,
           d.rate_gbps);
    }
    if (a.allocated_gbps <= kEps) continue;
    double wsum = 0.0;
    for (const te::WeightedPath& wp : a.paths) {
      wsum += wp.weight;
      if (wp.weight < -kEps) {
        fail("allocation %zu has negative path weight", i);
      }
      if (wp.path.empty()) {
        if (d.src != d.dst) fail("allocation %zu has empty path", i);
        continue;
      }
      if (!wp.path.is_valid(topo)) {
        fail("allocation %zu path invalid (broken chain, down link, or loop)",
             i);
        continue;
      }
      if (wp.path.src(topo) != d.src || wp.path.dst(topo) != d.dst) {
        fail("allocation %zu path endpoints do not match demand", i);
        continue;
      }
      for (topo::LinkId l : wp.path.links) {
        load[l] += a.allocated_gbps * wp.weight;
      }
    }
    if (d.src != d.dst && std::abs(wsum - 1.0) > 1e-4) {
      fail("allocation %zu path weights sum to %.6f (want 1)", i, wsum);
    }
  }
  for (const topo::Link& l : topo.links()) {
    if (load[l.id] > l.capacity_gbps + options.capacity_slack_gbps) {
      fail("link %u oversubscribed: load %.6f > capacity %.6f", l.id,
           load[l.id], l.capacity_gbps);
    }
  }

  report.hier_total_gbps = hier_solution.total_allocated_gbps();
  report.flat_total_gbps = flat_solution.total_allocated_gbps();
  if (report.flat_total_gbps > kEps) {
    report.gap_fraction =
        (report.flat_total_gbps - report.hier_total_gbps) /
        report.flat_total_gbps;
  }
  if (options.max_gap_fraction > 0.0 &&
      report.gap_fraction > options.max_gap_fraction) {
    fail("throughput gap %.4f exceeds bound %.4f", report.gap_fraction,
         options.max_gap_fraction);
  }
  return report;
}

}  // namespace dsdn::hier
