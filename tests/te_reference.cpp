#include "te_reference.hpp"

#include <algorithm>
#include <chrono>
#include <limits>
#include <map>

#include "te/dijkstra.hpp"
#include "te/thread_pool.hpp"

namespace dsdn::te {

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

struct ActiveDemand {
  std::size_t alloc_index;  // into Solution::allocations
  double remaining_gbps;
  double satisfied_below;  // freeze threshold (tolerance * original rate)
  // Per-round chosen path (empty = none found this round).
  Path round_path;
  // The min_residual the round path was searched with; a smaller
  // bottleneck at grant time means earlier demands drained it.
  double search_min_residual;
};

}  // namespace

Solution ReferenceSolver::solve(
    const topo::Topology& topo, const traffic::TrafficMatrix& tm,
    SolveStats* stats, const std::vector<double>* residual_override) const {
  SolveStats local_stats;

  Solution solution;
  solution.allocations.reserve(tm.size());
  for (const traffic::Demand& d : tm.demands()) {
    Allocation a;
    a.demand = d;
    solution.allocations.push_back(std::move(a));
  }

  std::vector<double> residual;
  if (residual_override) {
    residual = *residual_override;
  } else {
    residual.resize(topo.num_links());
    for (std::size_t l = 0; l < topo.num_links(); ++l)
      residual[l] = topo.link(static_cast<topo::LinkId>(l)).capacity_gbps;
  }
  // A down link contributes no capacity -- also when the caller seeded
  // residuals (an override computed before the link failed may carry
  // leftover headroom the allocator must never hand out).
  for (std::size_t l = 0; l < topo.num_links(); ++l) {
    if (!topo.link(static_cast<topo::LinkId>(l)).up) residual[l] = 0.0;
  }

  const ThreadPool serial(1);
  const ThreadPool& pool = options_.pool ? *options_.pool : serial;

  const auto t_start = Clock::now();

  // Accumulates (path -> rate) per allocation; converted to weights at
  // the end.
  std::vector<std::map<std::vector<topo::LinkId>, double>> placed(
      solution.allocations.size());

  // Strict priority: satisfy higher classes before lower ones.
  for (int cls = 0; cls < metrics::kNumPriorityClasses; ++cls) {
    std::vector<ActiveDemand> active;
    for (std::size_t i = 0; i < solution.allocations.size(); ++i) {
      const auto& d = solution.allocations[i].demand;
      if (static_cast<int>(d.priority) == cls &&
          d.rate_gbps > detail::kEpsilonGbps) {
        active.push_back(
            {i, d.rate_gbps,
             std::max(detail::kEpsilonGbps,
                      detail::kSatisfiedTolerance * d.rate_gbps),
             {},
             0.0});
      }
    }

    std::size_t round = 0;
    while (!active.empty() && round < detail::kMaxRounds) {
      ++round;
      ++local_stats.rounds;

      // Quantum for this round: a fraction of the largest remaining
      // demand; geometric shrink gives log-round convergence while
      // approximating progressive filling.
      double max_remaining = 0.0;
      for (const ActiveDemand& ad : active)
        max_remaining = std::max(max_remaining, ad.remaining_gbps);
      const double quantum = detail::round_quantum(options_, max_remaining);

      // ---- Step 1: data-parallel path search ----
      const auto t_search = Clock::now();
      pool.parallel_for(active.size(), [&](std::size_t i) {
        ActiveDemand& ad = active[i];
        const auto& d = solution.allocations[ad.alloc_index].demand;
        SpConstraints c;
        c.residual_gbps = &residual;
        // Require room for at least a sliver of this round's grant so
        // we don't select paths we cannot use.
        c.min_residual = detail::sliver_threshold(quantum, ad.remaining_gbps);
        std::optional<Path> p = shortest_path(topo, d.src, d.dst, c);
        ad.round_path = p ? std::move(*p) : Path{};
        ad.search_min_residual = c.min_residual;
      });
      local_stats.path_searches += active.size();
      local_stats.path_search_time_s += seconds_since(t_search);

      // ---- Step 2: serialized fair allocation ----
      const auto t_alloc = Clock::now();
      std::vector<ActiveDemand> next_active;
      next_active.reserve(active.size());
      for (ActiveDemand& ad : active) {
        Allocation& alloc = solution.allocations[ad.alloc_index];
        if (ad.round_path.empty()) {
          // No feasible path: freeze (possibly partially filled).
          ++local_stats.frozen_no_path;
          continue;
        }
        // Grant: at most the quantum, the remaining demand, and the
        // path's bottleneck residual.
        double bottleneck = std::numeric_limits<double>::infinity();
        for (topo::LinkId l : ad.round_path.links)
          bottleneck = std::min(bottleneck, residual[l]);
        // Earlier demands in this serialized loop may have drained the
        // path below the residual floor it was searched with. Granting
        // the sub-sliver remainder would leave the demand spinning on an
        // infeasible path until kMaxRounds; re-search against current
        // residuals instead, and freeze if nothing is left.
        if (bottleneck < ad.search_min_residual) {
          SpConstraints c;
          c.residual_gbps = &residual;
          c.min_residual = ad.search_min_residual;
          const auto& d = alloc.demand;
          std::optional<Path> p = shortest_path(topo, d.src, d.dst, c);
          ++local_stats.path_searches;
          if (!p) {
            ++local_stats.frozen_no_path;
            continue;
          }
          ad.round_path = std::move(*p);
          bottleneck = std::numeric_limits<double>::infinity();
          for (topo::LinkId l : ad.round_path.links)
            bottleneck = std::min(bottleneck, residual[l]);
        }
        double grant = std::min({quantum, ad.remaining_gbps, bottleneck});
        // Top off: when the remainder after this grant would fall under
        // the satisfaction tolerance and the path has room, finish the
        // demand exactly rather than leaving a sliver unserved.
        if (ad.remaining_gbps - grant <= ad.satisfied_below &&
            bottleneck >= ad.remaining_gbps) {
          grant = ad.remaining_gbps;
        }
        if (grant > detail::kEpsilonGbps) {
          for (topo::LinkId l : ad.round_path.links) residual[l] -= grant;
          placed[ad.alloc_index][ad.round_path.links] += grant;
          alloc.allocated_gbps += grant;
          ad.remaining_gbps -= grant;
        }
        if (ad.remaining_gbps > ad.satisfied_below) {
          next_active.push_back(std::move(ad));
        }
      }
      active = std::move(next_active);
      local_stats.allocation_time_s += seconds_since(t_alloc);
    }
    // Demands still wanting capacity when the round cap fired: they are
    // frozen (possibly part-filled) without a feasibility verdict.
    local_stats.frozen_round_cap += active.size();
  }
  local_stats.frozen_demands =
      local_stats.frozen_no_path + local_stats.frozen_round_cap;

  // Convert accumulated per-path rates into weighted paths.
  for (std::size_t i = 0; i < solution.allocations.size(); ++i) {
    Allocation& a = solution.allocations[i];
    if (a.allocated_gbps <= detail::kEpsilonGbps) {
      a.allocated_gbps = 0.0;
      continue;
    }
    for (const auto& [links, rate] : placed[i]) {
      WeightedPath wp;
      wp.path.links = links;
      wp.weight = rate / a.allocated_gbps;
      a.paths.push_back(std::move(wp));
    }
  }

  local_stats.wall_time_s = seconds_since(t_start);
  if (stats) *stats = local_stats;
  return solution;
}

}  // namespace dsdn::te
