#include "te/incremental.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace dsdn::te {

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// (src, dst, class) -> key. Demands are aggregated per (egress, class)
// at each source, so the key is unique within one origin's adverts; the
// adopt() step verifies global uniqueness before trusting the map.
std::uint64_t demand_key(const traffic::Demand& d, std::size_t num_nodes) {
  return (static_cast<std::uint64_t>(d.src) * num_nodes + d.dst) * 4 +
         static_cast<std::uint64_t>(d.priority);
}

}  // namespace

// ---- DiffChecker ----

DiffChecker::Report DiffChecker::check(const topo::Topology& topo,
                                       const traffic::TrafficMatrix& tm,
                                       const Solution& solution) {
  return check_against(topo, tm, solution, Solver().solve(topo, tm),
                       Options{});
}

DiffChecker::Report DiffChecker::check_against(
    const topo::Topology& topo, const traffic::TrafficMatrix& tm,
    const Solution& solution, const Solution& reference,
    const Options& /*bounds*/) {
  DSDN_TRACE_SPAN("te.diff_check");
  Report report;
  constexpr std::size_t kMaxViolations = 64;
  auto violate = [&](std::string msg) {
    if (report.violations.size() < kMaxViolations)
      report.violations.push_back(std::move(msg));
  };

  // ---- Shape: one allocation per demand, same order, rate respected.
  const auto& demands = tm.demands();
  if (solution.allocations.size() != demands.size()) {
    violate("shape: " + std::to_string(solution.allocations.size()) +
            " allocations for " + std::to_string(demands.size()) +
            " demands");
    return report;  // nothing below is meaningful with a shape mismatch
  }

  std::vector<double> load(topo.num_links(), 0.0);
  for (std::size_t i = 0; i < demands.size(); ++i) {
    const Allocation& a = solution.allocations[i];
    const traffic::Demand& d = demands[i];
    const std::string who = "demand " + std::to_string(i) + " (" +
                            std::to_string(d.src) + "->" +
                            std::to_string(d.dst) + ")";
    if (!(a.demand == d)) violate("shape: " + who + " row mismatch");
    if (a.allocated_gbps > d.rate_gbps * (1.0 + 1e-9) + 1e-9)
      violate("shape: " + who + " over-allocated " +
              std::to_string(a.allocated_gbps) + " > " +
              std::to_string(d.rate_gbps));

    // ---- Path feasibility on the *current* topology.
    double weight_sum = 0.0;
    for (const WeightedPath& wp : a.paths) {
      weight_sum += wp.weight;
      if (!wp.path.is_valid(topo)) {
        violate("feasibility: " + who + " has an invalid path (down link, "
                "broken chain, or loop)");
        continue;
      }
      if (wp.path.src(topo) != d.src || wp.path.dst(topo) != d.dst)
        violate("feasibility: " + who + " path endpoints mismatch");
    }
    if (a.allocated_gbps > 1e-9 && std::abs(weight_sum - 1.0) > 1e-6)
      violate("feasibility: " + who + " path weights sum to " +
              std::to_string(weight_sum));
    a.add_load(+1.0, load);
  }

  // ---- Link-capacity conservation (down links carry nothing).
  for (std::size_t l = 0; l < topo.num_links(); ++l) {
    const topo::Link& link = topo.link(static_cast<topo::LinkId>(l));
    if (!link.up && load[l] > Options::capacity_slack_gbps)
      violate("conservation: down link " + std::to_string(l) + " carries " +
              std::to_string(load[l]) + " Gbps");
    if (load[l] > link.capacity_gbps + Options::capacity_slack_gbps)
      violate("conservation: link " + std::to_string(l) + " carries " +
              std::to_string(load[l]) + " Gbps > capacity " +
              std::to_string(link.capacity_gbps));
  }

  // ---- Throughput parity vs the reference solve.
  report.solution_total_gbps = solution.total_allocated_gbps();
  report.reference_total_gbps = reference.total_allocated_gbps();
  const double denom = std::max(report.reference_total_gbps, 1e-6);
  const double drift =
      std::abs(report.solution_total_gbps - report.reference_total_gbps) /
      denom;
  if (drift > Options::throughput_tolerance)
    violate("parity: total " + std::to_string(report.solution_total_gbps) +
            " Gbps vs reference " +
            std::to_string(report.reference_total_gbps) + " Gbps (" +
            std::to_string(drift * 100.0) + "% drift)");
  return report;
}

// ---- IncrementalSolver ----

void IncrementalSolver::reset() {
  warm_ = false;
  prev_ = Solution{};
  prev_residual_.clear();
  prev_link_up_.clear();
  prev_link_cap_.clear();
  prev_keys_.clear();
  prev_index_.clear();
  prev_keys_unique_ = true;
}

bool IncrementalSolver::same_keys(const traffic::TrafficMatrix& tm,
                                  std::size_t num_nodes) const {
  if (tm.size() != prev_keys_.size()) return false;
  for (std::size_t i = 0; i < tm.size(); ++i) {
    if (demand_key(tm.demands()[i], num_nodes) != prev_keys_[i]) return false;
  }
  return true;
}

void IncrementalSolver::adopt(const topo::Topology& topo,
                              const traffic::TrafficMatrix& tm,
                              const Solution& solution) {
  prev_ = solution;
  prev_residual_ = solution.residual_capacity(topo);
  prev_link_up_.assign(topo.num_links(), 0);
  prev_link_cap_.assign(topo.num_links(), 0.0);
  for (std::size_t l = 0; l < topo.num_links(); ++l) {
    const topo::Link& link = topo.link(static_cast<topo::LinkId>(l));
    prev_link_up_[l] = link.up ? 1 : 0;
    prev_link_cap_[l] = link.capacity_gbps;
    // A down link offers no capacity, whatever its configured rate.
    if (!link.up) prev_residual_[l] = 0.0;
    prev_residual_[l] = std::max(prev_residual_[l], 0.0);
  }
  prev_num_nodes_ = topo.num_nodes();
  if (!same_keys(tm, topo.num_nodes())) {
    prev_keys_.resize(tm.size());
    prev_index_.clear();
    prev_index_.reserve(tm.size() * 2);
    prev_keys_unique_ = true;
    for (std::size_t i = 0; i < tm.size(); ++i) {
      prev_keys_[i] = demand_key(tm.demands()[i], topo.num_nodes());
      if (!prev_index_.emplace(prev_keys_[i], i).second)
        prev_keys_unique_ = false;
    }
  }
  // Duplicate (src, dst, class) rows: the key map cannot represent them,
  // so refuse to warm-start off this matrix -- also when the same keys
  // come back and the map is not rebuilt.
  warm_ = prev_keys_unique_;
}

Solution IncrementalSolver::full_solve(const topo::Topology& topo,
                                       const traffic::TrafficMatrix& tm,
                                       IncrementalStats& stats) {
  Solution solution = solver_.solve(topo, tm, &stats.solve);
  stats.incremental = false;
  stats.affected_demands = tm.size();
  ++full_solves_;
  adopt(topo, tm, solution);
  return solution;
}

Solution IncrementalSolver::solve(const topo::Topology& topo,
                                  const traffic::TrafficMatrix& tm,
                                  const ViewDelta& delta,
                                  IncrementalStats* stats) {
  DSDN_TRACE_SPAN("te.incremental_solve");
  auto& reg = obs::Registry::global();
  static obs::Counter& m_solves = reg.counter("te.incremental.solves");
  static obs::Counter& m_full = reg.counter("te.incremental.full_solves");
  static obs::Counter& m_fallbacks = reg.counter("te.incremental.fallbacks");
  static obs::Counter& m_affected =
      reg.counter("te.incremental.affected_demands");
  static obs::Counter& m_reused =
      reg.counter("te.incremental.reused_allocations");
  static obs::Histogram& m_reuse_frac =
      reg.histogram("te.incremental.reuse_fraction");
  static obs::Histogram& m_wall = reg.histogram("te.incremental.wall_s");

  const auto t_start = Clock::now();
  IncrementalStats local;
  local.total_demands = tm.size();

  auto finish = [&](Solution solution) {
    local.wall_time_s = seconds_since(t_start);
    m_wall.record(local.wall_time_s);
    m_affected.add(local.affected_demands);
    m_reused.add(local.reused_allocations);
    m_reuse_frac.record(local.reuse_fraction);
    if (stats) *stats = local;
    return solution;
  };

  // ---- Cold path: no baseline to warm-start from.
  const bool inventory_changed =
      prev_link_up_.size() != topo.num_links() ||
      prev_num_nodes_ != topo.num_nodes();
  const bool cold = !warm_ || delta.full || inventory_changed;
  // The warm state describes the previous call's view, and the next delta
  // this one's: until adopt() replaces the state, a solve that throws
  // leaves the solver cold.
  warm_ = false;
  if (cold) {
    m_full.inc();
    return finish(full_solve(topo, tm, local));
  }

  // ---- Classify the delta.
  std::vector<char> link_changed(topo.num_links(), 0);
  bool capacity_freed = false;
  for (topo::LinkId l : delta.changed_links) {
    if (l >= topo.num_links()) continue;
    link_changed[l] = 1;
    // A repaired link or a capacity restoration frees headroom; see the
    // full-solve fallback below.
    const topo::Link& link = topo.link(l);
    if (link.up &&
        (!prev_link_up_[l] || link.capacity_gbps > prev_link_cap_[l] + 1e-9))
      capacity_freed = true;
  }
  std::vector<char> origin_changed(topo.num_nodes(), 0);
  for (topo::NodeId n : delta.changed_demand_origins) {
    if (n < topo.num_nodes()) origin_changed[n] = 1;
  }

  // Demand churn frees capacity too: a changed origin whose row now
  // offers less than the previous solve *allocated* it gives that
  // capacity back when re-placed.
  if (!capacity_freed && !delta.changed_demand_origins.empty()) {
    std::unordered_map<std::uint64_t, double> now_rate;
    for (const traffic::Demand& d : tm.demands()) {
      if (origin_changed[d.src])
        now_rate[demand_key(d, topo.num_nodes())] = d.rate_gbps;
    }
    for (const Allocation& prev : prev_.allocations) {
      if (prev.demand.src >= topo.num_nodes() ||
          !origin_changed[prev.demand.src])
        continue;
      const auto it = now_rate.find(demand_key(prev.demand,
                                               topo.num_nodes()));
      const double now = it == now_rate.end() ? 0.0 : it->second;
      if (prev.allocated_gbps > now + 1e-9) {
        capacity_freed = true;
        break;
      }
    }
  }

  // Freed capacity -- a repaired link, a capacity restoration, or a
  // demand giving back headroom -- cascades through the strict-priority
  // waterfill: kept allocations sitting on detour paths block capacity
  // a cold solve would place through the freed links, and the displaced
  // demands free capacity elsewhere in turn. No locally-computed
  // released set is parity-safe (the scenario swarm measured 10%
  // throughput drift after an SRLG repair under surges, and 5.7% after
  // a surge *down*), so take the full solve. Warm speedup survives in
  // the latency-critical direction: failures and demand growth.
  if (capacity_freed) {
    local.fallback = true;
    ++fallbacks_;
    m_fallbacks.inc();
    m_full.inc();
    return finish(full_solve(topo, tm, local));
  }

  // ---- Pick the affected demand set.
  const auto& demands = tm.demands();
  // Row i was row i of the previous matrix when the keys are unchanged
  // (every warm solve of a fixed matrix); otherwise look the key up.
  const bool same_rows = same_keys(tm, topo.num_nodes());
  std::vector<char> affected(demands.size(), 0);
  std::vector<std::size_t> prev_of(demands.size(), SIZE_MAX);
  std::vector<char> prev_kept(prev_.allocations.size(), 0);
  std::size_t n_affected = 0;
  for (std::size_t i = 0; i < demands.size(); ++i) {
    const traffic::Demand& d = demands[i];
    bool hit = origin_changed[d.src];
    std::size_t prev_idx = SIZE_MAX;
    if (!hit) {
      if (same_rows) {
        prev_idx = i;
      } else {
        const auto it = prev_index_.find(demand_key(d, topo.num_nodes()));
        if (it != prev_index_.end()) prev_idx = it->second;
      }
      if (prev_idx == SIZE_MAX || prev_kept[prev_idx]) {
        hit = true;  // new demand row, or a duplicate of a kept one
      } else {
        const Allocation& prev = prev_.allocations[prev_idx];
        if (std::abs(prev.demand.rate_gbps - d.rate_gbps) > 1e-12) {
          hit = true;  // re-rated (an unchanged origin should not do
                       // this, but the delta is advisory, not trusted)
        } else {
          for (const WeightedPath& wp : prev.paths) {
            for (topo::LinkId l : wp.path.links) {
              if (link_changed[l]) {
                hit = true;
                break;
              }
            }
            if (hit) break;
          }
        }
      }
    }
    if (hit) {
      affected[i] = 1;
      ++n_affected;
    } else {
      prev_of[i] = prev_idx;
      prev_kept[prev_idx] = 1;
    }
  }
  local.affected_demands = n_affected;
  local.reused_allocations = demands.size() - n_affected;
  local.reuse_fraction =
      demands.empty()
          ? 0.0
          : static_cast<double>(local.reused_allocations) / demands.size();

  // ---- Fallback: the delta touches too much to be worth warm-starting.
  if (static_cast<double>(n_affected) >
      kFullSolveThreshold * static_cast<double>(demands.size())) {
    local.fallback = true;
    local.reused_allocations = 0;
    local.reuse_fraction = 0.0;
    ++fallbacks_;
    m_fallbacks.inc();
    m_full.inc();
    return finish(full_solve(topo, tm, local));
  }

  // ---- Build the kept solution and the residual the released set sees.
  DSDN_TRACE_SPAN("te.incremental_merge");
  Solution merged;
  merged.allocations.resize(demands.size());
  for (std::size_t i = 0; i < demands.size(); ++i) {
    if (affected[i]) continue;
    merged.allocations[i] = prev_.allocations[prev_of[i]];
    merged.allocations[i].demand = demands[i];
  }
  // Start from the previous residuals, release the loads of every
  // previous allocation that is *not* kept (affected or dropped rows),
  // then overwrite changed links with their current capacity -- kept
  // paths never touch a changed link, so the kept load there is zero.
  std::vector<double> residual = prev_residual_;
  for (std::size_t j = 0; j < prev_.allocations.size(); ++j) {
    // Releasing an allocation returns its placed load to the residual
    // (sign +1: residual is the inverse of load).
    if (!prev_kept[j]) prev_.allocations[j].add_load(+1.0, residual);
  }
  for (std::size_t l = 0; l < topo.num_links(); ++l) {
    const topo::Link& link = topo.link(static_cast<topo::LinkId>(l));
    if (link_changed[l]) residual[l] = link.up ? link.capacity_gbps : 0.0;
    residual[l] = std::max(residual[l], 0.0);
  }

  // ---- Re-waterfill only the released demands.
  if (n_affected > 0) {
    traffic::TrafficMatrix sub_tm;
    std::vector<std::size_t> positions;
    positions.reserve(n_affected);
    for (std::size_t i = 0; i < demands.size(); ++i) {
      if (!affected[i]) continue;
      sub_tm.add(demands[i]);
      positions.push_back(i);
    }
    Solution sub = solver_.solve(topo, sub_tm, &local.solve, &residual);
    for (std::size_t k = 0; k < positions.size(); ++k) {
      merged.allocations[positions[k]] = std::move(sub.allocations[k]);
    }
  }

  local.incremental = true;
  ++incremental_solves_;
  m_solves.inc();
  adopt(topo, tm, merged);
  return finish(std::move(merged));
}

}  // namespace dsdn::te
