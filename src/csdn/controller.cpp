#include "csdn/controller.hpp"

#include <limits>

namespace dsdn::csdn {

namespace {

metrics::ProgrammingLatencyModel make_programming_model(
    std::size_t n_routers, std::uint64_t seed) {
  util::Rng rng(util::splitmix64(seed ^ 0xCDCDCDCDULL));
  return metrics::ProgrammingLatencyModel(n_routers, rng);
}

}  // namespace

CsdnController::CsdnController(const topo::Topology* topo,
                               std::uint64_t seed)
    : topo_(topo),
      programming_(make_programming_model(topo->num_nodes(), seed)),
      rng_(seed) {}

te::Solution CsdnController::solve(const traffic::TrafficMatrix& tm,
                                   te::SolveStats* stats) const {
  return solver_.solve(*topo_, tm, stats);
}

CsdnEventTiming CsdnController::time_reconvergence(
    double t0, const te::Solution& new_solution,
    const std::vector<char>& changed) {
  CsdnEventTiming timing;
  timing.t_learned = t0 + cpn_.sample_tprop(rng_);
  timing.t_computed =
      timing.t_learned +
      (measured_tcomp_.empty()
           ? metrics::sample_csdn_tcomp(rng_)
           : measured_tcomp_.sample(rng_));
  timing.t_converged = timing.t_computed;
  for (std::size_t i = 0; i < new_solution.allocations.size(); ++i) {
    if (i < changed.size() && !changed[i]) continue;
    const te::Allocation& a = new_solution.allocations[i];
    // A headend partitioned from the CPN fails static: its paths are
    // never reprogrammed.
    if (cpn_.is_partitioned(a.demand.src)) continue;
    const double switch_at =
        timing.t_computed +
        demand_switch_time(*topo_, a.paths, programming_, rng_);
    timing.demand_switch.emplace_back(i, switch_at);
    timing.t_converged = std::max(timing.t_converged, switch_at);
  }
  return timing;
}

std::vector<char> changed_demands(const te::Solution& before,
                                  const te::Solution& after) {
  std::vector<char> changed(after.allocations.size(), 1);
  if (before.allocations.size() != after.allocations.size()) return changed;
  for (std::size_t i = 0; i < after.allocations.size(); ++i) {
    const auto& a = before.allocations[i];
    const auto& b = after.allocations[i];
    bool same = a.paths.size() == b.paths.size() &&
                a.allocated_gbps == b.allocated_gbps;
    if (same) {
      for (std::size_t p = 0; p < a.paths.size(); ++p) {
        if (a.paths[p].path != b.paths[p].path ||
            a.paths[p].weight != b.paths[p].weight) {
          same = false;
          break;
        }
      }
    }
    changed[i] = same ? 0 : 1;
  }
  return changed;
}

}  // namespace dsdn::csdn
