#pragma once

// Centralized SDN controller model: the logically-centralized TE
// authority of Fig 2, reduced to what the evaluation needs -- the same TE
// algorithm as dSDN (by design, §5: "since cSDN and dSDN run the same TE
// algorithm, their routes after convergence are identical"), plus the
// cSDN-specific *timing*: CPN propagation, central compute on the
// datacenter server, and two-phase distributed programming.

#include "csdn/cpn.hpp"
#include "csdn/programming.hpp"
#include "te/solver.hpp"

namespace dsdn::csdn {

struct CsdnEventTiming {
  double t_learned = 0.0;    // event + Tprop
  double t_computed = 0.0;   // + Tcomp
  // Absolute switch time per demand index (only entries for demands whose
  // routing changed; untouched demands keep their old entry).
  std::vector<std::pair<std::size_t, double>> demand_switch;
  double t_converged = 0.0;  // max over switches (or t_computed if none)
};

class CsdnController {
 public:
  CsdnController(const topo::Topology* topo, std::uint64_t seed);

  // Central solve on the current (ground-truth) topology state.
  te::Solution solve(const traffic::TrafficMatrix& tm,
                     te::SolveStats* stats = nullptr) const;

  // Timing of a reconvergence: the event happened at `t0`; `changed`
  // marks demands whose paths differ between old and new solutions.
  // A partitioned network (CPN failure) never converges: t_converged is
  // +inf and no demand switches (fail static).
  CsdnEventTiming time_reconvergence(double t0,
                                     const te::Solution& new_solution,
                                     const std::vector<char>& changed);

  // Uses a measured Tcomp distribution (real solver runs at server
  // speed) instead of the calibrated lognormal.
  void set_measured_tcomp(metrics::EmpiricalDistribution d) {
    measured_tcomp_ = std::move(d);
  }

  ControlPlaneNetwork& cpn() { return cpn_; }
  util::Rng& rng() { return rng_; }

 private:
  const topo::Topology* topo_;
  ControlPlaneNetwork cpn_;
  metrics::ProgrammingLatencyModel programming_;
  te::Solver solver_;
  metrics::EmpiricalDistribution measured_tcomp_;
  mutable util::Rng rng_;
};

// Marks which demands' installed paths differ between two solutions.
std::vector<char> changed_demands(const te::Solution& before,
                                  const te::Solution& after);

}  // namespace dsdn::csdn
