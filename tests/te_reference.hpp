#pragma once

// Test-only reference for te::Solver: the original per-demand waterfill,
// one heap-allocating Dijkstra per active demand per round, with
// per-allocation std::map<links, rate> accumulation. It is the paper's
// original solver shape, kept small and obviously correct so that the
// production solver's batched SSSP, path reuse, table paths, interning
// and flat grant log can be checked against it bit for bit.

#include <vector>

#include "te/solver.hpp"

namespace dsdn::te {

class ReferenceSolver {
 public:
  explicit ReferenceSolver(SolverOptions options = {}) : options_(options) {}

  // Same contract as Solver::solve. Runs its path searches on
  // options.pool when set, serially otherwise; ignores path_table (it
  // always searches).
  Solution solve(const topo::Topology& topo,
                 const traffic::TrafficMatrix& tm,
                 SolveStats* stats = nullptr,
                 const std::vector<double>* residual_override = nullptr) const;

 private:
  SolverOptions options_;
};

}  // namespace dsdn::te
