#pragma once

// The Solve API (§3.3, Fig 6): the boundary between the controller and
// the TE solver, pluggable so the algorithm can be replaced or moved
// off-box. A controller solves the *whole network* through it and keeps
// only its own rows: with identical views every router's full-network
// solution is identical, so the union of everyone's own rows is exactly
// the single-controller solution.

#include "te/solver.hpp"

namespace dsdn::core {

class SolveApi {
 public:
  virtual ~SolveApi() = default;
  virtual te::Solution solve(const topo::Topology& view,
                             const traffic::TrafficMatrix& demands,
                             te::SolveStats* stats) const = 0;
  // Heap bytes of the shortest-path table the solver holds (0 if none).
  virtual std::size_t path_table_bytes() const { return 0; }
};

// Default SolveApi: the in-process B4-style solver.
class LocalSolver final : public SolveApi {
 public:
  te::Solution solve(const topo::Topology& view,
                     const traffic::TrafficMatrix& demands,
                     te::SolveStats* stats) const override {
    return solver_.solve(view, demands, stats);
  }
  std::size_t path_table_bytes() const override {
    return solver_.path_table_bytes();
  }

 private:
  te::Solver solver_;
};

}  // namespace dsdn::core
