#pragma once

// The Pathing module (§3.3): feeds the NodeStateDB view into the TE
// solver over the Solve API and extracts the subset of paths originating
// at this router. Running the solver for the *whole network* and then
// keeping only our own rows is the crux of dSDN: with identical views,
// every router's full-network solution is identical, so the union of
// everyone's own rows is exactly the single-controller solution.

#include "core/state_db.hpp"
#include "te/solver.hpp"

namespace dsdn::core {

// The "Solve API" boundary between the controller container and the TE
// solver container (Fig 6): pluggable so the algorithm can be replaced or
// moved off-box.
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

struct PathingResult {
  // Full-network solution (kept for diagnostics / tests).
  te::Solution solution;
  // This router's rows: what the Programmer installs.
  std::vector<te::Allocation> own;
  te::SolveStats stats;
};

class Pathing {
 public:
  Pathing(topo::NodeId self, const SolveApi* api) : self_(self), api_(api) {}

  PathingResult compute(const StateDb& state) const;

 private:
  topo::NodeId self_;
  const SolveApi* api_;
};

}  // namespace dsdn::core
