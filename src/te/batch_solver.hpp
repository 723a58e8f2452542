#pragma once

// The path-search seam of te::Solver's batched waterfill: the flat CSR
// graph and SSSP scratch one batched shortest-path run works on, and the
// BatchSolverBackend interface that runs it. The CPU backend is the
// bit-exact reference; an accelerator backend (GATE, PAPERS.md) plugs in
// through SolverOptions::batch_backend.

#include <cstddef>
#include <cstdint>
#include <vector>

#include "te/types.hpp"

namespace dsdn::te {

// Immutable per-solve CSR view of the topology, restricted to up links
// when the solver's constraints require up (they always do). SoA so an
// accelerator backend can upload it wholesale.
struct BatchGraph {
  std::uint32_t num_nodes = 0;
  std::vector<std::uint32_t> row_offsets;  // num_nodes + 1
  std::vector<std::uint32_t> edge_dst;     // per edge: head node
  std::vector<std::uint32_t> edge_link;    // per edge: topo::LinkId
  std::vector<double> edge_cost;           // per edge: igp metric
  std::vector<std::uint32_t> link_src;     // per topo link: tail node
};

// Reusable scratch for one SSSP run: flat dist/pred arrays with epoch
// stamping (O(1) reset) and a d-ary heap vector. Workspaces are pooled
// per solve so memory scales with concurrency, not with the number of
// distinct sources.
struct SsspWorkspace {
  std::vector<double> dist;
  std::vector<std::uint32_t> pred_link;  // link arriving at each node
  std::vector<std::uint32_t> stamp;      // dist/pred valid iff == epoch
  std::vector<std::uint32_t> target_stamp;
  std::uint32_t epoch = 0;
  std::vector<std::pair<double, std::uint32_t>> heap;

  void ensure(std::uint32_t num_nodes);
  // True iff `node` was finalized by the last run (reachable).
  bool reached(std::uint32_t node) const {
    return stamp[node] == epoch;
  }
};

// Accelerator seam for the batch solver's path-search kernel. The CPU
// implementation below is the reference; a GPU backend slots in by
// overriding sssp() (upload residual deltas, run the frontier kernel,
// read back predecessor arrays) without touching the waterfill.
class BatchSolverBackend {
 public:
  virtual ~BatchSolverBackend() = default;
  virtual const char* name() const = 0;

  // One batched multi-destination shortest-path run: from `src`, over
  // links with residual[link] >= min_residual, finalizing at least every
  // reachable node in targets[0..num_targets) (early-stopping once all
  // are finalized). Results land in ws (dist/pred_link valid where
  // ws.reached()). Must be deterministic and safe to call concurrently
  // on distinct workspaces.
  virtual void sssp(const BatchGraph& g, const std::vector<double>& residual,
                    double min_residual, std::uint32_t src,
                    const std::uint32_t* targets, std::size_t num_targets,
                    SsspWorkspace& ws) const = 0;
};

// Process-wide CPU backend (stateless).
const BatchSolverBackend& cpu_batch_backend();

}  // namespace dsdn::te
