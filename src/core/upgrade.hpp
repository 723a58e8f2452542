#pragma once

// Algorithm coexistence during controller rollouts (§3.2, "Upgrades").
//
// dSDN assumes every controller solves the global TE problem identically,
// but operator code upgrades mean different algorithm versions coexist
// mid-rollout. Source routing keeps forwarding *correct* regardless
// (packets follow the headend's choice, loop-free); the risk is
// congestion from controllers mispredicting each other's placement.
//
// The paper's remedy, implemented here: each controller advertises which
// algorithm it runs in an opaque NSU TLV; TE controllers first compute
// the placement the non-TE controllers will make (e.g. capacity-oblivious
// shortest path), deduct it from capacity, and run TE for the remaining
// demands. Every router -- old or new -- thereby predicts the same global
// placement, preserving the consensus-free property across the rollout.

#include <functional>
#include <optional>

#include "core/pathing.hpp"
#include "te/segment_routing.hpp"

namespace dsdn::core {

enum class PathingAlgorithm {
  kMaxMinFairTe = 0,   // the stock solver
  kShortestPath = 1,   // capacity-oblivious IGP shortest path (legacy)
  kSegmentRouting = 2, // node-segment stacks over underlay ECMP (te::SrSolver)
};

// TLV carrying the originator's algorithm (one byte of payload).
inline constexpr std::uint32_t kAlgorithmTlvType = 0xA190;

OpaqueTlv make_algorithm_tlv(PathingAlgorithm a);

// TLV carrying a node-segment stack (diagnostics / rollout audit): one
// count byte then count little-endian uint16 node ids, count in [1,3].
inline constexpr std::uint32_t kSegmentStackTlvType = 0xA191;
inline constexpr std::size_t kMaxSegmentStackDepth = 3;

OpaqueTlv make_segment_stack_tlv(const std::vector<topo::NodeId>& segments);

// Strict decode of a segment-stack TLV: wrong type, bad count, short or
// oversized payload, or a node id >= num_nodes all yield nullopt (the
// wire-fuzz target feeds this arbitrary bytes).
std::optional<std::vector<topo::NodeId>> parse_segment_stack_tlv(
    const OpaqueTlv& tlv, std::size_t num_nodes);

// Reads the algorithm TLV from an NSU; nullopt when absent/garbled.
// Absent means "pre-TLV controller", which the rollout plan treats as
// kMaxMinFairTe by default.
std::optional<PathingAlgorithm> parse_algorithm_tlv(const NodeStateUpdate&);

// Per-router algorithm map assembled from a StateDb's TLVs. Routers we
// have not heard an algorithm from are assumed to run kMaxMinFairTe.
std::vector<PathingAlgorithm> algorithm_map_from_state(const StateDb& state);

// SolveApi that accounts for what algorithm each headend runs, in a
// globally agreed precedence order so every router predicts the same
// placement regardless of which algorithm it runs itself:
//   1. demands originated by kShortestPath routers are placed on their
//      IGP shortest paths (capacity-oblivious, full rate), draining
//      residual capacity;
//   2. demands originated by kSegmentRouting routers are placed by the
//      SR waterfill on what remains;
//   3. the stock solver places the remaining demands on what is left.
// The output covers all demands in input order, so Pathing/Programmer
// work unchanged.
class MixedAlgorithmSolver final : public SolveApi {
 public:
  using AlgorithmOf = std::function<PathingAlgorithm(topo::NodeId)>;

  explicit MixedAlgorithmSolver(AlgorithmOf algorithm_of)
      : algorithm_of_(std::move(algorithm_of)) {}

  te::Solution solve(const topo::Topology& view,
                     const traffic::TrafficMatrix& demands,
                     te::SolveStats* stats) const override;
  std::size_t path_table_bytes() const override {
    return solver_.path_table_bytes();
  }

 private:
  te::Solver solver_;
  te::SrSolver sr_solver_;
  AlgorithmOf algorithm_of_;
};

}  // namespace dsdn::core
