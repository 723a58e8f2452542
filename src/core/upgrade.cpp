#include "core/upgrade.hpp"

#include <algorithm>
#include <stdexcept>

#include "te/dijkstra.hpp"

namespace dsdn::core {

OpaqueTlv make_algorithm_tlv(PathingAlgorithm a) {
  OpaqueTlv tlv;
  tlv.type = kAlgorithmTlvType;
  tlv.value = std::string(1, static_cast<char>(a));
  return tlv;
}

std::optional<PathingAlgorithm> parse_algorithm_tlv(
    const NodeStateUpdate& nsu) {
  for (const OpaqueTlv& tlv : nsu.tlvs) {
    if (tlv.type != kAlgorithmTlvType || tlv.value.size() != 1) continue;
    const auto v = static_cast<int>(tlv.value[0]);
    if (v == static_cast<int>(PathingAlgorithm::kMaxMinFairTe) ||
        v == static_cast<int>(PathingAlgorithm::kShortestPath) ||
        v == static_cast<int>(PathingAlgorithm::kSegmentRouting)) {
      return static_cast<PathingAlgorithm>(v);
    }
  }
  return std::nullopt;
}

OpaqueTlv make_segment_stack_tlv(const std::vector<topo::NodeId>& segments) {
  if (segments.empty() || segments.size() > kMaxSegmentStackDepth)
    throw std::length_error("segment stack depth out of range");
  OpaqueTlv tlv;
  tlv.type = kSegmentStackTlvType;
  tlv.value.push_back(static_cast<char>(segments.size()));
  for (topo::NodeId n : segments) {
    if (n > 0xFFFF)
      throw std::out_of_range("segment node id exceeds uint16 encoding");
    tlv.value.push_back(static_cast<char>(n & 0xFF));
    tlv.value.push_back(static_cast<char>((n >> 8) & 0xFF));
  }
  return tlv;
}

std::optional<std::vector<topo::NodeId>> parse_segment_stack_tlv(
    const OpaqueTlv& tlv, std::size_t num_nodes) {
  if (tlv.type != kSegmentStackTlvType) return std::nullopt;
  if (tlv.value.empty()) return std::nullopt;
  const std::size_t count = static_cast<unsigned char>(tlv.value[0]);
  if (count < 1 || count > kMaxSegmentStackDepth) return std::nullopt;
  if (tlv.value.size() != 1 + 2 * count) return std::nullopt;
  std::vector<topo::NodeId> segments;
  segments.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    const auto lo = static_cast<unsigned char>(tlv.value[1 + 2 * i]);
    const auto hi = static_cast<unsigned char>(tlv.value[2 + 2 * i]);
    const topo::NodeId n = static_cast<topo::NodeId>(lo) |
                           (static_cast<topo::NodeId>(hi) << 8);
    if (n >= num_nodes) return std::nullopt;
    segments.push_back(n);
  }
  return segments;
}

std::vector<PathingAlgorithm> algorithm_map_from_state(const StateDb& state) {
  std::vector<PathingAlgorithm> map(state.view().num_nodes(),
                                    PathingAlgorithm::kMaxMinFairTe);
  for (topo::NodeId n = 0; n < state.view().num_nodes(); ++n) {
    if (const NodeStateUpdate* nsu = state.latest(n)) {
      if (const auto algo = parse_algorithm_tlv(*nsu)) map[n] = *algo;
    }
  }
  return map;
}

te::Solution MixedAlgorithmSolver::solve(const topo::Topology& view,
                                         const traffic::TrafficMatrix& demands,
                                         te::SolveStats* stats) const {
  // Phase 1: predict the legacy routers' capacity-oblivious placement.
  std::vector<double> residual(view.num_links());
  for (std::size_t l = 0; l < view.num_links(); ++l) {
    const auto& link = view.link(static_cast<topo::LinkId>(l));
    residual[l] = link.up ? link.capacity_gbps : 0.0;
  }

  std::vector<te::Allocation> legacy(demands.size());
  traffic::TrafficMatrix sr_demands;
  std::vector<std::size_t> sr_index;  // back-map into the output
  traffic::TrafficMatrix te_demands;
  std::vector<std::size_t> te_index;  // back-map into the output

  std::vector<std::vector<te::Path>> sp_tree(view.num_nodes());
  std::vector<char> have_tree(view.num_nodes(), 0);

  const auto& rows = demands.demands();
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const traffic::Demand& d = rows[i];
    const PathingAlgorithm algo = algorithm_of_(d.src);
    if (algo == PathingAlgorithm::kSegmentRouting) {
      sr_index.push_back(i);
      sr_demands.add(d);
      continue;
    }
    if (algo != PathingAlgorithm::kShortestPath) {
      te_index.push_back(i);
      te_demands.add(d);
      continue;
    }
    if (!have_tree[d.src]) {
      sp_tree[d.src] = te::shortest_path_tree(view, d.src);
      have_tree[d.src] = 1;
    }
    te::Allocation a;
    a.demand = d;
    const te::Path& p = sp_tree[d.src][d.dst];
    if (!p.empty()) {
      a.allocated_gbps = d.rate_gbps;  // legacy sends regardless of room
      a.paths.push_back(te::WeightedPath{p, 1.0, {}});
      for (topo::LinkId l : p.links) {
        residual[l] = std::max(0.0, residual[l] - d.rate_gbps);
      }
    }
    legacy[i] = std::move(a);
  }

  // Phase 2: segment-routing routers place next, on what the legacy
  // prediction left. Deduct their placement before the strict solve so
  // phase 3 sees the capacity SR will actually consume.
  te::Solution sr_solution;
  if (sr_index.size() > 0) {
    sr_solution = sr_solver_.solve(view, sr_demands, &residual);
    for (const te::Allocation& a : sr_solution.allocations) {
      for (const te::WeightedPath& wp : a.paths) {
        const double load = a.allocated_gbps * wp.weight;
        for (topo::LinkId l : wp.path.links) {
          residual[l] = std::max(0.0, residual[l] - load);
        }
      }
    }
  }

  // Phase 3: TE for everything else, on what capacity remains.
  const te::Solution te_solution =
      solver_.solve(view, te_demands, stats, &residual);

  // Merge in input order.
  te::Solution out;
  out.allocations = std::move(legacy);
  for (std::size_t k = 0; k < sr_index.size(); ++k) {
    out.allocations[sr_index[k]] = sr_solution.allocations[k];
  }
  for (std::size_t k = 0; k < te_index.size(); ++k) {
    out.allocations[te_index[k]] = te_solution.allocations[k];
  }
  // Demands with no rows yet (legacy but disconnected) keep empty
  // allocations with their demand filled in.
  for (std::size_t i = 0; i < rows.size(); ++i) {
    if (out.allocations[i].demand.src == topo::kInvalidNode) {
      out.allocations[i].demand = rows[i];
    }
  }
  return out;
}

}  // namespace dsdn::core
