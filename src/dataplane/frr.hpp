#pragma once

// Fast Reroute bypass paths (§3.2 fault tolerance, Appendices C & D).
//
// When a link dies, traffic from stale headends still arrives intending
// to traverse it. Each router pre-installs bypass paths around every
// local link: on hitting a down link the invalid label is popped and the
// bypass source route is prepended, delivering the packet to its original
// next hop, where the remaining labels resume the intended path.
//
// Four selection strategies from Appendix C:
//   kShortestPath      -- IGP-shortest bypass (today's production behavior)
//   kCapacityAware     -- bypass with the most spare capacity (widest path)
//   kKShortestPaths    -- k IGP-shortest bypasses; per flow pick the
//                         shortest with enough spare capacity, else the
//                         widest of them
//   kKCapacityAware    -- k widest bypasses, load-balanced by spare
//                         capacity
// dSDN's on-box view of demand and capacity is what enables the
// capacity-aware variants (recomputable as demand changes).

#include <map>
#include <optional>

#include "dataplane/label.hpp"
#include "te/dijkstra.hpp"

namespace dsdn::dataplane {

enum class BypassStrategy {
  kShortestPath,
  kCapacityAware,
  kKShortestPaths,
  kKCapacityAware,
};

const char* bypass_strategy_name(BypassStrategy s);

// Widest (maximum bottleneck residual) path src->dst honoring the
// constraints; nullopt when disconnected. `residual` must be sized to
// topo.num_links().
std::optional<te::Path> widest_path(const topo::Topology& topo,
                                    topo::NodeId src, topo::NodeId dst,
                                    const std::vector<double>& residual,
                                    const te::SpConstraints& c = {});

class BypassPlan {
 public:
  BypassPlan() = default;

  // Computes bypasses for every *up* link under the given strategy.
  // `residual_gbps` is the spare capacity per link under the current TE
  // placement (raw capacities used when empty). k applies to the
  // multi-path strategies (the paper settled on k = 16).
  static BypassPlan compute(const topo::Topology& topo, BypassStrategy s,
                            const std::vector<double>& residual_gbps = {},
                            std::size_t k = 16);

  // Computes bypasses only for the named links (up or down) -- what a
  // router actually needs installed while specific links are failed.
  // Simulators use this to avoid protecting thousands of healthy links.
  static BypassPlan compute_for_links(const topo::Topology& topo,
                                      BypassStrategy s,
                                      const std::vector<topo::LinkId>& links,
                                      const std::vector<double>& residual_gbps
                                      = {},
                                      std::size_t k = 16);

  BypassStrategy strategy() const { return strategy_; }

  // All bypass candidates protecting `link` (empty if none exist).
  const std::vector<te::Path>& candidates(topo::LinkId link) const;

  // Strategy-specific per-flow choice. `rate_gbps` is the flow's rate
  // (used by capacity admission in kKShortestPaths), `entropy` spreads
  // flows across candidates for load-balancing strategies,
  // `residual_gbps` is the current spare capacity per link.
  std::optional<te::Path> select(const topo::Topology& topo,
                                 topo::LinkId link, double rate_gbps,
                                 std::uint64_t entropy,
                                 const std::vector<double>& residual_gbps)
      const;

  std::size_t num_protected_links() const { return bypasses_.size(); }

 private:
  BypassStrategy strategy_ = BypassStrategy::kShortestPath;
  std::map<topo::LinkId, std::vector<te::Path>> bypasses_;
  static const std::vector<te::Path> kEmpty;
};

}  // namespace dsdn::dataplane
