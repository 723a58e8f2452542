#pragma once

// The Programmer module (§3.3): installs this router's slice of the TE
// solution into the forwarding hardware. In production this speaks gRIBI
// to the NOS; here it programs the dataplane::RouterDataplane directly.
//
// Programming is entirely *local* -- the decisive difference from cSDN's
// two-phase network-wide process (§4): a dSDN router only ever touches
// its own tables, so Tprog is a single-router operation.

#include "core/state_db.hpp"
#include "dataplane/forwarder.hpp"
#include "dataplane/frr.hpp"
#include "te/types.hpp"

namespace dsdn::core {

class Programmer {
 public:
  explicit Programmer(topo::NodeId self) : self_(self) {}

  // Installs prefix->egress mappings from the current global view.
  void program_prefixes(const StateDb& state,
                        dataplane::RouterDataplane& hw) const;

  // Replaces the encap (egress -> weighted source routes) entries with
  // this router's allocations. Paths longer than the hardware label
  // depth are skipped and counted (callers alert on it; such networks
  // should move to the sublabel encoding).
  struct EncapReport {
    std::size_t routes_installed = 0;
    std::size_t routes_too_deep = 0;
    // Of routes_installed, how many were segment stacks (1-3 node
    // segments) rather than strict per-link stacks.
    std::size_t sr_routes_installed = 0;
  };
  EncapReport program_encap(const std::vector<te::Allocation>& own,
                            dataplane::RouterDataplane& hw) const;

  // Installs this router's node-segment FIB (SrFib): for every reachable
  // target, the ECMP shortest-path members toward it over the view's up
  // links. Purely local, derived from the same converged view the SR
  // solver expanded against, so transit behavior matches the headend's
  // capacity accounting once views agree.
  struct SrReport {
    std::size_t targets = 0;
    std::size_t next_hops = 0;
  };
  SrReport program_sr(const topo::Topology& view,
                      dataplane::RouterDataplane& hw) const;

  // Pre-installs FRR bypasses for this router's local links (Appendix C).
  // dSDN's on-box view lets the selection be capacity-aware: `residual`
  // is spare capacity under the current TE placement, from the NSU-fed
  // view. Multi-path strategies are realized as weighted ECMP groups
  // (weights: spare capacity for k-capacity-aware, rank-biased for
  // k-shortest), which is how the ASIC would hold them.
  struct BypassReport {
    std::size_t links_protected = 0;
    std::size_t routes_installed = 0;
  };
  BypassReport program_bypasses(const topo::Topology& view,
                                const std::vector<double>& residual_gbps,
                                dataplane::BypassStrategy strategy,
                                std::size_t k,
                                dataplane::RouterDataplane& hw) const;

 private:
  topo::NodeId self_;
};

}  // namespace dsdn::core
