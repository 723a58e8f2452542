#pragma once

// Per-router forwarding state: the two-stage ingress lookup plus the
// static transit label table (§3.2).
//
// Stage 1 (prefix -> egress router) is built from prefix originations
// carried in NSUs. Stage 2 (egress router -> weighted source routes) is
// programmed by the dSDN Pathing/Programmer from the TE solution; one
// route is picked per packet by hashing header entropy. Transit packets
// bypass both stages: the outer label names the out-link directly, so
// the static transit table is a pure function of the label and the
// topology (transit_link) rather than stored state.

#include <map>
#include <optional>
#include <unordered_map>

#include "dataplane/label.hpp"
#include "topo/prefix.hpp"

namespace dsdn::dataplane {

struct WeightedRoute {
  LabelStack stack;
  double weight = 1.0;
};

struct EncapEntry {
  std::vector<WeightedRoute> routes;
};

class IngressFib {
 public:
  // Stage-1 programming.
  void set_prefix(const topo::Prefix& p, topo::NodeId egress);
  void clear_prefixes();

  // Stage-2 programming: replaces the route set for an (egress, class).
  void set_routes(topo::NodeId egress, metrics::PriorityClass priority,
                  EncapEntry entry);
  void clear_routes();

  // Full two-stage lookup. nullopt when the destination is unknown or no
  // route is programmed. Deterministic in `entropy`.
  std::optional<LabelStack> lookup(std::uint32_t dst_ip,
                                   metrics::PriorityClass priority,
                                   std::uint64_t entropy) const;

  // Allocation-free variant for the batched pipeline's hot path: returns
  // a pointer into the installed route set (same weighted choice as
  // lookup()), or null on a miss. The pointer is valid as long as the
  // table is not reprogrammed -- which immutable FIB snapshots guarantee.
  const LabelStack* lookup_stack(std::uint32_t dst_ip,
                                 metrics::PriorityClass priority,
                                 std::uint64_t entropy) const;

  // Stage-1 only (exposed for the forwarder's local-delivery check).
  std::optional<topo::NodeId> egress_for(std::uint32_t dst_ip) const;

  std::size_t num_prefixes() const { return prefixes_.size(); }
  std::size_t num_encap_entries() const { return encap_.size(); }

  // Introspection for invariant checkers / status renderers: the routes
  // currently installed for one (egress, class), or null when none are.
  const EncapEntry* routes_for(topo::NodeId egress,
                               metrics::PriorityClass priority) const;
  // The full stage-2 table as (egress, class) -> entry pairs, sorted by
  // key so checkers walking it stay reproducible.
  using EncapKey = std::pair<topo::NodeId, int>;
  const std::vector<std::pair<EncapKey, EncapEntry>>& encap_table() const {
    return encap_;
  }

 private:
  // Position of (egress, class) in encap_, or npos.
  static constexpr std::size_t npos = static_cast<std::size_t>(-1);
  std::size_t position(topo::NodeId egress, int cls) const;
  // Points index_ at encap_[pos..] after entries moved.
  void reindex_from(std::size_t pos);

  topo::PrefixTable prefixes_;
  std::vector<std::pair<EncapKey, EncapEntry>> encap_;
  // Parallel to encap_: each entry's running weight sums, accumulated in
  // route order, so a pick scans one flat array and never re-sums.
  std::vector<std::vector<double>> weight_sums_;
  // egress * kNumPriorityClasses + class -> position in encap_ plus one
  // (0 = no entry): the O(1) stage-2 index.
  std::vector<std::uint32_t> index_;
};

// The static transit table of §3.2, decoded instead of stored: label
// k + 16 names directed link k, and router `at` forwards on it only when
// the link leaves `at`. Null for a reserved label, a link id past the
// topology, or another router's link -- a transit miss. Node-segment
// labels are not transit labels; forwarders try the SrFib first.
inline const topo::Link* transit_link(const topo::Topology& topo,
                                      topo::NodeId at, Label label) {
  if (label < kReservedLabels) return nullptr;
  const std::size_t link = label - kReservedLabels;
  if (link >= topo.num_links()) return nullptr;
  const topo::Link& l = topo.links()[link];
  return l.src == at ? &l : nullptr;
}

// One ECMP next hop of a segment entry. Carrying the far-end node makes
// the entry self-contained: checkers and flow evaluation can replay a
// segment walk from dataplane state alone, without the topology.
struct SrNextHop {
  topo::LinkId link = topo::kInvalidLink;
  topo::NodeId next = topo::kInvalidNode;

  bool operator==(const SrNextHop&) const = default;
};

// Segment-routing FIB: node-segment target -> the router's ECMP next
// hops on IGP shortest paths toward it (the IS-IS underlay, §3.2). The
// controller reprograms it from its converged view on every recompute;
// at forward time the dataplane re-picks among the members that are
// still *up*, which is segment routing's local repair -- no FRR splice.
class SrFib {
 public:
  // Replaces the member set for `target` (members sorted by link id for
  // deterministic ECMP picks). An empty vector removes the entry.
  void set_members(topo::NodeId target, std::vector<SrNextHop> members);
  void clear();

  // Null when no entry is programmed for `target`.
  const std::vector<SrNextHop>* members(topo::NodeId target) const;

  std::size_t num_targets() const { return entries_.size(); }
  std::size_t num_next_hops() const;

  // Deterministic iteration for invariant checkers.
  const std::map<topo::NodeId, std::vector<SrNextHop>>& table() const {
    return entries_;
  }

 private:
  std::map<topo::NodeId, std::vector<SrNextHop>> entries_;
};

// Deterministic ECMP pick for segment forwarding: index into the up
// subset of a segment entry's members, hashed from (flow entropy,
// current node) so a flow re-picks independently at every hop but
// identically across the scalar forwarder, the batched pipeline, and
// its slow path (the parity contract).
std::size_t sr_ecmp_pick(std::uint64_t entropy, topo::NodeId at,
                         std::size_t n_up);

// Pre-installed FRR bypasses for this router's local links (§3.2 fault
// tolerance, Appendix C): when an outgoing link dies, the invalid label
// is popped and one of these source routes is prepended, carrying the
// packet to the link's far end. Programmed by the on-box controller,
// which can pick them capacity-aware thanks to its NSU-fed global view.
class BypassFib {
 public:
  // Replaces the bypass set protecting `link`.
  void set_bypasses(topo::LinkId link, std::vector<WeightedRoute> routes);
  void clear();

  // Weighted pick for one flow; nullopt if the link is unprotected.
  std::optional<LabelStack> select(topo::LinkId link,
                                   std::uint64_t entropy) const;

  // Allocation-free variant (see IngressFib::lookup_stack): a pointer to
  // the picked bypass stack, or null when the link is unprotected.
  const LabelStack* select_stack(topo::LinkId link,
                                 std::uint64_t entropy) const;

  bool protects(topo::LinkId link) const;
  std::size_t num_protected_links() const { return bypasses_.size(); }

 private:
  std::unordered_map<topo::LinkId, std::vector<WeightedRoute>> bypasses_;
};

}  // namespace dsdn::dataplane
