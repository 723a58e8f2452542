#pragma once

// Packet-level forwarding across the simulated WAN data plane: the life of
// a packet from Fig 5. The headend performs the two-stage ingress lookup
// and pushes the label stack; transit routers pop the outer label and
// forward on the named link; a down link triggers local FRR repair.

#include "dataplane/fib.hpp"
#include "dataplane/frr.hpp"

namespace dsdn::dataplane {

// One router's programmed tables. Transit needs none: the label decodes
// to the out-link (transit_link).
struct RouterDataplane {
  IngressFib ingress;
  BypassFib bypass;
  SrFib sr;  // node-segment entries (empty unless the fleet runs SR)
};

// Where the forwarder reads each router's tables from. Implemented over a
// plain vector, over live controllers in the emulation, or over one
// published FibSnapshot.
class DataplaneProvider {
 public:
  virtual ~DataplaneProvider() = default;
  virtual const RouterDataplane& at(topo::NodeId node) const = 0;
  // Per-link up flags as this provider's dataplane saw them when they
  // were published, or null when the provider tracks the live topology
  // (the forwarder then reads Link::up).
  virtual const std::vector<char>* link_up() const { return nullptr; }
};

class VectorDataplanes final : public DataplaneProvider {
 public:
  explicit VectorDataplanes(std::size_t n) : routers_(n) {}

  RouterDataplane& mutable_at(topo::NodeId node) { return routers_.at(node); }
  const RouterDataplane& at(topo::NodeId node) const override {
    return routers_.at(node);
  }
  std::size_t size() const { return routers_.size(); }

 private:
  std::vector<RouterDataplane> routers_;
};

enum class ForwardOutcome {
  kDelivered,
  kDroppedNoIngressRoute,   // headend has no route to the destination
  kDroppedUnknownLabel,     // transit miss (malformed/stale route)
  kDroppedLinkDownNoBypass, // hit a dead link and FRR had no path
  kDroppedTtlExpired,
  kDroppedNotLocal,         // stack ran out at a router not owning the dst
  kDroppedLoop,             // exceeded the topology hop bound (FIB cycle)
};

const char* forward_outcome_name(ForwardOutcome o);

// A walk that takes more hops than this on an n-node topology must be
// cycling: strict source routes are bounded by the label-depth limits and
// each FRR splice only detours around one link. Matches the TTL budget the
// sublabel walk uses. A caller-supplied ttl below the bound still wins
// (kDroppedTtlExpired), preserving small-ttl semantics.
inline std::size_t forward_hop_bound(const topo::Topology& topo) {
  return 4 * topo.num_nodes() + 8;
}

struct ForwardResult {
  ForwardOutcome outcome = ForwardOutcome::kDroppedNoIngressRoute;
  topo::NodeId final_node = topo::kInvalidNode;
  double latency_s = 0.0;     // accumulated propagation delay
  std::size_t hops = 0;
  std::size_t frr_activations = 0;
  std::vector<topo::NodeId> trace;  // nodes visited, ingress first
};

class Forwarder {
 public:
  // `provider` must outlive the Forwarder.
  Forwarder(const topo::Topology& topo, const DataplaneProvider* provider);

  // Injects `packet` at `ingress_node` and walks it to completion.
  ForwardResult forward(Packet packet, topo::NodeId ingress_node) const;

 private:
  const topo::Topology& topo_;
  const DataplaneProvider* provider_;
};

}  // namespace dsdn::dataplane
