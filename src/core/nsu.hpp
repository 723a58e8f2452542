#pragma once

// Node State Update (NSU) messages (§3.2).
//
// Each dSDN controller periodically (and on change) snapshots its local
// state -- link status and utilization, attached prefixes, and aggregate
// traffic demands toward each egress router -- and floods it with a
// monotonically increasing sequence number. Listening to everyone else's
// NSUs gives every controller the global view.
//
// NSUs are extensible with opaque TLVs (like IS-IS [39]) so operators can
// ship new controller versions that exchange extra information without
// breaking old ones.

#include <cstdint>
#include <string>
#include <vector>

#include "metrics/slo.hpp"
#include "topo/prefix.hpp"
#include "topo/topology.hpp"

namespace dsdn::core {

struct LinkAdvert {
  topo::LinkId link = topo::kInvalidLink;
  topo::NodeId peer = topo::kInvalidNode;
  bool up = true;
  double capacity_gbps = 0.0;
  double igp_metric = 1.0;
  double delay_s = 0.0;
  // Operator-configured sublabel for this directed link (Appendix A);
  // 0 when the plain per-link-ID encoding is in use.
  std::uint16_t sublabel = 0;
};

struct DemandAdvert {
  topo::NodeId egress = topo::kInvalidNode;
  metrics::PriorityClass priority = metrics::PriorityClass::kHigh;
  double rate_gbps = 0.0;

  bool operator==(const DemandAdvert&) const = default;
};

struct OpaqueTlv {
  std::uint32_t type = 0;
  std::string value;

  bool operator==(const OpaqueTlv&) const = default;
};

struct NodeStateUpdate {
  topo::NodeId origin = topo::kInvalidNode;
  std::uint64_t seq = 0;
  std::vector<LinkAdvert> links;
  std::vector<topo::Prefix> prefixes;
  std::vector<DemandAdvert> demands;
  std::vector<OpaqueTlv> tlvs;
};

enum class NsuValidity {
  kValid,
  kBadOrigin,
  kDuplicateLinkAdvert,
  kNegativeCapacity,
  kNegativeDemand,
  kSelfDemand,  // demand whose egress is the origin itself
  kBadPrefix,
};

// Invariant checks for malformed NSUs (§3.2 fault tolerance): run by
// every receiver before applying; invalid NSUs are dropped, not flooded.
NsuValidity validate_nsu(const NodeStateUpdate& nsu);

// Approximate wire size in bytes (for propagation-cost accounting; the
// paper notes worst-case demand adds ~4KB per router).
std::size_t nsu_wire_size(const NodeStateUpdate& nsu);

}  // namespace dsdn::core
