#pragma once

// WAN topology model.
//
// Routers (nodes) are joined by *directed* links: dSDN's data plane
// addresses each direction of a fiber independently (a source route is a
// sequence of directed-link IDs), and capacities/failures are tracked per
// direction. add_duplex() creates both directions and cross-links them so
// that fiber-cut events can take both down together.
//
// Nodes carry a metro tag (flow groups are keyed by metro pairs, §5.2) and
// a gravity weight used by the traffic generator.

#include <cstdint>
#include <limits>
#include <span>
#include <string>
#include <vector>

namespace dsdn::topo {

using NodeId = std::uint32_t;
using LinkId = std::uint32_t;

inline constexpr NodeId kInvalidNode = std::numeric_limits<NodeId>::max();
inline constexpr LinkId kInvalidLink = std::numeric_limits<LinkId>::max();

struct Node {
  NodeId id = kInvalidNode;
  std::string name;
  std::string metro;        // metro area grouping, e.g. "nyc"
  double gravity_weight = 1.0;  // relative traffic mass for gravity model
  std::vector<LinkId> out_links;
  std::vector<LinkId> in_links;
};

struct Link {
  LinkId id = kInvalidLink;
  NodeId src = kInvalidNode;
  NodeId dst = kInvalidNode;
  double capacity_gbps = 100.0;
  double igp_metric = 1.0;
  double delay_s = 0.001;   // one-way propagation delay
  bool up = true;
  LinkId reverse = kInvalidLink;  // paired opposite-direction link, if any
};

class Topology {
 public:
  NodeId add_node(std::string name, std::string metro = "",
                  double gravity_weight = 1.0);

  // Adds one directed link. Returns its id. Throws std::invalid_argument
  // on a self loop, capacity <= 0, or an igp_metric that is not finite
  // and > 0.
  LinkId add_link(NodeId src, NodeId dst, double capacity_gbps,
                  double igp_metric = 1.0, double delay_s = 0.001);

  // Adds a directed link pair (both directions, cross-referenced).
  // Returns the forward link's id; the reverse is `reverse` of it.
  LinkId add_duplex(NodeId a, NodeId b, double capacity_gbps,
                    double igp_metric = 1.0, double delay_s = 0.001);

  std::size_t num_nodes() const { return nodes_.size(); }
  std::size_t num_links() const { return links_.size(); }

  const Node& node(NodeId id) const;
  const Link& link(LinkId id) const;

  std::span<const Node> nodes() const { return nodes_; }
  std::span<const Link> links() const { return links_; }

  // Marks a single directed link up/down.
  void set_link_up(LinkId id, bool up);
  // Takes a duplex pair down/up together (fiber cut / repair).
  void set_duplex_up(LinkId id, bool up);

  // Changes a directed link's capacity (partial capacity loss/restore).
  void set_link_capacity(LinkId id, double capacity_gbps);
  // Applies to both directions of a duplex pair.
  void set_duplex_capacity(LinkId id, double capacity_gbps);

  // Out-neighbors of `n` reachable over *up* links.
  std::vector<NodeId> up_neighbors(NodeId n) const;

  // Maximum out-degree over all nodes (counting all links, up or down);
  // bounds the sublabel table size (Appendix A).
  std::size_t max_degree() const;

  // Returns the id of an up link src->dst, or kInvalidLink.
  LinkId find_link(NodeId src, NodeId dst) const;

  // All metros present, deduplicated, in first-seen order.
  std::vector<std::string> metros() const;

  // Structural sanity: endpoints valid, reverse pointers consistent,
  // adjacency lists consistent. Throws std::logic_error on violation.
  void validate() const;

 private:
  std::vector<Node> nodes_;
  std::vector<Link> links_;
};

}  // namespace dsdn::topo
