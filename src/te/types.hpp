#pragma once

// Shared path/allocation types for the TE layer.
//
// A Path is a sequence of *directed link ids* -- exactly the representation
// a dSDN headend compiles into an MPLS label stack (§3.2). Keeping link
// ids (not node ids) makes parallel links unambiguous and the dataplane
// encoding trivial.

#include <string>
#include <vector>

#include "metrics/slo.hpp"
#include "topo/topology.hpp"
#include "traffic/matrix.hpp"

namespace dsdn::te {

struct Path {
  std::vector<topo::LinkId> links;

  bool empty() const { return links.empty(); }
  std::size_t hops() const { return links.size(); }

  topo::NodeId src(const topo::Topology& topo) const;
  topo::NodeId dst(const topo::Topology& topo) const;

  double igp_cost(const topo::Topology& topo) const;
  double latency_s(const topo::Topology& topo) const;

  // True iff consecutive links share endpoints, every link is up, and no
  // node repeats (loop-free).
  bool is_valid(const topo::Topology& topo) const;

  // Node sequence src, ..., dst (empty path -> empty).
  std::vector<topo::NodeId> node_sequence(const topo::Topology& topo) const;

  std::string to_string(const topo::Topology& topo) const;

  bool operator==(const Path&) const = default;
};

// One weighted path assignment for a demand. A demand may be split across
// several paths; weights are the fraction of the demand's *allocated*
// rate on each path.
struct WeightedPath {
  Path path;
  double weight = 1.0;
  // Non-empty iff this path was placed by the segment-routing solver: the
  // node-segment stack (1-3 middlepoints then the egress, outermost
  // first). `path` then holds ONE concrete ECMP expansion of the segment
  // route (for capacity accounting); the dataplane encodes `segments`,
  // not `path`, and fans out over the underlay ECMP DAG per segment.
  std::vector<topo::NodeId> segments;

  bool operator==(const WeightedPath&) const = default;
};

// TE's output for a single demand.
struct Allocation {
  traffic::Demand demand;
  // Rate actually admitted (<= demand.rate_gbps when capacity is short).
  double allocated_gbps = 0.0;
  std::vector<WeightedPath> paths;

  // Adds `sign` times the rate this allocation places on each link to
  // per_link[link]: +1 sums placed load, -1 deducts it from residuals.
  // Every per-link load sum (residuals, the checkers, the warm solver's
  // release) goes through here, so they all add in one order.
  void add_load(double sign, std::vector<double>& per_link) const;
};

// The full TE solution: one Allocation per input demand, same order.
struct Solution {
  std::vector<Allocation> allocations;

  // Residual capacity per link after placing the solution.
  std::vector<double> residual_capacity(const topo::Topology& topo) const;

  // Max over links of placed_load / capacity.
  double max_utilization(const topo::Topology& topo) const;

  // Sum over demands of allocated rate.
  double total_allocated_gbps() const;

  // Allocations whose demand originates at `src` -- the subset a dSDN
  // headend programs (§3.2: "selects the subset of paths that start at R").
  std::vector<const Allocation*> originating_at(topo::NodeId src) const;
};

}  // namespace dsdn::te
