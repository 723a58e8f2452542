#pragma once

// Control Plane Network model (§2.2): the out-of-band network plus the
// hierarchy of collection services (edge controller, topology service,
// central controller) that a state change must traverse before the cSDN
// TE sees it. We model the end-to-end traversal with the calibrated Tprop
// sampler, and support partitioning a subset of routers from the
// controller -- the "fail static" failure modality of §2.3: a partitioned
// router keeps forwarding on its last-programmed state but can neither
// report events nor receive updates.

#include <unordered_set>

#include "metrics/calibration.hpp"
#include "topo/topology.hpp"

namespace dsdn::csdn {

class ControlPlaneNetwork {
 public:
  // End-to-end event propagation time, router -> central controller.
  double sample_tprop(util::Rng& rng) const {
    return metrics::sample_csdn_tprop(rng);
  }

  // CPN partition management (fail-static scenarios).
  void set_partitioned(topo::NodeId router, bool partitioned);
  bool is_partitioned(topo::NodeId router) const;
  bool can_reach_controller(topo::NodeId router) const {
    return !is_partitioned(router);
  }
  std::size_t num_partitioned() const { return partitioned_.size(); }

 private:
  std::unordered_set<topo::NodeId> partitioned_;
};

}  // namespace dsdn::csdn
