#pragma once

// Failure/repair workload generation standing in for the paper's replayed
// production failure logs (§5.2): each duplex fiber fails as a Poisson
// process and repairs after an exponential holding time. The churn
// multiplier scales failure rates uniformly (Fig 11's 10x / 20x stress).

#include <vector>

#include "topo/topology.hpp"
#include "util/rng.hpp"

namespace dsdn::sim {

struct NetEvent {
  double time_s = 0.0;
  topo::LinkId fiber = topo::kInvalidLink;  // duplex representative link
  bool up = false;                          // false = failure, true = repair
};

struct FailureParams {
  double days = 30.0;
  // Mean time between failures for one fiber, in days (baseline rate).
  double mttf_days = 120.0;
  // Mean time to repair, in hours.
  static constexpr double mttr_hours = 4.0;
  // Fig 11's churn multiplier: scales the failure rate.
  double churn_multiplier = 1.0;
  std::uint64_t seed = 7;
};

// Generates a time-ordered event stream over the duplex fibers of the
// topology. A fiber that is down cannot fail again until repaired.
std::vector<NetEvent> generate_failures(const topo::Topology& topo,
                                        const FailureParams& params);

}  // namespace dsdn::sim
