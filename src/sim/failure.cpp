#include "sim/failure.hpp"

#include <algorithm>

namespace dsdn::sim {

std::vector<NetEvent> generate_failures(const topo::Topology& topo,
                                        const FailureParams& params) {
  util::Rng rng(params.seed);
  const double horizon_s = params.days * 86400.0;
  const double mttf_s =
      params.mttf_days * 86400.0 / std::max(1e-9, params.churn_multiplier);
  const double mttr_s = FailureParams::mttr_hours * 3600.0;

  std::vector<NetEvent> events;
  for (const topo::Link& l : topo.links()) {
    // One process per fiber: the duplex representative.
    const bool representative =
        l.reverse == topo::kInvalidLink || l.id < l.reverse;
    if (!representative) continue;
    double t = rng.exponential(mttf_s);
    while (t < horizon_s) {
      events.push_back(NetEvent{t, l.id, false});
      const double repair = t + rng.exponential(mttr_s);
      if (repair >= horizon_s) break;
      events.push_back(NetEvent{repair, l.id, true});
      t = repair + rng.exponential(mttf_s);
    }
  }
  std::sort(events.begin(), events.end(),
            [](const NetEvent& a, const NetEvent& b) {
              if (a.time_s != b.time_s) return a.time_s < b.time_s;
              return a.fiber < b.fiber;
            });
  return events;
}

}  // namespace dsdn::sim
