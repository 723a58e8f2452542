#include "sim/packet_score.hpp"

#include <stdexcept>

#include "dataplane/pipeline.hpp"
#include "util/rng.hpp"

namespace dsdn::sim {

PacketScoreReport score_packets(const DsdnEmulation& emu,
                                const PacketScoreOptions& options) {
  const dataplane::SnapshotHub* hub = emu.fib_hub();
  if (!hub)
    throw std::invalid_argument(
        "score_packets: call enable_fib_snapshots() first");

  const auto& demands = emu.demands().demands();
  PacketScoreReport report;
  std::vector<double> weights;
  weights.reserve(demands.size());
  double total = 0.0;
  for (const traffic::Demand& d : demands) {
    const double w = d.src != d.dst && d.rate_gbps > 0 ? d.rate_gbps : 0.0;
    weights.push_back(w);
    total += w;
  }
  if (total <= 0.0) return report;  // nothing to score

  const int ttl =
      options.ttl > 0
          ? options.ttl
          : static_cast<int>(4 * emu.network().num_nodes() + 16);

  util::Rng rng(util::splitmix64(options.seed ^ 0x9AC4E7500ULL));
  std::vector<dataplane::PacketSpec> specs;
  specs.reserve(options.packets);
  for (std::size_t i = 0; i < options.packets; ++i) {
    const traffic::Demand& d = demands[rng.weighted_pick(weights)];
    dataplane::PacketSpec s;
    s.dst_ip = emu.address_of(d.dst);
    s.priority = d.priority;
    s.entropy = rng.engine()();
    s.ttl = ttl;
    s.ingress = d.src;
    specs.push_back(s);
  }

  dataplane::PipelineOptions po;
  po.core = options.core;
  dataplane::BatchPipeline pipeline(emu.network(), hub, po);
  std::vector<dataplane::PacketVerdict> verdicts;
  pipeline.process(specs, verdicts);

  for (std::size_t i = 0; i < verdicts.size(); ++i) {
    const dataplane::PacketVerdict& v = verdicts[i];
    ++report.packets;
    ++report.by_outcome[static_cast<std::size_t>(v.outcome)];
    if (v.outcome == dataplane::ForwardOutcome::kDelivered) {
      ++report.delivered;
    } else if (v.outcome ==
               dataplane::ForwardOutcome::kDroppedNoIngressRoute) {
      ++report.no_ingress_route;
    } else {
      ++report.hard_drops;
      if (report.violations.size() < PacketScoreOptions::max_violations) {
        report.violations.push_back(
            "packet " + std::to_string(i) + " ingress " +
            std::to_string(specs[i].ingress) + " -> node " +
            std::to_string(v.final_node) + ": " +
            dataplane::forward_outcome_name(v.outcome));
      }
    }
  }
  return report;
}

}  // namespace dsdn::sim
