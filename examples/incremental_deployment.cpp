// Incremental deployment (§3.2): dSDN's first deployment step keeps cSDN
// as the primary controller and runs dSDN as the backup underlay (in
// place of IS-IS). This example shows why that matters: when the cSDN
// control plane is partitioned from the routers (a CPN failure, §2.3),
// cSDN "fails static" -- its last-programmed routes go stale -- while the
// dSDN underlay, which fate-shares with the data plane, keeps
// reconverging. Routers fall back to dSDN-programmed paths and traffic
// keeps flowing.
//
//   $ ./example_incremental_deployment

#include <cstdio>

#include "csdn/controller.hpp"
#include "sim/emulation.hpp"
#include "topo/zoo.hpp"
#include "traffic/gravity.hpp"

using namespace dsdn;

namespace {

// Primary/backup layered data plane: cSDN-programmed tables are used
// while the cSDN control plane is healthy; dSDN's on-box tables take
// over when it is not.
class LayeredProvider final : public dataplane::DataplaneProvider {
 public:
  LayeredProvider(const dataplane::VectorDataplanes* primary,
                  const sim::DsdnEmulation* backup)
      : primary_(primary), backup_(backup) {}

  void set_csdn_healthy(bool healthy) { csdn_healthy_ = healthy; }

  const dataplane::RouterDataplane& at(topo::NodeId node) const override {
    return csdn_healthy_ ? primary_->at(node) : backup_->at(node);
  }

 private:
  const dataplane::VectorDataplanes* primary_;
  const sim::DsdnEmulation* backup_;
  bool csdn_healthy_ = true;
};

}  // namespace

int main() {
  topo::Topology topo = topo::make_geant();
  traffic::GravityParams gp;
  gp.pair_fraction = 0.5;
  traffic::TrafficMatrix tm = traffic::generate_gravity(topo, gp).aggregated();
  const auto prefixes = topo::assign_router_prefixes(topo);

  // --- dSDN underlay: real on-box controllers, always converging. ---
  sim::DsdnEmulation underlay(topo, tm);
  underlay.bootstrap();
  std::printf("dSDN underlay bootstrapped: %zu controllers, views "
              "identical: %s\n",
              underlay.network().num_nodes(),
              underlay.views_converged() ? "yes" : "no");

  // --- cSDN primary: central solve, programmed into its own tables. ---
  csdn::CsdnController central(&topo, 0x1DEA);
  dataplane::VectorDataplanes primary(topo.num_nodes());
  auto program_primary = [&](const te::Solution& solution) {
    for (topo::NodeId n = 0; n < topo.num_nodes(); ++n) {
      auto& rd = primary.mutable_at(n);
      rd.ingress.clear_routes();
      for (topo::NodeId m = 0; m < topo.num_nodes(); ++m) {
        rd.ingress.set_prefix(prefixes[m], m);
      }
    }
    for (const auto& a : solution.allocations) {
      dataplane::EncapEntry entry;
      for (const auto& wp : a.paths) {
        if (wp.path.hops() > dataplane::kMaxLabelDepth) continue;
        entry.routes.push_back(
            {dataplane::encode_strict_route(wp.path), wp.weight});
      }
      if (!entry.routes.empty()) {
        primary.mutable_at(a.demand.src)
            .ingress.set_routes(a.demand.dst, a.demand.priority,
                                std::move(entry));
      }
    }
  };
  program_primary(central.solve(tm));
  std::printf("cSDN primary programmed from the central solve.\n\n");

  LayeredProvider layered(&primary, &underlay);

  auto probe = [&](const char* label) {
    const dataplane::Forwarder fwd(underlay.network(), &layered);
    std::size_t ok = 0, total = 0;
    util::Rng rng(7);
    for (int i = 0; i < 400; ++i) {
      const auto& d = rng.pick(tm.demands());
      dataplane::Packet pkt;
      pkt.dst_ip = topo::host_in(prefixes[d.dst]);
      pkt.priority = d.priority;
      pkt.entropy = util::splitmix64(static_cast<std::uint64_t>(i));
      pkt.ttl = 255;
      const auto r = fwd.forward(std::move(pkt), d.src);
      ++total;
      if (r.outcome == dataplane::ForwardOutcome::kDelivered) ++ok;
    }
    std::printf("%-44s delivery %zu/%zu\n", label, ok, total);
  };

  probe("healthy, cSDN primary:");

  // --- Incident: a CPN failure partitions the central controller right
  //     before a fiber cut. cSDN cannot reprogram anything: fail static.
  std::printf("\n*** CPN partition: central controller unreachable ***\n");
  const topo::LinkId fiber = underlay.network().find_link(
      5, underlay.network().up_neighbors(5).front());
  std::printf("*** fiber cut: %s <-> %s ***\n",
              topo.node(underlay.network().link(fiber).src).name.c_str(),
              topo.node(underlay.network().link(fiber).dst).name.c_str());

  // The dSDN underlay reconverges on its own (in-band NSUs need no CPN).
  underlay.fail_fiber(fiber);
  std::printf("dSDN underlay reconverged in-band: views identical: %s\n\n",
              underlay.views_converged() ? "yes" : "no");

  probe("after cut, cSDN primary (failed static):");
  layered.set_csdn_healthy(false);
  probe("after cut, dSDN backup engaged:");

  std::printf("\nthe backup underlay is capacity-aware TE, not "
              "shortest-path IS-IS -- the first-step benefit §3.2 claims "
              "for incremental deployment.\n");
  return 0;
}
