#pragma once

// Sharded dSDN runtime (§6): the paper observes that EBB's sharding
// principle is orthogonal to dSDN -- "dSDN could run on a horizontally
// sharded network (akin to EBB), thus containing data plane failures to
// a single shard." The WAN is built as K parallel planes: every router
// participates in every plane, but each plane has its own fibers. Each
// plane is a full dSDN instance (flooding, StateDbs, TE, FIBs), so a
// fiber cut or a controller fault in plane k is invisible to the other
// K-1 planes. Planes run concurrently on the runtime's own te::ThreadPool
// (one thread per plane), with cross-plane demand placement and
// rebalancing when a plane dies.
//
// Placement is rendezvous (HRW) hashing over the *live* plane set: each
// flow key scores every plane and picks the argmax. With all planes
// alive this is a uniform stable assignment; when plane p fails, exactly
// the flows whose argmax was p re-place onto survivors (no unrelated flow
// moves), and when p returns the same flows -- and only they -- move
// back. That is what bounds blast radius at 1/K of flows.
//
// Rebalance protocol (drain -> re-place -> reprogram):
//   1. drain: the dead plane's demand rows are removed from its matrix;
//   2. re-place: each drained flow re-runs HRW over the survivors;
//   3. reprogram: every plane that gained flows gets update_demands()
//      (re-advertise changed origins, flood, recompute) -- run in
//      parallel across planes on the plane pool;
//   4. score: packet-level transient-loss check via sim::score_packets
//      on every surviving plane's RCU FIB snapshots.

#include <cstdint>
#include <memory>
#include <vector>

#include "sim/emulation.hpp"
#include "sim/packet_score.hpp"

namespace dsdn::hier {

// Splits a base topology into `k` parallel planes (EBB-style striping):
// the node set is shared and every base link appears once per plane, with
// the same link id, endpoints, metric and delay, and 1/k of its capacity
// (the k stripes sum to the base capacity exactly). A duplex fiber stays
// duplex and a simplex link stays simplex, so a base link id names the
// same link in every plane.
std::vector<topo::Topology> make_planes(const topo::Topology& base,
                                        std::size_t k);

// Rendezvous hash: the live plane with the highest per-flow score.
// `alive[p] != 0` marks live planes; at least one must be alive.
std::size_t place_flow(topo::NodeId src, topo::NodeId dst,
                       metrics::PriorityClass priority,
                       const std::vector<char>& alive);

// Every plane runs a default sim::EmulationConfig.
struct PlaneRuntimeConfig {
  std::size_t planes = 4;
  // RCU snapshot cores per plane (0 disables snapshots and packet
  // scoring).
  std::size_t fib_cores = 1;
  // Packets scored per surviving plane after a rebalance (0 disables).
  std::size_t score_packets = 512;
};

struct RebalanceReport {
  std::size_t moved_flows = 0;
  double moved_gbps = 0.0;
  // moved_flows / total flows -- the blast radius; < 1/K in expectation.
  double exposed_fraction = 0.0;
  std::size_t reprogrammed_planes = 0;
  // Packet scoring over the surviving planes (when enabled).
  std::size_t scored_packets = 0;
  std::size_t score_hard_drops = 0;
};

class PlaneRuntime {
 public:
  PlaneRuntime(const topo::Topology& base, const traffic::TrafficMatrix& tm,
               PlaneRuntimeConfig config = {});

  // Boots every plane, in parallel on the plane pool.
  void bootstrap();

  std::size_t num_planes() const { return planes_.size(); }
  std::size_t num_alive() const;
  bool plane_alive(std::size_t p) const { return alive_.at(p) != 0; }

  sim::DsdnEmulation& plane(std::size_t p) { return *planes_.at(p); }
  const sim::DsdnEmulation& plane(std::size_t p) const {
    return *planes_.at(p);
  }
  // Demand rows currently placed on plane p (drained while p is dead).
  const std::vector<traffic::Demand>& plane_demands(std::size_t p) const {
    return demands_.at(p);
  }

  // Live-set HRW placement for a flow key (packets and demands agree).
  std::size_t plane_of(topo::NodeId src, topo::NodeId dst,
                       metrics::PriorityClass priority) const;

  // Plane-local fiber events (the other planes' parallel fibers are
  // untouched -- the containment property).
  void fail_fiber_in_plane(std::size_t p, topo::LinkId fiber);
  void repair_fiber_in_plane(std::size_t p, topo::LinkId fiber);

  // Cross-plane SRLG: planes stripe the same physical conduits, so a
  // conduit cut takes the parallel fiber down in *every* live plane
  // (plane topologies share link ids by construction).
  void fail_conduit(topo::LinkId fiber);
  void repair_conduit(topo::LinkId fiber);

  // Kills plane p and rebalances its flows onto the survivors
  // (drain -> re-place -> reprogram -> score). Throws if p is the last
  // live plane.
  RebalanceReport fail_plane(std::size_t p);
  // Brings p back: exactly the flows whose all-planes HRW argmax is p
  // move home, and every touched plane reprograms.
  RebalanceReport restore_plane(std::size_t p);

  // Forwards one packet on the plane its flow hashes to, reading that
  // plane's published RCU FIB snapshot when snapshots are enabled (the
  // plane-aware SnapshotHub path), else the plane's live FIBs.
  dataplane::ForwardResult send_packet(
      topo::NodeId ingress, topo::NodeId dst,
      metrics::PriorityClass priority = metrics::PriorityClass::kHigh,
      std::uint64_t entropy = 1) const;

  // True iff every *live* plane's views are internally converged.
  bool all_planes_converged() const;

  // Total demand rows / rate across live planes (conservation checks).
  std::size_t total_flows() const;
  double total_rate_gbps() const;

  const PlaneRuntimeConfig& config() const { return config_; }

 private:
  // Pushes demands_[p] into plane p's emulation for every p in `touched`,
  // parallel across planes on the pool.
  void reprogram(const std::vector<std::size_t>& touched);
  void score_survivors(RebalanceReport& report) const;

  PlaneRuntimeConfig config_;
  std::vector<std::unique_ptr<sim::DsdnEmulation>> planes_;
  std::vector<std::vector<traffic::Demand>> demands_;
  std::vector<char> alive_;
  // One thread per plane for bootstrap and reprogramming; each plane's
  // emulation recomputes its fleet on a pool of its own.
  std::unique_ptr<te::ThreadPool> pool_;
};

}  // namespace dsdn::hier
