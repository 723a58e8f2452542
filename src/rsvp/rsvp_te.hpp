#pragma once

// RSVP-TE baseline (§2.1, §5.1.2): capacity-aware routing without SDN, as
// in the B2 network. Each headend independently runs CSPF [48] over its
// local view of available capacity and signals the chosen path hop-by-hop
// with RSVP [6], reserving bandwidth at each router. A reservation that
// fails mid-path (someone else grabbed the capacity) triggers a
// crankback: release what was reserved, back off exponentially, retry.
//
// After a link cut, every headend with an affected LSP races to restore
// it simultaneously -- the "signaling stampede" that gives RSVP-TE its
// 45.5 s median and multi-minute tail convergence in the paper.

#include "metrics/distribution.hpp"
#include "sim/event_queue.hpp"
#include "te/dijkstra.hpp"
#include "traffic/matrix.hpp"

namespace dsdn::rsvp {

struct RsvpParams {
  // Crankback retries an LSP makes before it gives up.
  static constexpr std::size_t max_retries = 24;
  std::uint64_t seed = 11;
};

struct RsvpEventResult {
  // Wall-clock (simulated) time from the failure to the last affected LSP
  // being restored (or giving up).
  double convergence_time_s = 0.0;
  // Restore time of each affected LSP.
  metrics::EmpiricalDistribution lsp_restore_times;
  std::size_t affected_lsps = 0;
  std::size_t restored_lsps = 0;
  std::size_t crankbacks = 0;
  std::size_t retries = 0;
};

// A network of RSVP-TE LSPs: one LSP per demand.
class RsvpTeNetwork {
 public:
  RsvpTeNetwork(const topo::Topology* topo, traffic::TrafficMatrix tm,
                const RsvpParams& params);

  // Sequentially establishes all LSPs on the healthy network (no
  // contention: initial setup is paced in practice). Returns the number
  // of LSPs that found a reservable path.
  std::size_t establish_all();

  // Fails the fiber (both directions), runs the restoration stampede to
  // quiescence, and reports. The fiber is left down afterwards; call
  // repair_fiber() to restore it.
  RsvpEventResult fail_fiber(topo::LinkId fiber);
  void repair_fiber(topo::LinkId fiber);

  // Reserved bandwidth per directed link.
  const std::vector<double>& reserved() const { return reserved_; }
  std::size_t established_count() const;

 private:
  struct Lsp {
    te::Path path;          // empty = not established
    double rate_gbps = 0.0;
    std::size_t retries = 0;
  };

  std::optional<te::Path> cspf(topo::NodeId src, topo::NodeId dst,
                               double rate) const;
  void release(Lsp& lsp);
  // Schedules a signaling attempt for LSP i at `when`; on crankback,
  // reschedules with backoff. Updates `result`.
  void attempt_signal(sim::EventQueue& q, std::size_t i, double fail_time,
                      RsvpEventResult& result);

  const topo::Topology* topo_;
  traffic::TrafficMatrix tm_;
  mutable topo::Topology scratch_;  // local mutable view of link state
  std::vector<Lsp> lsps_;
  std::vector<double> reserved_;
  // Per-router signaling queue: the time until which each router's
  // control plane is busy processing earlier RSVP messages.
  std::vector<double> signal_busy_until_;
  util::Rng rng_;
};

}  // namespace dsdn::rsvp
