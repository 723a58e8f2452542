#pragma once

// The LocalState module (§3.3): reads the router's own state -- link
// status/utilization, attached prefixes, and measured aggregate demand --
// and produces the NSU the controller floods. In production this
// subscribes to gNMI telemetry paths on OpenConfig data models; here the
// "hardware" is the ground-truth Topology plus a demand observation,
// injected through a narrow interface so the controller logic is
// identical.

#include "core/nsu.hpp"
#include "traffic/matrix.hpp"

namespace dsdn::core {

// Narrow stand-in for the gNMI subscription surface: what LocalState is
// allowed to see about its own router.
class TelemetrySource {
 public:
  virtual ~TelemetrySource() = default;

  // Current state of this router's outgoing links.
  virtual std::vector<LinkAdvert> read_links(topo::NodeId self) const = 0;
  // Prefixes attached to this router.
  virtual std::vector<topo::Prefix> read_prefixes(topo::NodeId self) const = 0;
  // In-band measured demand originating here, aggregated per
  // (egress router, priority class).
  virtual std::vector<DemandAdvert> read_demands(topo::NodeId self) const = 0;
};

// TelemetrySource backed by the simulation's ground truth.
class SimTelemetry final : public TelemetrySource {
 public:
  SimTelemetry(const topo::Topology* topo,
               const traffic::TrafficMatrix* demands,
               std::vector<topo::Prefix> router_prefixes,
               std::vector<std::uint16_t> sublabels = {});

  std::vector<LinkAdvert> read_links(topo::NodeId self) const override;
  std::vector<topo::Prefix> read_prefixes(topo::NodeId self) const override;
  std::vector<DemandAdvert> read_demands(topo::NodeId self) const override;

 private:
  const topo::Topology* topo_;
  const traffic::TrafficMatrix* demands_;
  std::vector<topo::Prefix> router_prefixes_;  // indexed by NodeId
  std::vector<std::uint16_t> sublabels_;       // indexed by LinkId; optional
};

class LocalState {
 public:
  explicit LocalState(topo::NodeId self) : self_(self) {}

  // Snapshots current local state into a fresh NSU with the next
  // sequence number.
  NodeStateUpdate snapshot(const TelemetrySource& telemetry);

  topo::NodeId self() const { return self_; }

  // Restart recovery: resume sequence numbers above anything the network
  // may have seen from us (learned from a neighbor's StateDb).
  void resume_after(std::uint64_t seq_seen_in_network);

 private:
  topo::NodeId self_;
  std::uint64_t seq_ = 0;
};

}  // namespace dsdn::core
