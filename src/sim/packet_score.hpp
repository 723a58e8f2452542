#pragma once

// Packet-level scoring of a converged network through the batched
// dataplane: samples packets from the demand matrix (weighted by rate),
// drives them through a BatchPipeline over the emulation's RCU FIB
// snapshots, and classifies the outcomes.
//
// At a quiescent point every router has recomputed on the same view, so
// the only acceptable outcomes are kDelivered and kDroppedNoIngressRoute
// (a headend can legitimately have no feasible route while the network
// is degraded). Anything else -- unknown labels, loops, packets walking
// into down links with no bypass -- is a forwarding bug or a stale FIB,
// exactly what the structural fib-walk invariant asserts can't happen;
// this is the packet-level cross-check of that claim, and of
// flow_eval's structural loss scoring.

#include <array>
#include <string>

#include "sim/emulation.hpp"

namespace dsdn::sim {

struct PacketScoreOptions {
  std::size_t packets = 2048;
  std::size_t core = 0;     // SnapshotHub slot to forward from
  std::uint64_t seed = 1;   // sampling stream (deterministic)
  int ttl = 0;              // 0 = the emulation's default budget (4n+16)
  static constexpr std::size_t max_violations = 5;  // reported examples
};

struct PacketScoreReport {
  std::size_t packets = 0;
  std::size_t delivered = 0;
  std::size_t no_ingress_route = 0;  // acceptable while degraded
  std::size_t hard_drops = 0;        // everything else: a violation
  // Counts by ForwardOutcome enum value.
  std::array<std::size_t, 8> by_outcome{};
  std::vector<std::string> violations;  // first few offending packets

  bool ok() const { return hard_drops == 0; }
};

// Requires emu.enable_fib_snapshots() to have been called (throws
// otherwise). Pure function of (emulation state, options).
PacketScoreReport score_packets(const DsdnEmulation& emu,
                                const PacketScoreOptions& options = {});

}  // namespace dsdn::sim
