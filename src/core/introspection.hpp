#pragma once

// Monitoring/debugging interfaces (§3.3: "additional supporting modules
// provide interfaces for monitoring internal state, debugging, and
// configuration purposes"). Produces operator-readable snapshots of a
// controller's state: StateDb summary, view health, FIB occupancy, and
// the last solve's statistics.

#include <string>

#include "core/controller.hpp"
#include "obs/metrics.hpp"
#include "te/thread_pool.hpp"

namespace dsdn::core {

struct ControllerStatus {
  topo::NodeId self = topo::kInvalidNode;
  std::uint64_t view_digest = 0;
  std::size_t origins_heard = 0;
  std::size_t nsus_accepted = 0;
  std::size_t nsus_rejected_stale = 0;
  std::size_t nsus_rejected_invalid = 0;
  std::size_t links_up_in_view = 0;
  std::size_t links_down_in_view = 0;
  std::size_t prefixes = 0;
  std::size_t encap_entries = 0;
  std::size_t transit_entries = 0;
  std::size_t protected_links = 0;
  // Programming accounting, from the controller's lifetime totals.
  std::size_t recomputes = 0;
  std::size_t routes_installed = 0;
  std::size_t routes_too_deep = 0;
  // Flooding-plane accounting (PR 2's retransmit counters). The flooder
  // is host-owned (the emulation transport), so these arrive via
  // merge_flood_counters() from the host's metrics registry; zero when
  // no host registry was merged.
  std::size_t flood_transmissions = 0;
  std::size_t flood_retransmits = 0;
  std::size_t flood_gave_up = 0;
  std::size_t flood_decode_errors = 0;
  // TE solver health, from the last recompute: demands frozen
  // unsatisfied, split by cause -- no feasible path left (capacity
  // starvation) vs the kMaxRounds cap firing (under-convergence;
  // persistent non-zero = the cap is starving traffic) -- and the
  // warm-start accounting when incremental recompute is enabled.
  std::size_t te_frozen_demands = 0;  // total of the two causes below
  std::size_t te_frozen_no_path = 0;
  std::size_t te_frozen_round_cap = 0;
  // The Fig 15 path table: bytes of the table the router's solver holds
  // (one table may serve many routers; each reports it in full), and how
  // the last solve found its paths -- table walks vs searches.
  std::size_t te_table_bytes = 0;
  std::size_t te_table_paths = 0;
  std::size_t te_path_searches = 0;
  std::size_t te_incremental_solves = 0;
  std::size_t te_full_solves = 0;
  std::size_t te_incremental_fallbacks = 0;
  double te_last_reuse_fraction = 0.0;
};

ControllerStatus collect_status(const Controller& controller);

// Fills the flood_* fields from the "flood.*" counters of the hosting
// transport's registry (e.g. DsdnEmulation::obs()).
void merge_flood_counters(ControllerStatus& status,
                          const obs::Snapshot& host_metrics);

// Multi-line human-readable rendering ("show dsdn status").
std::string render_status(const ControllerStatus& status,
                          const topo::Topology& view);

// One-line per-router fleet summary for a set of controllers.
std::string render_fleet_digest(
    const std::vector<ControllerStatus>& statuses);

// Operator-readable rendering of the TE solver's thread-pool counters
// ("show dsdn te workers"): per-worker tasks and busy time, call counts,
// and the imbalance ratio. Benches use this to report scheduling
// efficiency next to the Fig 13 curves.
std::string render_pool_stats(const te::ThreadPool::Stats& stats);

}  // namespace dsdn::core
