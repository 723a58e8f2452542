#include "core/introspection.hpp"

#include <sstream>

#include "util/format.hpp"

namespace dsdn::core {

namespace {

std::uint64_t counter_or_zero(const obs::Snapshot& s, const char* name) {
  const auto it = s.counters.find(name);
  return it == s.counters.end() ? 0 : it->second;
}

}  // namespace

ControllerStatus collect_status(const Controller& controller) {
  ControllerStatus s;
  s.self = controller.self();
  const StateDb& db = controller.state();
  s.view_digest = db.digest();
  s.origins_heard = db.num_origins();
  s.nsus_accepted = db.accepted();
  s.nsus_rejected_stale = db.rejected_stale();
  s.nsus_rejected_invalid = db.rejected_invalid();
  for (const topo::Link& l : db.view().links()) {
    if (l.up) {
      ++s.links_up_in_view;
    } else {
      ++s.links_down_in_view;
    }
  }
  const auto& hw = controller.dataplane();
  s.prefixes = hw.ingress.num_prefixes();
  s.encap_entries = hw.ingress.num_encap_entries();
  // The transit table is decoded from the label: one entry per out-link.
  s.transit_entries = db.view().node(s.self).out_links.size();
  s.protected_links = hw.bypass.num_protected_links();
  const auto& encap = controller.encap_totals();
  s.recomputes = controller.recomputes();
  s.routes_installed = encap.routes_installed;
  s.routes_too_deep = encap.routes_too_deep;
  s.te_frozen_demands = controller.last_solve_stats().frozen_demands;
  s.te_frozen_no_path = controller.last_solve_stats().frozen_no_path;
  s.te_frozen_round_cap = controller.last_solve_stats().frozen_round_cap;
  s.te_table_bytes = controller.path_table_bytes();
  s.te_table_paths = controller.last_solve_stats().table_paths;
  s.te_path_searches = controller.last_solve_stats().path_searches;
  if (const te::IncrementalSolver* inc = controller.incremental_solver()) {
    s.te_incremental_solves = inc->incremental_solves();
    s.te_full_solves = inc->full_solves();
    s.te_incremental_fallbacks = inc->fallbacks();
    s.te_last_reuse_fraction =
        controller.last_incremental_stats().reuse_fraction;
  }
  return s;
}

void merge_flood_counters(ControllerStatus& s,
                          const obs::Snapshot& host_metrics) {
  s.flood_transmissions =
      counter_or_zero(host_metrics, "flood.transmissions");
  s.flood_retransmits = counter_or_zero(host_metrics, "flood.retransmits");
  s.flood_gave_up = counter_or_zero(host_metrics, "flood.gave_up");
  s.flood_decode_errors =
      counter_or_zero(host_metrics, "flood.decode_errors");
}

std::string render_status(const ControllerStatus& s,
                          const topo::Topology& view) {
  std::ostringstream os;
  os << "dSDN controller @ " << view.node(s.self).name << " (router "
     << s.self << ")\n";
  os << "  view digest     : " << std::hex << s.view_digest << std::dec
     << "\n";
  os << "  origins heard   : " << s.origins_heard << " / "
     << view.num_nodes() << "\n";
  os << "  NSUs            : " << s.nsus_accepted << " accepted, "
     << s.nsus_rejected_stale << " stale, " << s.nsus_rejected_invalid
     << " invalid\n";
  os << "  view link state : " << s.links_up_in_view << " up, "
     << s.links_down_in_view << " down\n";
  os << "  FIBs            : " << s.prefixes << " prefixes, "
     << s.encap_entries << " encap groups, " << s.transit_entries
     << " transit labels, " << s.protected_links << " FRR-protected links\n";
  os << "  programming     : " << s.recomputes << " recomputes, "
     << s.routes_installed << " routes installed, " << s.routes_too_deep
     << " too deep\n";
  os << "  flooding        : " << s.flood_transmissions << " transmissions, "
     << s.flood_retransmits << " retransmits, " << s.flood_gave_up
     << " gave up, " << s.flood_decode_errors << " decode errors\n";
  os << "  TE solver       : " << s.te_frozen_demands
     << " frozen demands (" << s.te_frozen_no_path << " no-path, "
     << s.te_frozen_round_cap << " round-cap); incremental "
     << s.te_incremental_solves << " warm / " << s.te_full_solves
     << " full (" << s.te_incremental_fallbacks << " fallbacks), last reuse "
     << util::format_double(s.te_last_reuse_fraction * 100.0, 1) << "%\n";
  os << "  TE path table   : "
     << util::format_double(static_cast<double>(s.te_table_bytes) / 1e3, 1)
     << " KB; last solve " << s.te_table_paths << " table paths, "
     << s.te_path_searches << " searches\n";
  return os.str();
}

std::string render_pool_stats(const te::ThreadPool::Stats& stats) {
  std::ostringstream os;
  os << "TE thread pool: " << stats.workers << " workers, "
     << stats.parallel_calls << " parallel_for calls ("
     << stats.inline_calls << " inline), " << stats.tasks_executed
     << " tasks, imbalance " << util::format_double(stats.imbalance(), 2)
     << "x\n";
  for (std::size_t w = 0; w < stats.per_worker.size(); ++w) {
    const auto& ws = stats.per_worker[w];
    os << "  worker " << util::pad_left(std::to_string(w), 2)
       << (w + 1 == stats.per_worker.size() ? " (caller)" : "         ")
       << " : " << ws.tasks << " tasks, "
       << util::format_duration(ws.busy_s) << " busy\n";
  }
  return os.str();
}

std::string render_fleet_digest(
    const std::vector<ControllerStatus>& statuses) {
  std::ostringstream os;
  std::size_t converged = 0;
  if (!statuses.empty()) {
    const std::uint64_t head = statuses.front().view_digest;
    for (const auto& s : statuses) {
      if (s.view_digest == head) ++converged;
    }
  }
  os << "fleet: " << statuses.size() << " controllers, " << converged
     << " sharing the lead digest\n";
  for (const auto& s : statuses) {
    os << "  r" << util::pad_left(std::to_string(s.self), 4) << "  digest="
       << std::hex << (s.view_digest >> 40) << std::dec << "..  heard="
       << s.origins_heard << "  encap=" << s.encap_entries << "  frr="
       << s.protected_links << "\n";
  }
  return os.str();
}

}  // namespace dsdn::core
