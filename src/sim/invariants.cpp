#include "sim/invariants.hpp"

#include <algorithm>
#include <functional>
#include <map>

#include "core/upgrade.hpp"
#include "sim/flow_eval.hpp"
#include "te/incremental.hpp"
#include "topo/builder.hpp"
#include "util/format.hpp"

namespace dsdn::sim {
namespace {

void check_converged_views(const DsdnEmulation& emu, InvariantReport& out) {
  ++out.checks_run;
  if (!emu.views_converged()) {
    out.violations.push_back("views diverged: StateDb digests differ");
    return;
  }
  // The agreed view must also be *right*: per-link liveness equal to
  // ground truth (identical-but-wrong views would satisfy the digest).
  const topo::Topology& truth = emu.network();
  const topo::Topology& view = emu.controller(0).state().view();
  for (std::size_t l = 0; l < truth.num_links(); ++l) {
    ++out.checks_run;
    const auto lid = static_cast<topo::LinkId>(l);
    if (view.link(lid).up != truth.link(lid).up) {
      out.violations.push_back(
          "converged view wrong about link " + std::to_string(l) +
          ": view says " + (view.link(lid).up ? "up" : "down") +
          ", ground truth " + (truth.link(lid).up ? "up" : "down"));
    }
  }
}

// Walks one node segment through the installed SrFibs: every ECMP
// branch from `from` must reach `target` over up links without cycling.
// DFS with on-stack marking -- a back edge IS a potential forwarding
// loop, since the ECMP hash can pick any up member.
bool walk_segment(const DsdnEmulation& emu, const topo::Topology& topo,
                  topo::NodeId from, topo::NodeId target,
                  const std::string& where, InvariantReport& out) {
  // 0 = unvisited, 1 = on the DFS stack, 2 = verified to reach target.
  std::vector<char> state(topo.num_nodes(), 0);
  const std::function<bool(topo::NodeId)> dfs = [&](topo::NodeId v) {
    if (v == target) return true;
    if (state[v] == 2) return true;
    if (state[v] == 1) {
      out.violations.push_back(where + ": SR cycle via node " +
                               std::to_string(v) + " toward segment " +
                               std::to_string(target));
      return false;
    }
    state[v] = 1;
    const std::vector<dataplane::SrNextHop>* members =
        emu.at(v).sr.members(target);
    if (!members) {
      out.violations.push_back(where + ": SR FIB miss at node " +
                               std::to_string(v) + " toward segment " +
                               std::to_string(target));
      return false;
    }
    std::size_t n_up = 0;
    for (const dataplane::SrNextHop& m : *members) {
      const topo::Link& l = topo.link(m.link);
      if (l.src != v) {
        out.violations.push_back(where + ": SR entry at node " +
                                 std::to_string(v) + " leaves from node " +
                                 std::to_string(l.src));
        return false;
      }
      if (!l.up) continue;
      ++n_up;
      if (!dfs(l.dst)) return false;
    }
    if (n_up == 0) {
      out.violations.push_back(
          where + ": SR members all down at node " + std::to_string(v) +
          " toward segment " + std::to_string(target) +
          " (stale FIB past convergence)");
      return false;
    }
    state[v] = 2;
    return true;
  };
  return dfs(from);
}

// Replays every installed headend route label-by-label through the
// transit step of the routers it visits: no loops, no down links, no
// transit misses, ends at the route's egress.
void check_fib_walk(const DsdnEmulation& emu, InvariantReport& out) {
  const topo::Topology& topo = emu.network();
  for (topo::NodeId n = 0; n < topo.num_nodes(); ++n) {
    for (const auto& [key, entry] : emu.at(n).ingress.encap_table()) {
      const topo::NodeId egress = key.first;
      std::size_t route_idx = 0;
      for (const dataplane::WeightedRoute& wr : entry.routes) {
        ++out.checks_run;
        const std::string where =
            "router " + std::to_string(n) + " route " +
            std::to_string(route_idx++) + " to egress " +
            std::to_string(egress) + " class " + std::to_string(key.second);
        const auto& labels = wr.stack.labels();
        if (!labels.empty() && dataplane::is_node_segment_label(labels[0])) {
          // Segment-routed: each node segment must be reachable over the
          // installed ECMP DAG (revisits across segments are legal -- a
          // later segment may cross an earlier one's territory -- so the
          // walk state resets per segment).
          topo::NodeId sr_at = n;
          bool sr_broken = false;
          for (dataplane::Label label : labels) {
            if (!dataplane::is_node_segment_label(label)) {
              out.violations.push_back(
                  where + ": mixed segment/strict label stack");
              sr_broken = true;
              break;
            }
            const topo::NodeId target = dataplane::segment_node(label);
            if (target == sr_at) continue;
            if (!walk_segment(emu, topo, sr_at, target, where, out)) {
              sr_broken = true;
              break;
            }
            sr_at = target;
          }
          if (!sr_broken && sr_at != egress) {
            out.violations.push_back(where + ": segment route ends at node " +
                                     std::to_string(sr_at) +
                                     " short of its egress");
          }
          continue;
        }
        std::vector<char> visited(topo.num_nodes(), 0);
        topo::NodeId at = n;
        visited[at] = 1;
        bool broken = false;
        for (dataplane::Label label : wr.stack.labels()) {
          const topo::Link* l = dataplane::transit_link(topo, at, label);
          if (!l) {
            out.violations.push_back(where + ": transit miss at node " +
                                     std::to_string(at) + " (label " +
                                     std::to_string(label) +
                                     " names no link leaving it)");
            broken = true;
            break;
          }
          if (!l->up) {
            out.violations.push_back(
                where + ": installed route crosses down link " +
                std::to_string(l->id) + " (stale FIB past convergence)");
            broken = true;
            break;
          }
          at = l->dst;
          if (visited[at]) {
            out.violations.push_back(where + ": forwarding loop via node " +
                                     std::to_string(at));
            broken = true;
            break;
          }
          visited[at] = 1;
        }
        if (!broken && at != egress) {
          out.violations.push_back(where + ": route ends at node " +
                                   std::to_string(at) +
                                   " short of its egress");
        }
      }
    }
  }
}

// flow_eval over the FIB-derived routing: demands the headend *intended*
// to carry (nonzero allocation in its own solution) must not be
// *structurally* blackholed after reconvergence while their endpoints are
// connected -- no installed route, or every installed path dead. The
// structural pass disables congestion scoring: under oversubscription
// (flow_eval offers full demand rates, the solver admits less) strict
// priority legitimately starves scavenger-class demands to 100% loss on
// healthy, correctly programmed routes. A zero allocation is likewise
// fine (admission control, not a programming bug).
void check_no_blackholes(const DsdnEmulation& emu, InvariantReport& out) {
  const topo::Topology& topo = emu.network();
  const traffic::TrafficMatrix& tm = emu.demands();
  const InstalledRouting routing =
      InstalledRouting::from_dataplane(tm, emu, &topo);
  const LossReport congested = evaluate_loss(topo, tm, routing);
  LossOptions structural_only;
  structural_only.congestion = false;
  const LossReport report =
      evaluate_loss(topo, tm, routing, nullptr, structural_only);

  // Headend intent: per source, (dst, class) -> allocated rate from its
  // own installed solution.
  std::vector<std::map<std::pair<topo::NodeId, int>, double>> intent(
      topo.num_nodes());
  for (topo::NodeId n = 0; n < topo.num_nodes(); ++n) {
    for (const te::Allocation* a :
         emu.controller(n).last_solution().originating_at(n)) {
      intent[n][{a->demand.dst, static_cast<int>(a->demand.priority)}] +=
          a->allocated_gbps;
    }
  }

  std::vector<std::vector<char>> reach(topo.num_nodes());
  const auto& demands = tm.demands();
  for (std::size_t i = 0; i < demands.size(); ++i) {
    if (demands[i].rate_gbps <= 0) continue;
    ++out.checks_run;
    out.max_demand_loss = std::max(out.max_demand_loss, congested.loss[i]);
    if (report.loss[i] < 1.0 - 1e-9) continue;
    const auto it = intent[demands[i].src].find(
        {demands[i].dst, static_cast<int>(demands[i].priority)});
    if (it == intent[demands[i].src].end() || it->second <= 1e-9) continue;
    if (reach[demands[i].src].empty()) {
      reach[demands[i].src] = topo::reachable_over_up_links(
          topo, demands[i].src, topo::Reach::kForward, {});
    }
    if (!reach[demands[i].src][demands[i].dst]) continue;  // partitioned
    out.violations.push_back(
        "persistent blackhole: demand " + std::to_string(i) + " (" +
        std::to_string(demands[i].src) + " -> " +
        std::to_string(demands[i].dst) + " class " +
        std::to_string(static_cast<int>(demands[i].priority)) +
        ") has no working installed path while its endpoints are connected "
        "and its headend allocated " +
        util::format_double(it->second, 3) + "G");
  }
}

// Sums every router's own installed allocations: per-link placed load
// within capacity (+slack), exactly zero on down links.
void check_capacity_conservation(const DsdnEmulation& emu,
                                 InvariantReport& out) {
  constexpr double kSlack = te::DiffChecker::Options::capacity_slack_gbps;
  const topo::Topology& topo = emu.network();
  std::vector<double> placed(topo.num_links(), 0.0);
  for (topo::NodeId n = 0; n < topo.num_nodes(); ++n) {
    const te::Solution& solution = emu.controller(n).last_solution();
    for (const te::Allocation* a : solution.originating_at(n)) {
      for (const te::WeightedPath& wp : a->paths) {
        const double rate = a->allocated_gbps * wp.weight;
        if (rate <= 0) continue;
        for (topo::LinkId lid : wp.path.links) placed[lid] += rate;
      }
    }
  }
  for (std::size_t l = 0; l < topo.num_links(); ++l) {
    ++out.checks_run;
    const topo::Link& link = topo.link(static_cast<topo::LinkId>(l));
    if (!link.up && placed[l] > kSlack) {
      out.violations.push_back(
          "allocated load " + util::format_double(placed[l], 3) +
          "G on down link " + std::to_string(l));
    } else if (placed[l] > link.capacity_gbps + kSlack) {
      out.violations.push_back(
          "link " + std::to_string(l) + " overcommitted: " +
          util::format_double(placed[l], 3) + "G placed on " +
          util::format_double(link.capacity_gbps, 3) + "G capacity");
    }
  }
}

// One router's history-evolved solution vs a from-scratch full solve of
// its current view (the eventual-convergence contract of §3.1, extended
// across arbitrary recompute histories by te::DiffChecker).
void check_cold_solve_parity(const DsdnEmulation& emu,
                             const InvariantOptions& options,
                             InvariantReport& out) {
  const core::Controller& c = emu.controller(0);
  if (c.recomputes() == 0) return;
  ++out.checks_run;
  traffic::TrafficMatrix solved_tm;
  if (options.parity_against_solved_demands) {
    // Rebuild the matrix this solution actually solved (one allocation
    // per input demand, same order): under a deferring recompute policy
    // the live view can be ahead of the installed solution.
    std::vector<traffic::Demand> rows;
    rows.reserve(c.last_solution().allocations.size());
    for (const te::Allocation& a : c.last_solution().allocations) {
      rows.push_back(a.demand);
    }
    solved_tm = traffic::TrafficMatrix(std::move(rows));
  }
  const traffic::TrafficMatrix& parity_tm =
      options.parity_against_solved_demands ? solved_tm : c.state().demands();
  te::DiffChecker::Report report;
  if (!emu.config().algorithms.empty()) {
    // Mixed-algorithm fleet: the stock solver cannot reproduce the
    // placement, so the reference is the same MixedAlgorithmSolver the
    // controllers run, keyed off the *configured* per-router algorithms
    // (identical to the converged TLVs, since every member advertises
    // its configured algorithm).
    const std::vector<core::PathingAlgorithm> algos =
        emu.config().algorithms;
    const core::MixedAlgorithmSolver reference_solver(
        [algos](topo::NodeId node) { return algos.at(node); });
    const te::Solution reference =
        reference_solver.solve(c.state().view(), parity_tm, nullptr);
    report = te::DiffChecker::check_against(c.state().view(), parity_tm,
                                            c.last_solution(), reference,
                                            te::DiffChecker::Options{});
  } else {
    report = te::DiffChecker::check(c.state().view(), parity_tm,
                                    c.last_solution());
  }
  for (const std::string& v : report.violations) {
    out.violations.push_back("cold-solve parity: " + v);
  }
}

}  // namespace

InvariantReport check_invariants(const DsdnEmulation& emu,
                                 const InvariantOptions& options) {
  InvariantReport out;
  check_converged_views(emu, out);
  // A diverged network fails fast: the remaining checkers assume an
  // agreed view (e.g. parity reads controller 0 as a representative).
  if (!out.ok()) return out;
  check_fib_walk(emu, out);
  check_no_blackholes(emu, out);
  check_capacity_conservation(emu, out);
  if (options.check_solution_parity) {
    check_cold_solve_parity(emu, options, out);
  }
  return out;
}

}  // namespace dsdn::sim
