// Segment routing vs strict source routing: the measured trade (§3.2
// coexistence, Fig 8/10/15 workloads).
//
// For Abilene, GEANT (the Fig 15 zoo points) and the B4 stand-in
// (Fig 8's workload), boot two full emulations on the same view -- one
// all-strict fleet, one all-SR fleet -- and measure what each side pays:
//
//   what SR buys (GATED):
//     - stack depth: node-segment stacks are <= 3 labels vs up to 12
//       strict per-link labels;
//     - route-programming bytes: the headend label stacks a controller
//       installs per recompute (4 bytes/label entry), measurably below
//       strict MPLS;
//     - FIB label state: headend stack entries + transit table + (SR
//       only) per-target segment next hops, measurably below strict;
//     - throughput: SrSolver within 10% of the strict TE placement.
//   what SR costs (reported, the honest side of the trade):
//     - blast radius: flows whose installed ECMP expansion crossed a cut
//       fiber -- SR reroutes every flow whose DAG used it, strict only
//       the routes pinned through it (Fig 10's regime);
//     - transient loss in the stale-FIB window after a cut, before any
//       reconvergence: strict stacks pinned through the fiber blackhole
//       (no FRR splice modeled here; Table 2's bench covers FRR), while
//       SR transits locally re-pick among surviving ECMP members.
//
// Exit status is the gate (bench_hier_scale precedent): non-zero when
// any bound is missed, so the tier-1 artifact leg doubles as a tripwire.

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "core/upgrade.hpp"
#include "sim/emulation.hpp"
#include "sim/flow_eval.hpp"
#include "te/segment_routing.hpp"
#include "te/solver.hpp"
#include "topo/zoo.hpp"

using namespace dsdn;

namespace {

struct FibCount {
  std::size_t routes = 0;        // installed headend (egress, class) routes
  std::size_t stack_labels = 0;  // label entries across those stacks
  std::size_t max_depth = 0;
  std::size_t transit = 0;
  std::size_t sr_next_hops = 0;

  // Per-route programming payload: the label stacks a controller writes
  // on recompute (4 bytes per MPLS label entry). Transit and segment
  // tables are excluded on both sides: transit is static per link, and
  // the SR table derives from the IGP underlay, not per-route programming.
  std::size_t route_bytes() const { return 4 * stack_labels; }
  // Total dynamic FIB label state, segment tables included.
  std::size_t fib_entries() const {
    return stack_labels + transit + sr_next_hops;
  }
};

FibCount count_fib(const sim::DsdnEmulation& emu, std::size_t num_nodes) {
  FibCount c;
  for (topo::NodeId n = 0; n < num_nodes; ++n) {
    const auto& dp = emu.at(n);
    for (const auto& [key, entry] : dp.ingress.encap_table()) {
      for (const auto& route : entry.routes) {
        ++c.routes;
        c.stack_labels += route.stack.depth();
        c.max_depth = std::max(c.max_depth, route.stack.depth());
      }
    }
    c.transit += emu.network().node(n).out_links.size();
    c.sr_next_hops += dp.sr.num_next_hops();
  }
  return c;
}

// Duplex representatives: the fiber ids cuts are expressed against.
std::vector<topo::LinkId> fibers_of(const topo::Topology& topo) {
  std::vector<topo::LinkId> fibers;
  for (topo::LinkId l = 0; l < topo.num_links(); ++l) {
    const auto& link = topo.link(l);
    if (link.src < link.dst) fibers.push_back(l);
  }
  return fibers;
}

// Rate-weighted mean loss fraction.
double weighted_loss(const traffic::TrafficMatrix& tm,
                     const sim::LossReport& report) {
  double lost = 0.0, total = 0.0;
  for (std::size_t i = 0; i < tm.size(); ++i) {
    lost += report.loss[i] * tm.demands()[i].rate_gbps;
    total += tm.demands()[i].rate_gbps;
  }
  return total > 0 ? lost / total : 0.0;
}

// Fraction of flows whose installed expansion crosses the fiber (either
// direction of the duplex pair).
double affected_fraction(const topo::Topology& topo,
                         const sim::InstalledRouting& routing,
                         topo::LinkId fiber) {
  const auto& link = topo.link(fiber);
  const topo::LinkId reverse = topo.find_link(link.dst, link.src);
  std::size_t affected = 0;
  for (const auto& row : routing.rows) {
    bool hit = false;
    for (const auto& wp : row) {
      for (const auto l : wp.path.links) {
        if (l == fiber || l == reverse) {
          hit = true;
          break;
        }
      }
      if (hit) break;
    }
    if (hit) ++affected;
  }
  return routing.rows.empty()
             ? 0.0
             : static_cast<double>(affected) /
                   static_cast<double>(routing.rows.size());
}

struct RowResult {
  std::string key;
  double strict_gbps = 0, sr_gbps = 0, gap = 0;
  std::size_t sr_max_stack = 0, strict_max_stack = 0;
  double sr_mean_stack = 0, strict_mean_stack = 0;
  FibCount strict_fib, sr_fib;
  double strict_blast = 0, sr_blast = 0;
  double strict_loss = 0, sr_loss = 0;
  std::size_t cuts = 0;
};

RowResult measure(const std::string& key, const topo::Topology& topo,
                  const traffic::TrafficMatrix& tm, std::size_t max_cuts) {
  RowResult r;
  r.key = key;

  // Placement gap: both solvers on the identical view, identical options
  // (the consensus-free contract -- any router would compute the same).
  const te::Solution strict_sol =
      te::Solver(te::SolverOptions{}).solve(topo, tm);
  const te::Solution sr_sol = te::SrSolver(te::SolverOptions{}).solve(topo, tm);
  r.strict_gbps = strict_sol.total_allocated_gbps();
  r.sr_gbps = sr_sol.total_allocated_gbps();
  r.gap = r.strict_gbps > 0 ? 1.0 - r.sr_gbps / r.strict_gbps : 0.0;

  // Two converged fleets on the same ground truth. The strict fleet is
  // the stock config; the SR fleet assigns kSegmentRouting to every
  // router (bypasses off: SR's repair is the ECMP re-pick, not FRR).
  sim::EmulationConfig strict_cfg;
  sim::DsdnEmulation strict_emu(topo, tm, strict_cfg);
  strict_emu.bootstrap();

  sim::EmulationConfig sr_cfg;
  sr_cfg.use_bypasses = false;
  sr_cfg.algorithms.assign(topo.num_nodes(),
                           core::PathingAlgorithm::kSegmentRouting);
  sim::DsdnEmulation sr_emu(topo, tm, sr_cfg);
  sr_emu.bootstrap();

  r.strict_fib = count_fib(strict_emu, topo.num_nodes());
  r.sr_fib = count_fib(sr_emu, topo.num_nodes());
  r.strict_max_stack = r.strict_fib.max_depth;
  r.sr_max_stack = r.sr_fib.max_depth;
  r.strict_mean_stack =
      r.strict_fib.routes
          ? static_cast<double>(r.strict_fib.stack_labels) /
                static_cast<double>(r.strict_fib.routes)
          : 0.0;
  r.sr_mean_stack = r.sr_fib.routes
                        ? static_cast<double>(r.sr_fib.stack_labels) /
                              static_cast<double>(r.sr_fib.routes)
                        : 0.0;

  // Installed expansions over the healthy topology (SR stacks expand
  // through the routers' SrFibs into concrete underlay paths).
  const auto strict_installed =
      sim::InstalledRouting::from_dataplane(tm, strict_emu, &topo);
  const auto sr_installed =
      sim::InstalledRouting::from_dataplane(tm, sr_emu, &topo);

  // Cut sweep: blast radius on the healthy expansion, transient loss on
  // the stale-FIB expansion against the degraded topology. Structural
  // loss only (congestion off): the question is who blackholes, not who
  // queues.
  const auto fibers = fibers_of(topo);
  const std::size_t stride = std::max<std::size_t>(1, fibers.size() / max_cuts);
  sim::LossOptions loss_options;
  loss_options.congestion = false;
  for (std::size_t i = 0; i < fibers.size(); i += stride) {
    const topo::LinkId fiber = fibers[i];
    ++r.cuts;
    r.strict_blast += affected_fraction(topo, strict_installed, fiber);
    r.sr_blast += affected_fraction(topo, sr_installed, fiber);

    topo::Topology down = topo;
    down.set_duplex_up(fiber, false);
    const auto strict_stale =
        sim::InstalledRouting::from_dataplane(tm, strict_emu, &down);
    const auto sr_stale =
        sim::InstalledRouting::from_dataplane(tm, sr_emu, &down);
    r.strict_loss += weighted_loss(
        tm, sim::evaluate_loss(down, tm, strict_stale, nullptr, loss_options));
    r.sr_loss += weighted_loss(
        tm, sim::evaluate_loss(down, tm, sr_stale, nullptr, loss_options));
  }
  if (r.cuts > 0) {
    r.strict_blast /= static_cast<double>(r.cuts);
    r.sr_blast /= static_cast<double>(r.cuts);
    r.strict_loss /= static_cast<double>(r.cuts);
    r.sr_loss /= static_cast<double>(r.cuts);
  }
  return r;
}

}  // namespace

int main() {
  bench::banner(
      "SR vs strict source routing: stack depth, state, throughput, blast "
      "radius");
  bench::BenchRun run("sr_trade");
  const std::size_t max_cuts = bench::full_scale() ? 1000000 : 16;

  struct RowInput {
    std::string key;
    bench::Workload w;
  };
  std::vector<RowInput> inputs;
  {
    traffic::GravityParams gp;
    gp.seed = 0xF8;
    gp.target_max_utilization = 0.6;
    auto topo = topo::make_abilene();
    auto tm = traffic::generate_gravity(topo, gp).aggregated();
    inputs.push_back({"abilene", {std::move(topo), std::move(tm)}});
  }
  {
    traffic::GravityParams gp;
    gp.seed = 0xF15;
    gp.target_max_utilization = 0.6;
    auto topo = topo::make_geant();
    auto tm = traffic::generate_gravity(topo, gp).aggregated();
    inputs.push_back({"geant", {std::move(topo), std::move(tm)}});
  }
  inputs.push_back({"b4", bench::b4_workload()});

  bool pass = true;
  std::vector<RowResult> rows;
  for (const auto& in : inputs) {
    std::printf("[%s] %zu nodes, %zu links, %zu demands\n", in.key.c_str(),
                in.w.topo.num_nodes(), in.w.topo.num_links(), in.w.tm.size());
    rows.push_back(measure(in.key, in.w.topo, in.w.tm, max_cuts));
    const RowResult& r = rows.back();

    std::printf(
        "  stacks: SR mean %.2f / max %zu labels, strict mean %.2f / max "
        "%zu\n",
        r.sr_mean_stack, r.sr_max_stack, r.strict_mean_stack,
        r.strict_max_stack);
    std::printf(
        "  state:  SR %zu route bytes, %zu FIB label entries (%zu segment "
        "next hops); strict %zu route bytes, %zu FIB label entries\n",
        r.sr_fib.route_bytes(), r.sr_fib.fib_entries(), r.sr_fib.sr_next_hops,
        r.strict_fib.route_bytes(), r.strict_fib.fib_entries());
    std::printf(
        "  place:  SR %.1f / strict %.1f gbps allocated (gap %.2f%%)\n",
        r.sr_gbps, r.strict_gbps, 100.0 * r.gap);
    std::printf(
        "  cuts:   %zu fibers -- blast radius SR %.1f%% vs strict %.1f%% of "
        "flows; stale-window loss SR %.2f%% vs strict %.2f%%\n\n",
        r.cuts, 100.0 * r.sr_blast, 100.0 * r.strict_blast, 100.0 * r.sr_loss,
        100.0 * r.strict_loss);

    if (r.sr_max_stack > 3) {
      std::printf("  [FAIL] %s: SR stack depth %zu > 3\n", r.key.c_str(),
                  r.sr_max_stack);
      pass = false;
    }
    if (r.sr_fib.route_bytes() >= r.strict_fib.route_bytes()) {
      std::printf("  [FAIL] %s: SR route bytes %zu not below strict %zu\n",
                  r.key.c_str(), r.sr_fib.route_bytes(),
                  r.strict_fib.route_bytes());
      pass = false;
    }
    if (r.sr_fib.fib_entries() >= r.strict_fib.fib_entries()) {
      std::printf("  [FAIL] %s: SR FIB entries %zu not below strict %zu\n",
                  r.key.c_str(), r.sr_fib.fib_entries(),
                  r.strict_fib.fib_entries());
      pass = false;
    }
    if (r.gap > 0.10) {
      std::printf("  [FAIL] %s: throughput gap %.1f%% > 10%%\n", r.key.c_str(),
                  100.0 * r.gap);
      pass = false;
    }

    run.out().metric(r.key + "_strict_gbps", r.strict_gbps);
    run.out().metric(r.key + "_sr_gbps", r.sr_gbps);
    run.out().metric(r.key + "_gap_fraction", r.gap);
    run.out().metric(r.key + "_sr_max_stack",
                     static_cast<double>(r.sr_max_stack));
    run.out().metric(r.key + "_sr_mean_stack", r.sr_mean_stack);
    run.out().metric(r.key + "_strict_mean_stack", r.strict_mean_stack);
    run.out().metric(r.key + "_sr_route_bytes",
                     static_cast<double>(r.sr_fib.route_bytes()));
    run.out().metric(r.key + "_strict_route_bytes",
                     static_cast<double>(r.strict_fib.route_bytes()));
    run.out().metric(r.key + "_sr_fib_entries",
                     static_cast<double>(r.sr_fib.fib_entries()));
    run.out().metric(r.key + "_strict_fib_entries",
                     static_cast<double>(r.strict_fib.fib_entries()));
    run.out().metric(r.key + "_sr_blast_fraction", r.sr_blast);
    run.out().metric(r.key + "_strict_blast_fraction", r.strict_blast);
    run.out().metric(r.key + "_sr_transient_loss", r.sr_loss);
    run.out().metric(r.key + "_strict_transient_loss", r.strict_loss);
  }

  double worst_gap = 0, worst_bytes_ratio = 0, worst_fib_ratio = 0;
  double sr_max_stack = 0;
  for (const RowResult& r : rows) {
    worst_gap = std::max(worst_gap, r.gap);
    sr_max_stack = std::max(sr_max_stack, static_cast<double>(r.sr_max_stack));
    if (r.strict_fib.route_bytes() > 0)
      worst_bytes_ratio = std::max(
          worst_bytes_ratio, static_cast<double>(r.sr_fib.route_bytes()) /
                                 static_cast<double>(r.strict_fib.route_bytes()));
    if (r.strict_fib.fib_entries() > 0)
      worst_fib_ratio = std::max(
          worst_fib_ratio, static_cast<double>(r.sr_fib.fib_entries()) /
                               static_cast<double>(r.strict_fib.fib_entries()));
  }
  run.out().param("topologies", static_cast<std::uint64_t>(rows.size()));
  run.out().param("max_cuts", static_cast<std::uint64_t>(max_cuts));
  run.out().param("full_scale", bench::full_scale());
  run.out().metric("worst_gap_fraction", worst_gap);
  run.out().metric("sr_max_stack_depth", sr_max_stack);
  run.out().metric("worst_route_bytes_ratio", worst_bytes_ratio);
  run.out().metric("worst_fib_entries_ratio", worst_fib_ratio);
  run.out().metric("gates_passed", pass ? 1.0 : 0.0);

  std::printf("%s: SR %s the <= 3-label / below-strict-state / <= 10%% gap "
              "gates (worst gap %.1f%%, route-bytes ratio %.2f, FIB ratio "
              "%.2f)\n",
              pass ? "PASS" : "FAIL", pass ? "clears" : "misses",
              100.0 * worst_gap, worst_bytes_ratio, worst_fib_ratio);
  return pass ? 0 : 1;
}
