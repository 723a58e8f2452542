// Ablation: dSDN as an underlay vs an IS-IS-like underlay (§3.2,
// incremental deployment). The first deployment step replaces IS-IS with
// dSDN while cSDN stays primary; the claimed benefit is "a
// better-performing underlay, since TE implements capacity-aware path
// selection while IS-IS does not."
//
// We quantify exactly that: place the same demands with (a)
// capacity-oblivious IGP shortest paths (IS-IS) and (b) the TE solver
// (dSDN underlay), on the healthy network and across failure scenarios,
// and compare congestion and SLO damage.

#include "bench_common.hpp"
#include "sim/convergence.hpp"
#include "sim/flow_eval.hpp"
#include "te/solver.hpp"

using namespace dsdn;

namespace {

// All demands on IGP shortest paths, oblivious to capacity: walks over
// `paths`, the tables of the scenario's view.
sim::InstalledRouting shortest_path_routing(const te::PathTables& paths,
                                            const traffic::TrafficMatrix& tm) {
  sim::InstalledRouting routing;
  routing.rows.resize(tm.size());
  for (std::size_t i = 0; i < tm.size(); ++i) {
    const auto& d = tm.demands()[i];
    te::Path p;
    if (paths.up_path(d.src, d.dst, p.links))
      routing.rows[i].push_back(te::WeightedPath{std::move(p), 1.0, {}});
  }
  return routing;
}

struct Outcome {
  double max_util = 0.0;
  double lost_gbps = 0.0;
  double violating_groups = 0.0;  // over all classes
};

Outcome measure(const topo::Topology& topo, const traffic::TrafficMatrix& tm,
                const sim::InstalledRouting& routing,
                const std::vector<std::vector<traffic::FlowGroup>>& groups) {
  const auto report = sim::evaluate_loss(topo, tm, routing);
  Outcome out;
  for (double u : report.utilization) out.max_util = std::max(out.max_util, u);
  for (std::size_t i = 0; i < tm.size(); ++i) {
    out.lost_gbps += report.loss[i] * tm.demands()[i].rate_gbps;
  }
  double blast = 0.0;
  for (const auto& class_groups : groups) {
    blast += sim::blast_radius(tm, class_groups, report) *
             static_cast<double>(class_groups.size());
  }
  out.violating_groups = blast;
  return out;
}

}  // namespace

int main() {
  bench::banner("Ablation: dSDN TE underlay vs IS-IS shortest-path underlay");

  auto w = bench::b4_workload(/*target_util=*/1.05);
  std::printf("workload: %zu nodes, %zu links, %zu demands, %.0f Gbps "
              "offered\n\n",
              w.topo.num_nodes(), w.topo.num_links(), w.tm.size(),
              w.tm.total_rate_gbps());

  std::vector<std::vector<traffic::FlowGroup>> groups;
  for (int c = 0; c < metrics::kNumPriorityClasses; ++c) {
    groups.push_back(traffic::group_flows_of_class(
        w.topo, w.tm, static_cast<metrics::PriorityClass>(c)));
  }

  te::Solver solver;
  const auto scenarios = sim::pick_failure_fibers(w.topo, 8, 0xAB1A);

  std::printf("%-18s | %18s | %18s\n", "", "IS-IS underlay", "dSDN underlay");
  std::printf("%-18s | %8s %9s | %8s %9s\n", "scenario", "max-util",
              "lost-Gbps", "max-util", "lost-Gbps");

  double isis_lost_total = 0, dsdn_lost_total = 0;
  te::PathTables paths;  // held across scenarios: one table build
  auto report_row = [&](const char* label) {
    paths = paths.fetch(w.topo);
    const auto isis =
        measure(w.topo, w.tm, shortest_path_routing(paths, w.tm), groups);
    const auto dsdn = measure(
        w.topo, w.tm,
        sim::InstalledRouting::from_solution(solver.solve(w.topo, w.tm)),
        groups);
    std::printf("%-18s | %7.0f%% %9.1f | %7.0f%% %9.1f\n", label,
                100.0 * isis.max_util, isis.lost_gbps,
                100.0 * dsdn.max_util, dsdn.lost_gbps);
    isis_lost_total += isis.lost_gbps;
    dsdn_lost_total += dsdn.lost_gbps;
  };

  report_row("healthy");
  for (std::size_t i = 0; i < scenarios.size(); ++i) {
    w.topo.set_duplex_up(scenarios[i], false);
    char label[32];
    std::snprintf(label, sizeof(label), "fiber cut %zu", i + 1);
    report_row(label);
    w.topo.set_duplex_up(scenarios[i], true);
  }

  std::printf("\ntotal traffic lost across scenarios: IS-IS %.1f Gbps vs "
              "dSDN %.1f Gbps (%.1fx reduction)\n",
              isis_lost_total, dsdn_lost_total,
              dsdn_lost_total > 0 ? isis_lost_total / dsdn_lost_total
                                  : isis_lost_total);
  std::printf("(§2.1/§3.2: capacity-aware placement is why TE underlays "
              "beat IGP underlays; prior work reports up to 60%% higher "
              "achievable utilization)\n");
  return 0;
}
