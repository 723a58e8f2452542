// Figure 11: bad seconds for the intermediate priority class under 10x
// and 20x churn (failure-rate multipliers). Events start overlapping;
// impact per event grows, but dSDN keeps a large margin over cSDN
// (paper: cSDN median ~22x / ~17x dSDN's at 10x / 20x churn).

#include "bench_common.hpp"
#include "sim/transient.hpp"

using namespace dsdn;

int main() {
  bench::banner("Figure 11: bad seconds under 10x / 20x churn "
                "(P-intermediate)");

  const auto w = bench::b4_workload(/*target_util=*/1.1);
  bench::print_workload(w);

  sim::SolutionProvider provider(&w.tm);

  for (const double churn : {1.0, 10.0, 20.0}) {
    std::printf("--- churn %.0fx ---\n", churn);
    double medians[2] = {0, 0};
    int i = 0;
    for (const sim::Scheme scheme :
         {sim::Scheme::kCsdn, sim::Scheme::kDsdn}) {
      sim::TransientConfig cfg;
      cfg.scheme = scheme;
      cfg.failures.days = (bench::full_scale() ? 400.0 : 60.0) / churn;
      cfg.failures.mttf_days = 120;
      cfg.failures.churn_multiplier = churn;
      cfg.failures.seed = 0xF11;
      cfg.seed = 0x511;
      sim::TransientSimulator simulator(w.topo, w.tm, cfg, &provider);
      const auto d = simulator.run().bad_seconds_distribution(
          metrics::PriorityClass::kIntermediate);
      std::printf("  %-11s %s\n", sim::scheme_name(scheme),
                  bench::dist_row_plain(d).c_str());
      medians[i++] = d.median();
    }
    if (medians[1] > 0) {
      std::printf("  => cSDN/dSDN median ratio: %.1fx\n\n",
                  medians[0] / medians[1]);
    } else {
      std::printf("  => dSDN median ~0 (cSDN median %.2f)\n\n", medians[0]);
    }
  }
  return 0;
}
