// Figure 10: distribution of per-event bad seconds for cSDN, dSDN, and
// the omniscient instantly-converging baseline, per priority class.
//
// Expected shape: omniscient ~0 at high priority and small at low
// priority (pure capacity shortfall); dSDN 10-100x below cSDN everywhere;
// impact grows toward lower priority classes for both schemes.

#include "bench_common.hpp"
#include "sim/transient.hpp"

using namespace dsdn;

int main() {
  bench::banner(
      "Figure 10: bad seconds per event, by scheme and priority class");

  const auto w = bench::b4_workload(/*target_util=*/1.1);
  bench::print_workload(w);

  sim::TransientConfig base;
  base.failures.days = bench::full_scale() ? 1000 : 150;
  base.failures.mttf_days = 120;
  base.failures.seed = 0xF10;
  base.seed = 0x510;

  sim::SolutionProvider provider(&w.tm);

  std::printf("simulating %.0f days of failure/repair events per scheme...\n\n",
              base.failures.days);

  for (const sim::Scheme scheme :
       {sim::Scheme::kOmniscient, sim::Scheme::kCsdn, sim::Scheme::kDsdn}) {
    auto cfg = base;
    cfg.scheme = scheme;
    sim::TransientSimulator simulator(w.topo, w.tm, cfg, &provider);
    const auto result = simulator.run();
    std::printf("%-11s (%zu failure events)\n", sim::scheme_name(scheme),
                result.bad_seconds_distribution(metrics::PriorityClass::kHigh)
                    .size());
    for (int c = 0; c < metrics::kNumPriorityClasses; ++c) {
      const auto cls = static_cast<metrics::PriorityClass>(c);
      const auto d = result.bad_seconds_distribution(cls);
      std::printf("  %-15s %s\n", metrics::priority_name(cls),
                  bench::dist_row_plain(d).c_str());
    }
    std::printf("\n");
  }
  std::printf("TE solver runs: %zu (cache hits: %zu, shared across schemes)\n",
              provider.solves(), provider.hits());

  // ---- Lossy-flood mode: dSDN bad seconds under injected NSU loss ----
  // Per-hop flood loss with bounded retransmit backoff stretches Tprop,
  // which shows up as extra bad seconds; deltas vs the lossless dSDN row
  // above quantify how much the paper's Fig 10 story depends on a
  // perfectly reliable flooding plane.
  std::printf("\n--- dSDN bad seconds under flood loss ---\n");
  for (const double loss : {0.01, 0.05, 0.10}) {
    auto cfg = base;
    cfg.scheme = sim::Scheme::kDsdn;
    cfg.flood_loss_prob = loss;
    sim::TransientSimulator simulator(w.topo, w.tm, cfg, &provider);
    const auto result = simulator.run();
    std::printf("loss=%2.0f%%\n", loss * 100);
    for (int c = 0; c < metrics::kNumPriorityClasses; ++c) {
      const auto cls = static_cast<metrics::PriorityClass>(c);
      std::printf("  %-15s %s\n", metrics::priority_name(cls),
                  bench::dist_row_plain(result.bad_seconds_distribution(cls))
                      .c_str());
    }
  }
  return 0;
}
