// Figure 20 (Appendix D): bad-seconds distribution (2nd/25th/50th/75th/
// 98th percentiles) for cSDN and dSDN with and without bypass paths in
// effect, per priority class, with the omniscient baseline.
//
// Expected shape: dSDN stays well below cSDN either way; bypasses reduce
// impact for both schemes but do not eliminate it for lower classes.

#include "bench_common.hpp"
#include "sim/transient.hpp"

using namespace dsdn;

int main() {
  bench::banner("Figure 20: bad seconds with and without bypasses");

  const auto w = bench::b4_workload(/*target_util=*/1.1);
  bench::print_workload(w);

  sim::TransientConfig base;
  base.failures.days = bench::full_scale() ? 365 : 100;
  base.failures.mttf_days = 120;
  base.failures.seed = 0xF20;
  base.seed = 0x520;

  sim::SolutionProvider provider(&w.tm);

  struct Config {
    const char* label;
    sim::Scheme scheme;
    bool bypasses;
  };
  const Config configs[] = {
      {"Omniscient", sim::Scheme::kOmniscient, false},
      {"cSDN", sim::Scheme::kCsdn, false},
      {"cSDN+bypass", sim::Scheme::kCsdn, true},
      {"dSDN", sim::Scheme::kDsdn, false},
      {"dSDN+bypass", sim::Scheme::kDsdn, true},
  };

  // One simulator run per config; report every class from it.
  std::vector<sim::TransientResult> results;
  for (const Config& cfg : configs) {
    sim::TransientConfig tc = base;
    tc.scheme = cfg.scheme;
    tc.use_bypasses = cfg.bypasses;
    sim::TransientSimulator simulator(w.topo, w.tm, tc, &provider);
    results.push_back(simulator.run());
  }

  for (int c = 0; c < metrics::kNumPriorityClasses; ++c) {
    const auto cls = static_cast<metrics::PriorityClass>(c);
    std::printf("--- %s ---\n", metrics::priority_name(cls));
    for (std::size_t i = 0; i < std::size(configs); ++i) {
      const auto d = results[i].bad_seconds_distribution(cls);
      std::printf("  %-12s %s\n", configs[i].label,
                  bench::dist_row_plain(d).c_str());
    }
    std::printf("\n");
  }
  return 0;
}
