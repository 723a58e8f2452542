// Online TE under demand drift (ROADMAP item 5): the closed loop where
// controllers only see EWMA-estimated demand while the oracle matrix
// moves underneath (diurnal cycles + flash crowds + link churn), and a
// te::RecomputePolicy decides when the fleet re-solves.
//
// For each topology {Abilene, B4-like} the same seeded demand process is
// replayed under four policies:
//   every        -- re-solve on any material advert change (reference)
//   periodic-8   -- re-solve every 8th measurement epoch
//   threshold    -- re-solve when estimated drift >= 10% of solved total
//   hybrid       -- threshold, with a staleness cap of 16 epochs
//
// Scoring is throughput regret vs an omniscient same-tick cold solve of
// the ground-truth matrix, plus bad seconds (epochs whose regret exceeds
// 1%). GATES, on both topologies: zero invariant violations anywhere,
// hybrid regret <= 10%, and hybrid recomputes <= 25% of the every-epoch
// reference. Exit status is the gate, so the CI leg doubles as a
// regression tripwire.

#include <cstdio>
#include <vector>

#include "bench_common.hpp"
#include "sim/online.hpp"

using namespace dsdn;

namespace {

struct PolicyRow {
  const char* name;
  te::RecomputePolicyOptions policy;
};

sim::OnlineTeOptions base_options(std::uint64_t epochs) {
  sim::OnlineTeOptions opt;
  opt.epochs = epochs;
  // Demand process: +/-25% diurnal swing over a 96-epoch day, a flash
  // crowd roughly every 50 epochs, slow regional drift. Slow enough per
  // epoch that a drift threshold has something to defer, fast enough
  // that never re-solving loses real throughput.
  opt.dynamics.diurnal_amplitude = 0.25;
  opt.dynamics.diurnal_period_epochs = 96.0;
  opt.dynamics.regional_max_shift = 0.15;
  opt.dynamics.regional_horizon_epochs = static_cast<std::uint32_t>(epochs);
  opt.dynamics.flash_prob_per_epoch = 0.02;
  opt.estimator.alpha = 0.4;
  // Floors are workload-relative: the Abilene gravity matrix has ~10%
  // of its rate in rows under 0.05 Gbps, and a floor that truncates
  // them turns the regret gate into a measurement of the floor rather
  // than of recompute-policy lag.
  opt.estimator.floor_gbps = 0.005;
  opt.churn_events = 4;
  opt.check_every = 25;
  return opt;
}

}  // namespace

int main() {
  bench::banner(
      "Online TE: closed-loop regret / recompute tradeoff by policy");
  bench::BenchRun run("online_te");

  const bool full = bench::full_scale();
  const std::uint64_t epochs = full ? 400 : 200;
  const std::uint64_t seed = 0x0E;

  std::vector<PolicyRow> policies = {
      {"every", {.kind = te::RecomputeTrigger::kEvery}},
      {"periodic-8",
       {.kind = te::RecomputeTrigger::kPeriodic, .period_epochs = 8}},
      {"threshold-10",
       {.kind = te::RecomputeTrigger::kThreshold, .drift_threshold = 0.10}},
      {"hybrid",
       {.kind = te::RecomputeTrigger::kHybrid,
        .period_epochs = 16,
        .drift_threshold = 0.10}},
  };

  struct TopoCase {
    const char* name;
    bench::Workload w;
  };
  std::vector<TopoCase> cases;
  {
    TopoCase abilene;
    abilene.name = "abilene";
    abilene.w.topo = topo::make_abilene();
    traffic::GravityParams gp;
    gp.target_max_utilization = 0.6;
    gp.seed = 0xABE;
    abilene.w.tm = traffic::generate_gravity(abilene.w.topo, gp).aggregated();
    cases.push_back(std::move(abilene));

    // B4-like at a demand count that keeps 4 x 200 closed-loop epochs
    // (each scored by an omniscient cold solve) inside a CI budget;
    // full scale restores the standard workload size.
    TopoCase b4;
    b4.name = "b4";
    b4.w.topo = topo::make_b4_like();
    traffic::GravityParams b4_gp;
    b4_gp.pair_fraction = full ? 0.15 : 0.05;
    b4_gp.target_max_utilization = 0.6;
    b4_gp.seed = 0xB4;
    b4.w.tm = traffic::generate_gravity(b4.w.topo, b4_gp).aggregated();
    cases.push_back(std::move(b4));
  }

  run.out().param("epochs", static_cast<std::uint64_t>(epochs));
  run.out().param("policies", static_cast<std::uint64_t>(policies.size()));

  bool pass = true;
  for (const auto& tc : cases) {
    std::printf("\n[%s] %zu nodes, %zu links, %zu demands; %llu epochs, "
                "diurnal + flash crowds + %zu churn events\n\n",
                tc.name, tc.w.topo.num_nodes(), tc.w.topo.num_links(),
                tc.w.tm.size(), static_cast<unsigned long long>(epochs),
                static_cast<std::size_t>(4));
    std::printf("%14s %10s %9s %9s %11s %8s %10s\n", "policy", "recomputes",
                "vs every", "regret", "max epoch", "bad s", "violations");

    std::size_t every_recomputes = 0;
    double hybrid_regret = 0.0, hybrid_fraction = 0.0, hybrid_bad_s = 0.0;
    for (const auto& p : policies) {
      sim::OnlineTeOptions opt = base_options(epochs);
      opt.policy = p.policy;
      const sim::OnlineTeResult r =
          sim::run_online_te(tc.w.topo, tc.w.tm, opt, seed);

      if (p.policy.kind == te::RecomputeTrigger::kEvery)
        every_recomputes = r.recomputes;
      const double fraction =
          every_recomputes > 0 ? static_cast<double>(r.recomputes) /
                                     static_cast<double>(every_recomputes)
                               : 1.0;
      std::printf("%14s %10zu %8.0f%% %8.2f%% %10.2f%% %8.0f %10zu\n",
                  p.name, r.recomputes, 100.0 * fraction,
                  100.0 * r.regret_fraction, 100.0 * r.max_epoch_regret,
                  r.bad_seconds, r.violations.size());
      for (const auto& v : r.violations)
        std::printf("    violation: %s\n", v.c_str());
      std::fflush(stdout);

      if (!r.ok()) {
        std::printf("  [FAIL] %s/%s: invariant violations in closed loop\n",
                    tc.name, p.name);
        pass = false;
      }
      if (r.epochs != epochs) {
        std::printf("  [FAIL] %s/%s: stopped at epoch %llu of %llu\n",
                    tc.name, p.name,
                    static_cast<unsigned long long>(r.epochs),
                    static_cast<unsigned long long>(epochs));
        pass = false;
      }

      const std::string prefix = std::string(tc.name) + "_" + p.name + "_";
      run.out().metric(prefix + "recomputes",
                       static_cast<double>(r.recomputes));
      run.out().metric(prefix + "regret_fraction", r.regret_fraction);
      run.out().metric(prefix + "bad_seconds", r.bad_seconds);

      if (p.policy.kind == te::RecomputeTrigger::kHybrid) {
        hybrid_regret = r.regret_fraction;
        hybrid_fraction = fraction;
        hybrid_bad_s = r.bad_seconds;
      }
    }

    std::printf("\ngate @ %s: hybrid regret %.2f%% (need <= 10%%), "
                "recomputes %.0f%% of every (need <= 25%%)\n",
                tc.name, 100.0 * hybrid_regret, 100.0 * hybrid_fraction);
    if (hybrid_regret > 0.10) {
      std::printf("  [FAIL] hybrid regret %.2f%% > 10%%\n",
                  100.0 * hybrid_regret);
      pass = false;
    }
    if (hybrid_fraction > 0.25) {
      std::printf("  [FAIL] hybrid recompute fraction %.0f%% > 25%%\n",
                  100.0 * hybrid_fraction);
      pass = false;
    }

    const std::string prefix = std::string(tc.name) + "_";
    run.out().metric(prefix + "hybrid_recompute_fraction", hybrid_fraction);
    run.out().metric(prefix + "hybrid_bad_seconds", hybrid_bad_s);
  }

  std::printf("\n%s: hybrid policy %s the <= 10%% regret / <= 25%% "
              "recompute gate on every topology.\n",
              pass ? "PASS" : "FAIL", pass ? "clears" : "misses");
  run.out().metric("gates_passed", pass ? 1.0 : 0.0);
  return pass ? 0 : 1;
}
