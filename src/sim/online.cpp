#include "sim/online.hpp"

#include <algorithm>
#include <bit>
#include <stdexcept>

#include "sim/flow_eval.hpp"
#include "te/solver.hpp"
#include "util/rng.hpp"

namespace dsdn::sim {
namespace {

std::uint64_t mix(std::uint64_t h, std::uint64_t v) {
  return util::splitmix64(h ^ (v + 0x9e3779b97f4a7c15ULL));
}

std::uint64_t mix_string(std::uint64_t h, const std::string& s) {
  for (unsigned char c : s) h = mix(h, c);
  return mix(h, s.size());
}

std::size_t fleet_recomputes(const DsdnEmulation& emu) {
  std::size_t total = 0;
  for (topo::NodeId n = 0; n < emu.network().num_nodes(); ++n) {
    total += emu.controller(n).recomputes();
  }
  return total;
}

}  // namespace

std::uint64_t OnlineTeResult::fingerprint() const {
  std::uint64_t h = 0x0E11'31E0'07'BADULL;
  h = mix(h, epochs);
  h = mix(h, churn_applied);
  h = mix(h, recomputes);
  h = mix(h, std::bit_cast<std::uint64_t>(achieved_gbps_sum));
  h = mix(h, std::bit_cast<std::uint64_t>(omniscient_gbps_sum));
  h = mix(h, std::bit_cast<std::uint64_t>(regret_fraction));
  h = mix(h, std::bit_cast<std::uint64_t>(max_epoch_regret));
  h = mix(h, bad_epochs);
  h = mix(h, std::bit_cast<std::uint64_t>(bad_seconds));
  h = mix(h, invariant_checks);
  h = mix(h, nsu_messages);
  for (const std::string& v : violations) h = mix_string(h, v);
  return h;
}

OnlineTeResult run_online_te(const topo::Topology& topo,
                             const traffic::TrafficMatrix& base_tm,
                             const OnlineTeOptions& options,
                             std::uint64_t seed) {
  if (options.epochs == 0)
    throw std::invalid_argument("run_online_te: zero epochs");

  // The dynamics horizon must cover the run (flash events beyond it
  // simply never fire).
  traffic::DemandDynamicsOptions dyn_opt = options.dynamics;
  dyn_opt.horizon_epochs = std::max<std::uint32_t>(
      dyn_opt.horizon_epochs, static_cast<std::uint32_t>(options.epochs));
  const traffic::DemandDynamics dynamics(base_tm, dyn_opt,
                                         util::splitmix64(seed ^ 0xD71AULL));

  EmulationConfig cfg;
  cfg.incremental_te = options.incremental_te;
  cfg.recompute_policy = options.policy;
  DsdnEmulation emu(topo, dynamics.matrix_at(0), cfg);
  emu.enable_in_band_measurement(options.estimator);
  emu.bootstrap();

  // Concurrent link churn: reuse the PR 5 schedule generator (same
  // runtime guards via apply_scenario_event), then pin each event to a
  // seeded epoch. Demand-affecting kinds are disabled -- demand motion
  // is the dynamics' job here.
  std::vector<ScenarioEvent> churn;
  std::vector<std::uint64_t> churn_epochs;
  if (options.churn_events > 0 && options.epochs >= 2) {
    ScenarioOptions so;
    so.n_events = options.churn_events;
    so.w_surge = 0.0;
    so.w_toggle = 0.0;
    so.w_crash = 0.0;
    so.w_cold_restart = 0.0;
    so.incremental_te = options.incremental_te;
    const Scenario generator(topo, base_tm, so, seed);
    churn = generator.schedule();
    util::Rng er(util::splitmix64(seed ^ 0xC4'4E'11ULL));
    for (std::size_t i = 0; i < churn.size(); ++i) {
      churn_epochs.push_back(static_cast<std::uint64_t>(
          er.uniform_int(1, static_cast<std::int64_t>(options.epochs) - 1)));
    }
    std::sort(churn_epochs.begin(), churn_epochs.end());
  }

  InvariantOptions inv = options.invariants;
  inv.parity_against_solved_demands = true;

  const te::Solver omniscient;
  OnlineTeResult r;
  std::size_t next_churn = 0;

  for (std::uint64_t epoch = 0; epoch < options.epochs; ++epoch) {
    // Ground truth moves first; controllers cannot see it directly.
    traffic::TrafficMatrix oracle = dynamics.matrix_at(epoch);
    emu.set_oracle_demands(oracle);

    // Topology churn scheduled at this epoch (recomputes unconditionally,
    // exactly like production reacting to a link event).
    while (next_churn < churn.size() && churn_epochs[next_churn] == epoch) {
      if (apply_scenario_event(emu, churn[next_churn])) ++r.churn_applied;
      ++next_churn;
    }

    // The measurement loop: routers observe what they actually carry,
    // roll estimators, re-advertise material changes, and let their
    // recompute policy decide whether TE runs.
    emu.observe_traffic(oracle);
    emu.measurement_epoch();

    // Score against the omniscient same-tick cold solve of the truth.
    const InstalledRouting routing =
        InstalledRouting::from_dataplane(oracle, emu, &emu.network());
    const LossReport loss = evaluate_loss(emu.network(), oracle, routing);
    double achieved = 0.0;
    const auto& rows = oracle.demands();
    for (std::size_t i = 0; i < rows.size(); ++i) {
      achieved += rows[i].rate_gbps * (1.0 - loss.loss[i]);
    }
    const double omni =
        omniscient.solve(emu.network(), oracle).total_allocated_gbps();
    r.achieved_gbps_sum += achieved;
    r.omniscient_gbps_sum += omni;
    if (omni > 0.0) {
      const double epoch_regret = std::max(0.0, 1.0 - achieved / omni);
      r.max_epoch_regret = std::max(r.max_epoch_regret, epoch_regret);
      if (epoch_regret > OnlineTeOptions::bad_loss_fraction) {
        ++r.bad_epochs;
        r.bad_seconds += OnlineTeOptions::epoch_s;
      }
    }

    if (epoch % options.check_every == 0 || epoch + 1 == options.epochs) {
      const InvariantReport rep = check_invariants(emu, inv);
      r.invariant_checks += rep.checks_run;
      if (!rep.ok()) {
        for (const auto& v : rep.violations) {
          r.violations.push_back("epoch " + std::to_string(epoch) + ": " + v);
        }
        r.epochs = epoch + 1;
        break;
      }
    }
    r.epochs = epoch + 1;
  }

  r.recomputes = fleet_recomputes(emu);
  if (r.omniscient_gbps_sum > 0.0) {
    r.regret_fraction =
        std::max(0.0, 1.0 - r.achieved_gbps_sum / r.omniscient_gbps_sum);
  }
  r.nsu_messages = emu.messages_delivered();
  return r;
}

}  // namespace dsdn::sim
