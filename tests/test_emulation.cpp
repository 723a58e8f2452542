#include <gtest/gtest.h>

#include "obs/metrics.hpp"
#include "sim/emulation.hpp"
#include "sim/scenario.hpp"
#include "solver_golden.hpp"
#include "te/incremental.hpp"
#include "te/path_cache.hpp"
#include "te/solver.hpp"
#include "topo/synthetic.hpp"
#include "topo/zoo.hpp"
#include "traffic/gravity.hpp"

namespace dsdn::sim {
namespace {

using dataplane::ForwardOutcome;
using metrics::PriorityClass;

DsdnEmulation make_emulation(topo::Topology topo, double util = 0.5) {
  traffic::GravityParams gp;
  gp.target_max_utilization = util;
  auto tm = traffic::generate_gravity(topo, gp);
  return DsdnEmulation(std::move(topo), std::move(tm));
}

TEST(Emulation, BootstrapConvergesAllViews) {
  auto emu = make_emulation(topo::make_abilene());
  emu.bootstrap();
  EXPECT_TRUE(emu.views_converged());
  EXPECT_GT(emu.messages_delivered(), emu.network().num_nodes());
  EXPECT_GT(emu.sim_time(), 0.0);
}

TEST(Emulation, AllPairsDeliverAfterBootstrap) {
  auto emu = make_emulation(topo::make_abilene());
  emu.bootstrap();
  const auto& topo = emu.network();
  std::size_t delivered = 0, total = 0;
  for (topo::NodeId s = 0; s < topo.num_nodes(); ++s) {
    for (topo::NodeId d = 0; d < topo.num_nodes(); ++d) {
      if (s == d || topo.node(s).metro == topo.node(d).metro) continue;
      ++total;
      const auto r = emu.send_packet(s, emu.address_of(d));
      if (r.outcome == ForwardOutcome::kDelivered && r.final_node == d)
        ++delivered;
    }
  }
  EXPECT_EQ(delivered, total);
}

TEST(Emulation, PacketsFollowLoopFreePaths) {
  auto emu = make_emulation(topo::make_geant());
  emu.bootstrap();

  for (topo::NodeId d = 1; d < 8; ++d) {
    const auto r = emu.send_packet(0, emu.address_of(d), PriorityClass::kHigh,
                                   /*entropy=*/d * 77);
    ASSERT_EQ(r.outcome, ForwardOutcome::kDelivered);
    std::set<topo::NodeId> seen(r.trace.begin(), r.trace.end());
    EXPECT_EQ(seen.size(), r.trace.size()) << "loop in trace";
  }
}

TEST(Emulation, FiberCutReconvergesAndRestoresDelivery) {
  auto emu = make_emulation(topo::make_abilene());
  emu.bootstrap();
  const auto& topo = emu.network();

  // Cut seattle-sunnyvale (both are border nodes with alternates).
  const topo::LinkId fiber = topo.find_link(0, 1);
  ASSERT_NE(fiber, topo::kInvalidLink);
  emu.fail_fiber(fiber);
  EXPECT_TRUE(emu.views_converged());

  // Traffic between the endpoints still flows, not over the dead fiber.
  const auto r = emu.send_packet(0, emu.address_of(1));
  ASSERT_EQ(r.outcome, ForwardOutcome::kDelivered);
  EXPECT_EQ(r.final_node, 1u);
  EXPECT_GT(r.hops, 1u);  // must detour

  emu.repair_fiber(fiber);
  EXPECT_TRUE(emu.views_converged());
  const auto r2 = emu.send_packet(0, emu.address_of(1));
  EXPECT_EQ(r2.outcome, ForwardOutcome::kDelivered);
}

TEST(Emulation, ConsensusFreeIdenticalSolutions) {
  // With converged views, every controller computes the identical
  // full-network TE solution (§3.1): verify via per-controller digests of
  // their own installed routes against a central solve.
  auto emu = make_emulation(topo::make_abilene());
  emu.bootstrap();
  const auto& topo = emu.network();
  // Every router's StateDb must agree with every other's.
  const auto digest0 = emu.controller(0).state().digest();
  for (topo::NodeId n = 1; n < topo.num_nodes(); ++n) {
    EXPECT_EQ(emu.controller(n).state().digest(), digest0);
  }
}

TEST(Emulation, RoutersShareOneTableAndEachReportsIt) {
  // Every router's solver holds the interned path table of its view: one
  // table for the fleet, built once, kept across a cut and its repair,
  // and reported in full by every router's status.
  auto emu = make_emulation(topo::make_b4_like());
  emu.bootstrap();
  const auto table = te::PathCache::of(emu.controller(0).state().view());
  const auto builds = [] {
    const auto snap = obs::Registry::global().snapshot();
    const auto it = snap.counters.find("te.table.builds");
    return it == snap.counters.end() ? std::uint64_t{0} : it->second;
  };
  const std::uint64_t builds_before = builds();
  const topo::LinkId fiber = emu.network().find_link(0, 1);
  emu.fail_fiber(fiber);
  emu.repair_fiber(fiber);
  EXPECT_EQ(builds(), builds_before);
  for (topo::NodeId n = 0; n < emu.network().num_nodes(); ++n) {
    const core::ControllerStatus status = emu.status_of(n);
    EXPECT_EQ(status.te_table_bytes, table->bytes()) << "router " << n;
    EXPECT_GT(status.te_table_paths, 0u) << "router " << n;
  }
}

TEST(Emulation, CrashRecoveryRejoinsNetwork) {
  auto emu = make_emulation(topo::make_abilene());
  emu.bootstrap();
  emu.crash_and_recover(3);
  EXPECT_TRUE(emu.views_converged());
  // The recovered router still originates and forwards.
  const auto r = emu.send_packet(3, emu.address_of(7));
  EXPECT_EQ(r.outcome, ForwardOutcome::kDelivered);
}

TEST(Emulation, ColdRestartRebuildsStateFromReflooding) {
  // Unlike crash_and_recover (out-of-band neighbor DB copy), a cold
  // restart rebuilds the StateDb purely from NSUs the neighbors reflood
  // over the wire, and discards all warm-start TE state.
  topo::Topology topo = topo::make_abilene();
  traffic::GravityParams gp;
  gp.target_max_utilization = 0.5;
  auto tm = traffic::generate_gravity(topo, gp);
  EmulationConfig cfg;
  cfg.incremental_te = true;
  DsdnEmulation emu(topo, std::move(tm), cfg);
  emu.bootstrap();

  // Churn once so every controller holds warm solver state.
  const topo::LinkId fiber = emu.network().find_link(0, 1);
  emu.fail_fiber(fiber);
  emu.repair_fiber(fiber);
  {
    const te::IncrementalSolver* inc = emu.controller(3).incremental_solver();
    ASSERT_NE(inc, nullptr);
    ASSERT_GT(inc->incremental_solves(), 0u);
  }
  const std::uint64_t seq_before = emu.controller(3).state().seq_of(3);
  ASSERT_GT(seq_before, 0u);

  emu.crash_and_cold_restart(3);

  // Back in agreement with everyone, with a full database again.
  EXPECT_TRUE(emu.views_converged());
  const core::Controller& restarted = emu.controller(3);
  for (topo::NodeId n = 0; n < emu.network().num_nodes(); ++n) {
    EXPECT_GT(restarted.state().seq_of(n), 0u) << "missing origin " << n;
  }
  // Its own-LSP sequence advanced past the echoed pre-crash NSU, so the
  // post-restart origination superseded the stale copy everywhere.
  EXPECT_GT(restarted.state().seq_of(3), seq_before);
  for (topo::NodeId n = 0; n < emu.network().num_nodes(); ++n) {
    EXPECT_EQ(emu.controller(n).state().seq_of(3),
              restarted.state().seq_of(3));
  }

  // Warm-start state died with the old instance: the fresh controller's
  // first recompute was a cold full solve.
  const te::IncrementalSolver* inc = restarted.incremental_solver();
  ASSERT_NE(inc, nullptr);
  EXPECT_GE(inc->full_solves(), 1u);
  EXPECT_EQ(inc->incremental_solves(), 0u);

  // And the restarted router forwards like everyone else.
  const auto r = emu.send_packet(3, emu.address_of(7));
  EXPECT_EQ(r.outcome, ForwardOutcome::kDelivered);
  const auto inbound = emu.send_packet(0, emu.address_of(3));
  EXPECT_EQ(inbound.outcome, ForwardOutcome::kDelivered);
}

TEST(Emulation, FrrCoversWindowBetweenFailureAndReconvergence) {
  // Program routes on the healthy network, cut a fiber *without*
  // letting headends reconverge (we bypass fail_fiber's NSU flood), and
  // check that FRR still delivers the stale-routed packet.
  auto topo = topo::make_abilene();
  traffic::GravityParams gp;
  auto tm = traffic::generate_gravity(topo, gp);
  DsdnEmulation emu(topo, tm);
  emu.bootstrap();

  // Find the fiber carrying 0 -> 10 traffic (seattle -> newyork).
  const auto before = emu.send_packet(0, emu.address_of(10));
  ASSERT_EQ(before.outcome, ForwardOutcome::kDelivered);

  // Kill the first hop of the installed path directly in ground truth.
  auto& net = const_cast<topo::Topology&>(emu.network());
  const topo::LinkId first_hop = net.find_link(before.trace[0], before.trace[1]);
  ASSERT_NE(first_hop, topo::kInvalidLink);
  net.set_duplex_up(first_hop, false);

  const auto during = emu.send_packet(0, emu.address_of(10));
  EXPECT_EQ(during.outcome, ForwardOutcome::kDelivered);
  EXPECT_EQ(during.final_node, 10u);
  EXPECT_GE(during.frr_activations, 1u);
}

TEST(Emulation, EcmpSpreadsEntropyAcrossRoutes) {
  // On an overloaded network TE must split flows off the shortest path;
  // distinct entropy values should then exercise distinct paths somewhere.
  auto emu = make_emulation(topo::make_abilene(), /*util=*/1.4);
  emu.bootstrap();
  bool found_split = false;
  const auto n = emu.network().num_nodes();
  for (topo::NodeId s = 0; s < n && !found_split; ++s) {
    for (topo::NodeId d = 0; d < n && !found_split; ++d) {
      if (s == d) continue;
      std::set<std::vector<topo::NodeId>> traces;
      for (std::uint64_t e = 0; e < 64; ++e) {
        const auto r = emu.send_packet(s, emu.address_of(d),
                                       PriorityClass::kLow, e * 131);
        if (r.outcome == ForwardOutcome::kDelivered) traces.insert(r.trace);
      }
      if (traces.size() > 1) found_split = true;
    }
  }
  EXPECT_TRUE(found_split);
}

TEST(Emulation, MessageComplexityLinearInLinksPerOrigination) {
  // Flooding delivers each NSU at most once per link: bootstrap of n
  // routers sends O(n * links) messages, not more.
  auto emu = make_emulation(topo::make_abilene());
  emu.bootstrap();
  const auto& t = emu.network();
  EXPECT_LE(emu.messages_delivered(), t.num_nodes() * t.num_links());
}

}  // namespace
}  // namespace dsdn::sim

namespace dsdn::sim {
namespace {

TEST(Emulation, ControllersProgramLocalBypasses) {
  auto emu = make_emulation(topo::make_abilene());
  emu.bootstrap();
  // Every router with >= 2 up links should protect its links locally.
  std::size_t protected_links = 0;
  for (topo::NodeId n = 0; n < emu.network().num_nodes(); ++n) {
    protected_links += emu.at(n).bypass.num_protected_links();
  }
  EXPECT_GT(protected_links, emu.network().num_links() / 2);
}

TEST(Emulation, PartialCapacityLossRebalancesTraffic) {
  // One fat demand on a direct link; halving the link's capacity must
  // push part of the demand onto an alternate path after reconvergence.
  topo::Topology topo = topo::make_fig5();  // R0-R1 direct + via R2
  traffic::TrafficMatrix tm;
  tm.add({0, 1, PriorityClass::kHigh, 80.0});
  DsdnEmulation emu(topo, tm);
  emu.bootstrap();

  const topo::LinkId direct = emu.network().find_link(0, 1);
  // Healthy: everything fits the 100G direct link.
  std::set<std::vector<topo::NodeId>> healthy_paths;
  for (std::uint64_t e = 0; e < 64; ++e) {
    healthy_paths.insert(
        emu.send_packet(0, emu.address_of(1), PriorityClass::kHigh, e)
            .trace);
  }
  EXPECT_EQ(healthy_paths.size(), 1u);

  emu.degrade_fiber(direct, 50.0);
  EXPECT_TRUE(emu.views_converged());
  // Every controller's view reflects the degraded capacity.
  for (topo::NodeId n = 0; n < emu.network().num_nodes(); ++n) {
    EXPECT_DOUBLE_EQ(emu.controller(n).state().view().link(direct)
                         .capacity_gbps,
                     50.0);
  }
  // The 80G demand no longer fits one 50G link: flows must now split.
  std::set<std::vector<topo::NodeId>> degraded_paths;
  for (std::uint64_t e = 0; e < 64; ++e) {
    const auto r =
        emu.send_packet(0, emu.address_of(1), PriorityClass::kHigh, e * 31);
    EXPECT_EQ(r.outcome, dataplane::ForwardOutcome::kDelivered);
    degraded_paths.insert(r.trace);
  }
  EXPECT_GT(degraded_paths.size(), 1u);

  // Restoration returns all traffic to the direct path.
  emu.degrade_fiber(direct, 100.0);
  std::set<std::vector<topo::NodeId>> restored_paths;
  for (std::uint64_t e = 0; e < 64; ++e) {
    restored_paths.insert(
        emu.send_packet(0, emu.address_of(1), PriorityClass::kHigh, e)
            .trace);
  }
  EXPECT_EQ(restored_paths.size(), 1u);
}

TEST(Emulation, IncrementalTeConvergesUnderChurn) {
  // Full network emulation with warm-start TE: fiber cut, repair, and a
  // crash recovery must all converge with every router delivering, every
  // router's installed solution must pass te::DiffChecker against a full
  // solve of its view after every event, and routers must actually take
  // the warm path after the initial bootstrap solve.
  topo::Topology topo = topo::make_abilene();
  traffic::GravityParams gp;
  gp.target_max_utilization = 0.5;
  auto tm = traffic::generate_gravity(topo, gp);
  EmulationConfig cfg;
  cfg.incremental_te = true;
  DsdnEmulation emu(topo, std::move(tm), cfg);
  const auto expect_parity = [&](const char* event) {
    for (topo::NodeId n = 0; n < emu.network().num_nodes(); ++n) {
      const core::Controller& c = emu.controller(n);
      const auto report =
          te::DiffChecker::check(c.state().view(), c.state().demands(),
                                 c.last_solution(), cfg.solver_options);
      EXPECT_TRUE(report.ok())
          << event << ": router " << n << ": " << report.violations.front();
    }
  };
  emu.bootstrap();
  EXPECT_TRUE(emu.views_converged());
  expect_parity("bootstrap");

  const topo::LinkId fiber = emu.network().find_link(0, 1);
  emu.fail_fiber(fiber);
  EXPECT_TRUE(emu.views_converged());
  expect_parity("cut");
  const auto r = emu.send_packet(0, emu.address_of(1));
  ASSERT_EQ(r.outcome, ForwardOutcome::kDelivered);

  emu.repair_fiber(fiber);
  EXPECT_TRUE(emu.views_converged());
  expect_parity("repair");

  // A crashed controller restarts cold and still rejoins.
  emu.crash_and_recover(3);
  EXPECT_TRUE(emu.views_converged());
  expect_parity("crash recovery");

  std::size_t warm_solves = 0;
  for (topo::NodeId n = 0; n < emu.network().num_nodes(); ++n) {
    const te::IncrementalSolver* inc = emu.controller(n).incremental_solver();
    ASSERT_NE(inc, nullptr);
    warm_solves += inc->incremental_solves();
  }
  EXPECT_GT(warm_solves, 0u);

  // Consensus-free property holds on the warm path: identical digests.
  const auto digest0 = emu.controller(0).state().digest();
  for (topo::NodeId n = 1; n < emu.network().num_nodes(); ++n) {
    EXPECT_EQ(emu.controller(n).state().digest(), digest0);
  }
}

TEST(Emulation, FleetWideSurgeFloodsOnlyDemandOrigins) {
  // Regression (flood amplification): a fleet-wide surge used to
  // re-originate every router, including routers with no demand rows at
  // all. The per-origin diff must keep silent routers silent -- their
  // own NSU sequence numbers do not move.
  auto topo = topo::make_ring(5);
  traffic::TrafficMatrix tm;
  tm.add({0, 2, PriorityClass::kHigh, 5.0});
  tm.add({1, 3, PriorityClass::kLow, 3.0});
  DsdnEmulation emu(std::move(topo), std::move(tm));
  emu.bootstrap();

  std::vector<std::uint64_t> seq_before;
  for (topo::NodeId n = 0; n < emu.network().num_nodes(); ++n) {
    seq_before.push_back(emu.controller(n).state().seq_of(n));
  }

  emu.scale_demands(2.0);  // origin == kInvalidNode: everyone surges
  EXPECT_TRUE(emu.views_converged());
  for (topo::NodeId n = 0; n < emu.network().num_nodes(); ++n) {
    const std::uint64_t seq = emu.controller(n).state().seq_of(n);
    if (n <= 1) {
      EXPECT_EQ(seq, seq_before[n] + 1) << "origin " << n;
    } else {
      EXPECT_EQ(seq, seq_before[n]) << "demand-less router " << n
                                    << " re-originated";
    }
  }
  // The doubled demand reached every view.
  EXPECT_NEAR(emu.controller(4).state().demands().total_rate_gbps(), 16.0,
              1e-9);

  // A no-op surge floods nothing anywhere.
  const std::size_t messages_before = emu.messages_delivered();
  emu.scale_demands(1.0);
  EXPECT_EQ(emu.messages_delivered(), messages_before);
}

}  // namespace
}  // namespace dsdn::sim

namespace dsdn::sim {
namespace {

// ---- fleet-parallel recompute ----

std::uint64_t solution_digest(const te::Solution& s) {
  golden::Fnv f;
  f.add(s);
  return f.h;
}

// Equal programmed tables: prefixes, every encap route, every bypass pick,
// and the segment table.
bool same_tables(const topo::Topology& topo,
                 const dataplane::RouterDataplane& a,
                 const dataplane::RouterDataplane& b) {
  if (a.ingress.num_prefixes() != b.ingress.num_prefixes()) return false;
  const auto& ea = a.ingress.encap_table();
  const auto& eb = b.ingress.encap_table();
  if (ea.size() != eb.size()) return false;
  for (std::size_t i = 0; i < ea.size(); ++i) {
    if (ea[i].first != eb[i].first) return false;
    const auto& ra = ea[i].second.routes;
    const auto& rb = eb[i].second.routes;
    if (ra.size() != rb.size()) return false;
    for (std::size_t r = 0; r < ra.size(); ++r) {
      if (ra[r].weight != rb[r].weight || !(ra[r].stack == rb[r].stack))
        return false;
    }
  }
  if (a.bypass.num_protected_links() != b.bypass.num_protected_links())
    return false;
  for (topo::LinkId l = 0; l < topo.num_links(); ++l) {
    for (std::uint64_t entropy = 0; entropy < 4; ++entropy) {
      const auto* sa = a.bypass.select_stack(l, entropy);
      const auto* sb = b.bypass.select_stack(l, entropy);
      if ((sa == nullptr) != (sb == nullptr)) return false;
      if (sa && !(*sa == *sb)) return false;
    }
  }
  return a.sr.table() == b.sr.table();
}

TEST(FleetRecompute, EveryRouterMatchesASerialSolveAfterEachEvent) {
  // Recomputes run concurrently on pinned workers; each router's result
  // must still be exactly the serial solve of its own view, its published
  // snapshot must be its installed tables, and the hub must have gained
  // one epoch per recompute, per link-state publish (one per cut or
  // repair) and per replacement controller (attaching publishes once).
  topo::Topology topo = topo::make_geant();
  traffic::GravityParams gp;
  gp.target_max_utilization = 0.8;
  gp.seed = 19;
  auto tm = traffic::generate_gravity(topo, gp).aggregated();
  ScenarioOptions so;
  so.n_events = 16;
  so.incremental_te = false;
  so.w_flap = 0.0;
  so.w_srlg = 0.0;
  so.w_toggle = 0.0;
  so.w_crash = 2.0;
  const auto schedule = Scenario(topo, tm, so, /*seed=*/1907).schedule();

  DsdnEmulation emu(topo, tm);
  emu.enable_fib_snapshots(1);
  emu.bootstrap();
  const std::size_t n = emu.network().num_nodes();
  std::size_t applied = 0, crashes = 0, surges = 0;
  for (const ScenarioEvent& ev : schedule) {
    std::vector<const core::Controller*> before(n);
    std::vector<std::size_t> recomputes_before(n);
    for (topo::NodeId v = 0; v < n; ++v) {
      before[v] = &emu.controller(v);
      recomputes_before[v] = emu.controller(v).recomputes();
    }
    const std::uint64_t epoch_before = emu.fib_hub()->epoch();
    if (!apply_scenario_event(emu, ev)) continue;
    ++applied;
    crashes += ev.kind == ScenarioEventKind::kNodeCrashRecover ||
               ev.kind == ScenarioEventKind::kNodeColdRestart;
    surges += ev.kind == ScenarioEventKind::kDemandSurge;
    ASSERT_TRUE(emu.views_converged()) << ev.to_string();

    std::uint64_t expected = ev.kind == ScenarioEventKind::kFiberCut ||
                                     ev.kind == ScenarioEventKind::kFiberRepair
                                 ? 1
                                 : 0;
    const auto snap = emu.fib_hub()->acquire(0);
    for (topo::NodeId v = 0; v < n; ++v) {
      const core::Controller& c = emu.controller(v);
      const bool replaced = &c != before[v];
      expected += replaced ? 1 + c.recomputes()
                           : c.recomputes() - recomputes_before[v];
      const te::Solution serial =
          te::Solver(emu.config().solver_options)
              .solve(c.state().view(), c.state().demands());
      EXPECT_EQ(solution_digest(c.last_solution()), solution_digest(serial))
          << ev.to_string() << " router " << v;
      EXPECT_TRUE(same_tables(emu.network(), *snap->routers[v], c.dataplane()))
          << ev.to_string() << " router " << v;
    }
    EXPECT_EQ(snap->epoch, epoch_before + expected) << ev.to_string();
  }
  EXPECT_GE(applied, 12u);
  EXPECT_GE(crashes, 1u);
  EXPECT_GE(surges, 1u);
}

// A Solve API that fails, as an operator-supplied one might.
class ThrowingSolver final : public core::SolveApi {
 public:
  te::Solution solve(const topo::Topology&, const traffic::TrafficMatrix&,
                     te::SolveStats*) const override {
    throw std::runtime_error("solver unavailable");
  }
};

TEST(FleetRecompute, ThrowingRouterRethrowsOnTheCaller) {
  auto emu = make_emulation(topo::make_abilene());
  emu.bootstrap();
  emu.mutable_controller(5).set_solve_api(std::make_unique<ThrowingSolver>());
  const topo::LinkId fiber = emu.network().find_link(0, 1);
  EXPECT_THROW(emu.fail_fiber(fiber), std::runtime_error);
  // Every other router finished its recompute on the new view.
  for (topo::NodeId v = 0; v < emu.network().num_nodes(); ++v) {
    if (v == 5) continue;
    EXPECT_EQ(emu.controller(v).recomputes(), 2u) << "router " << v;
  }
  // The fleet keeps working once the router solves again.
  emu.mutable_controller(5).set_solve_api(
      std::make_unique<core::LocalSolver>());
  emu.repair_fiber(fiber);
  EXPECT_TRUE(emu.views_converged());
  EXPECT_EQ(solution_digest(emu.controller(5).last_solution()),
            solution_digest(emu.controller(0).last_solution()));
}

TEST(Emulation, CrashOfIsolatedNodeThrowsAndLeavesFleetUntouched) {
  // Both crash paths must check for a live neighbor before replacing the
  // controller: a throw used to leave an empty-StateDb instance behind.
  traffic::TrafficMatrix tm;
  tm.add({1, 3, PriorityClass::kHigh, 5.0});
  tm.add({0, 2, PriorityClass::kLow, 3.0});
  DsdnEmulation emu(topo::make_ring(5), std::move(tm));
  emu.bootstrap();
  emu.fail_fiber(emu.network().find_link(0, 1));
  emu.fail_fiber(emu.network().find_link(0, 4));
  ASSERT_TRUE(emu.network().up_neighbors(0).empty());

  const std::size_t n = emu.network().num_nodes();
  std::vector<std::uint64_t> digests(n);
  for (topo::NodeId v = 0; v < n; ++v)
    digests[v] = emu.controller(v).state().digest();
  const core::Controller* isolated = &emu.controller(0);
  const bool converged = emu.views_converged();

  EXPECT_THROW(emu.crash_and_recover(0), std::runtime_error);
  EXPECT_THROW(emu.crash_and_cold_restart(0), std::runtime_error);
  EXPECT_EQ(&emu.controller(0), isolated);
  for (topo::NodeId v = 0; v < n; ++v)
    EXPECT_EQ(emu.controller(v).state().digest(), digests[v]) << "router " << v;
  EXPECT_EQ(emu.views_converged(), converged);
}

}  // namespace
}  // namespace dsdn::sim
