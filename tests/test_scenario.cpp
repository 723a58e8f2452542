#include <gtest/gtest.h>

#include <algorithm>
#include <array>

#include "sim/scenario.hpp"
#include "topo/synthetic.hpp"
#include "topo/zoo.hpp"
#include "traffic/gravity.hpp"

namespace dsdn::sim {
namespace {

traffic::TrafficMatrix tm_for(const topo::Topology& t,
                              double pair_fraction = 1.0) {
  traffic::GravityParams gp;
  gp.pair_fraction = pair_fraction;
  gp.target_max_utilization = 0.5;
  return traffic::generate_gravity(t, gp);
}

std::string schedule_text(const Scenario& s) {
  std::string out;
  for (const ScenarioEvent& ev : s.schedule()) out += ev.to_string() + ";";
  return out;
}

std::size_t kept_count(const std::vector<char>& mask) {
  return static_cast<std::size_t>(std::count(mask.begin(), mask.end(), 1));
}

TEST(Scenario, ScheduleIsDeterministicPerSeed) {
  const auto topo = topo::make_abilene();
  const auto tm = tm_for(topo);
  const Scenario a(topo, tm, {}, 42);
  const Scenario b(topo, tm, {}, 42);
  ASSERT_EQ(a.schedule().size(), b.schedule().size());
  EXPECT_EQ(schedule_text(a), schedule_text(b));

  const Scenario c(topo, tm, {}, 43);
  EXPECT_NE(schedule_text(a), schedule_text(c));
}

TEST(Scenario, ScheduleMixesEventKinds) {
  // A long enough horizon should exercise more than fiber churn.
  const auto topo = topo::make_abilene();
  ScenarioOptions options;
  options.n_events = 48;
  const Scenario s(topo, tm_for(topo), options, 7);
  ASSERT_EQ(s.schedule().size(), 48u);
  std::size_t kinds_seen = 0;
  for (int k = 0; k < 8; ++k) {
    const auto kind = static_cast<ScenarioEventKind>(k);
    if (std::any_of(s.schedule().begin(), s.schedule().end(),
                    [&](const ScenarioEvent& e) { return e.kind == kind; }))
      ++kinds_seen;
  }
  EXPECT_GE(kinds_seen, 5u);
}

TEST(Scenario, CleanRunHoldsAllInvariants) {
  const auto topo = topo::make_abilene();
  const Scenario s(topo, tm_for(topo), {}, 11);
  const ScenarioResult r = s.run();
  EXPECT_TRUE(r.ok()) << (r.violations.empty() ? "" : r.violations.front());
  EXPECT_GT(r.events_applied, 0u);
  EXPECT_GT(r.invariant_checks, 0u);
  EXPECT_NE(r.final_digest, 0u);
}

TEST(Scenario, CongestionStarvedScavengerIsNotABlackhole) {
  // Regression (swarm seed 43 on lossy Abilene): three stacked demand
  // surges oversubscribe the network, strict priority starves several
  // class-2 demands to 100% loss on healthy, correctly installed routes.
  // That is QoS doing its job -- the blackhole invariant must only flag
  // *structural* total loss (no working installed path).
  const auto topo = topo::make_abilene();
  ScenarioOptions options;
  options.n_events = 24;
  options.lossy_flooding = true;
  const Scenario s(topo, tm_for(topo), options, 43);
  const ScenarioResult r = s.run();
  EXPECT_TRUE(r.ok()) << (r.violations.empty() ? "" : r.violations.front());
  // The starvation itself is real and visible through max loss.
  EXPECT_GT(r.max_loss, 0.99);
}

TEST(Scenario, ReplayIsBitIdenticalIncludingLossyFlooding) {
  const auto topo = topo::make_abilene();
  const auto tm = tm_for(topo);
  ScenarioOptions options;
  options.lossy_flooding = true;
  const Scenario s(topo, tm, options, 1234);
  const ScenarioResult r1 = s.run();
  const ScenarioResult r2 = s.run();
  EXPECT_EQ(r1.fingerprint(), r2.fingerprint());
  EXPECT_EQ(r1.final_digest, r2.final_digest);
  EXPECT_EQ(r1.messages, r2.messages);
  EXPECT_EQ(r1.sim_time_s, r2.sim_time_s);
  // And an independently constructed Scenario replays identically too.
  const Scenario again(topo, tm, options, 1234);
  EXPECT_EQ(again.run().fingerprint(), r1.fingerprint());
}

TEST(Scenario, MaskedRunGuardsInapplicableEvents) {
  // Keeping a repair without the cut that preceded it must skip the
  // repair (the fiber is still up), not corrupt the run.
  const auto topo = topo::make_abilene();
  const auto tm = tm_for(topo);
  for (std::uint64_t seed = 1; seed <= 32; ++seed) {
    const Scenario s(topo, tm, {}, seed);
    const auto& schedule = s.schedule();
    const auto it = std::find_if(
        schedule.begin(), schedule.end(), [](const ScenarioEvent& e) {
          return e.kind == ScenarioEventKind::kFiberRepair;
        });
    if (it == schedule.end()) continue;
    std::vector<char> keep(schedule.size(), 0);
    keep[static_cast<std::size_t>(it - schedule.begin())] = 1;
    const ScenarioResult r = s.run_masked(keep);
    EXPECT_TRUE(r.ok());
    EXPECT_EQ(r.events_applied, 0u);
    EXPECT_EQ(r.events_skipped, 1u);
    return;
  }
  FAIL() << "no seed in [1,32] scheduled a fiber repair";
}

TEST(Scenario, SmallSwarmAcrossThreeTopologies) {
  {
    const auto topo = topo::make_abilene();
    EXPECT_FALSE(run_seed_swarm(topo, tm_for(topo), {}, 1, 3).has_value());
  }
  {
    const auto topo = topo::make_b4_like();
    ScenarioOptions options;
    options.n_events = 6;
    EXPECT_FALSE(
        run_seed_swarm(topo, tm_for(topo, 0.15), options, 1, 1).has_value());
  }
  {
    topo::B2LikeParams bp;
    bp.scale = 0.125;
    const auto topo = topo::make_b2_like(bp);
    ScenarioOptions options;
    options.n_events = 5;
    EXPECT_FALSE(
        run_seed_swarm(topo, tm_for(topo, 0.05), options, 1, 1).has_value());
  }
}

TEST(Scenario, InjectedBugIsCaughtAndShrunkToShortReproducer) {
  // The acceptance bug: a router that skips reprogramming after fiber
  // cuts keeps stale routes over dead links. The swarm must catch it and
  // the bisection shrinker must cut the history to <= 5 events.
  const auto topo = topo::make_abilene();
  const auto tm = tm_for(topo);
  ScenarioOptions options;
  options.bug = ScenarioBug::kSkipReprogramOnCut;
  options.bug_node = 0;
  const auto failure = run_seed_swarm(topo, tm, options, 1, 8);
  ASSERT_TRUE(failure.has_value());
  EXPECT_FALSE(failure->result.ok());
  EXPECT_FALSE(failure->reproducer.empty());
  ASSERT_LE(kept_count(failure->minimal_mask), 5u);
  ASSERT_GE(kept_count(failure->minimal_mask), 1u);

  // The shrunk reproducer still fails, and every kept event matters:
  // dropping any one of them makes the failure disappear or the shrinker
  // would have dropped it.
  const Scenario s(topo, tm, options, failure->seed);
  EXPECT_FALSE(s.run_masked(failure->minimal_mask).ok());
  for (std::size_t i = 0; i < failure->minimal_mask.size(); ++i) {
    if (!failure->minimal_mask[i]) continue;
    std::vector<char> without = failure->minimal_mask;
    without[i] = 0;
    EXPECT_TRUE(s.run_masked(without).ok())
        << "shrunk mask still failed without event " << i
        << ": not minimal";
  }
}

TEST(Scenario, BugFreeRunOfFailingSeedPasses) {
  // The same seed without the planted bug is clean: the checkers react
  // to the bug, not to the churn.
  const auto topo = topo::make_abilene();
  const auto tm = tm_for(topo);
  ScenarioOptions buggy;
  buggy.bug = ScenarioBug::kSkipReprogramOnCut;
  const auto failure = run_seed_swarm(topo, tm, buggy, 1, 8);
  ASSERT_TRUE(failure.has_value());
  const Scenario clean(topo, tm, {}, failure->seed);
  EXPECT_TRUE(clean.run().ok());
}

TEST(Scenario, ArtifactCarriesScenarioCounters) {
  const auto topo = topo::make_abilene();
  const Scenario s(topo, tm_for(topo), {}, 5);
  const ScenarioResult r = s.run();
  const obs::RunArtifact artifact = s.artifact(r, "scenario_unit");
  const std::string json = artifact.to_json();
  EXPECT_NE(json.find("\"seed\""), std::string::npos);
  EXPECT_NE(json.find("scenario.events_applied"), std::string::npos);
  EXPECT_NE(json.find("scenario.invariant_checks"), std::string::npos);
  EXPECT_NE(json.find("scenario.max_loss_window"), std::string::npos);
  EXPECT_NE(json.find("max_loss_window"), std::string::npos);
}

TEST(Scenario, PacketScoringCrossChecksEveryQuiescentPoint) {
  // With packet_scoring on, every invariant checkpoint also drives
  // sampled packets through the batched dataplane over RCU snapshots; a
  // clean history must stay clean at packet level, the scored count must
  // land in the fingerprint, and replay must stay bit-identical.
  const auto topo = topo::make_abilene();
  const auto tm = tm_for(topo);
  ScenarioOptions options;
  options.n_events = 8;
  options.packet_scoring = true;
  options.packets_per_check = 128;
  const Scenario s(topo, tm, options, 21);
  const ScenarioResult r = s.run();
  EXPECT_TRUE(r.ok()) << (r.violations.empty() ? "" : r.violations.front());
  // One batch of packets_per_check per checkpoint (bootstrap + events).
  EXPECT_GE(r.packets_scored, options.packets_per_check * (r.events_applied + 1));
  EXPECT_EQ(r.packets_scored % options.packets_per_check, 0u);
  EXPECT_EQ(s.run().fingerprint(), r.fingerprint());

  // Same seed without scoring: different fingerprint (scored packets are
  // part of the replay identity), same invariant verdict.
  ScenarioOptions plain = options;
  plain.packet_scoring = false;
  const Scenario p(topo, tm, plain, 21);
  const ScenarioResult pr = p.run();
  EXPECT_TRUE(pr.ok());
  EXPECT_EQ(pr.packets_scored, 0u);
  EXPECT_NE(pr.fingerprint(), r.fingerprint());
}

// Golden replay fingerprints. Flooding, retransmit backoff, TE,
// programming, FRR and forwarding all feed a history's fingerprint, so
// a change to any of them that moves one bit of a run fails here.
TEST(ScenarioGolden, LossyAbileneFingerprints) {
  constexpr std::array<std::uint64_t, 6> kGolden = {
      0xea9c53265ba77d6eULL, 0xcd5c245c21b49c1cULL, 0xba4e8213e969a7b6ULL,
      0x097b1be3b5f0f0bcULL, 0x5e1cc056c3de3741ULL, 0x7dd8dac364907614ULL};
  const auto topo = topo::make_abilene();
  const auto tm = tm_for(topo);
  ScenarioOptions options;
  options.lossy_flooding = true;
  for (std::uint64_t seed = 1; seed <= kGolden.size(); ++seed) {
    const ScenarioResult r = Scenario(topo, tm, options, seed).run();
    EXPECT_TRUE(r.ok()) << "seed " << seed;
    EXPECT_EQ(r.fingerprint(), kGolden[seed - 1])
        << "seed " << seed << ": 0x" << std::hex << r.fingerprint();
  }
}

// The scenario_swarm --sr fleet: a third of the routers on strict TE,
// every seventh on shortest path, the rest on segment routing.
std::vector<core::PathingAlgorithm> sr_fleet(std::size_t num_nodes) {
  std::vector<core::PathingAlgorithm> algos(num_nodes);
  for (std::size_t n = 0; n < num_nodes; ++n) {
    if (n % 3 == 1) {
      algos[n] = core::PathingAlgorithm::kMaxMinFairTe;
    } else if (n % 7 == 5) {
      algos[n] = core::PathingAlgorithm::kShortestPath;
    } else {
      algos[n] = core::PathingAlgorithm::kSegmentRouting;
    }
  }
  return algos;
}

TEST(ScenarioGolden, MixedSrFleetScoredFingerprints) {
  constexpr std::array<std::uint64_t, 6> kGolden = {
      0x4cc44dbc635692abULL, 0x530d1e175cd1cd4dULL, 0xcb41f3caa59e338aULL,
      0x239f738f320a897bULL, 0x5f5e2ef0035f449bULL, 0xd935c2b25b2f0515ULL};
  const auto topo = topo::make_abilene();
  const auto tm = tm_for(topo);
  ScenarioOptions options;
  options.algorithms = sr_fleet(topo.num_nodes());
  options.packet_scoring = true;
  options.packets_per_check = 128;
  for (std::uint64_t seed = 1; seed <= kGolden.size(); ++seed) {
    options.lossy_flooding = seed % 2 == 0;
    const ScenarioResult r = Scenario(topo, tm, options, seed).run();
    EXPECT_TRUE(r.ok()) << "seed " << seed;
    EXPECT_GT(r.packets_scored, 0u);
    EXPECT_EQ(r.fingerprint(), kGolden[seed - 1])
        << "seed " << seed << ": 0x" << std::hex << r.fingerprint();
  }
}

TEST(Invariants, CleanBootstrapPasses) {
  const auto topo = topo::make_abilene();
  DsdnEmulation emu(topo, tm_for(topo));
  emu.bootstrap();
  const InvariantReport rep = check_invariants(emu);
  EXPECT_TRUE(rep.ok()) << (rep.violations.empty() ? ""
                                                   : rep.violations.front());
  EXPECT_GT(rep.checks_run, 0u);
}

TEST(Invariants, StaleFibOverDownLinkIsCaught) {
  // Manually recreate the down-link-zeroing bug: snapshot a router's
  // encap FIB, cut a fiber it uses, then put the stale FIB back.
  const auto topo = topo::make_abilene();
  DsdnEmulation emu(topo, tm_for(topo));
  emu.bootstrap();
  ASSERT_TRUE(check_invariants(emu).ok());

  // Pick a fiber whose cut keeps the network connected and which some
  // router's installed route crosses; node 0's first route works on
  // Abilene -- derive the link from its own FIB to stay topology-agnostic.
  const auto& encap = emu.at(0).ingress.encap_table();
  ASSERT_FALSE(encap.empty());
  const dataplane::LabelStack& stack =
      encap.begin()->second.routes.front().stack;
  const topo::LinkId victim = dataplane::decode_strict_route(stack)
                                  .links.front();

  const dataplane::IngressFib stale = emu.at(0).ingress;
  emu.fail_fiber(victim);
  ASSERT_TRUE(check_invariants(emu).ok());  // honest reconvergence is fine
  emu.mutable_controller(0).mutable_dataplane().ingress = stale;
  const InvariantReport rep = check_invariants(emu);
  ASSERT_FALSE(rep.ok());
  EXPECT_NE(rep.violations.front().find("down link"), std::string::npos);
}

}  // namespace
}  // namespace dsdn::sim
