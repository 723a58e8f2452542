// Failure-injection tests for the §3.2 fault-tolerance story: malformed
// NSUs, stale replays, partitions with concurrent changes (database
// resync on adjacency-up), and multi-controller crash recovery.

#include <gtest/gtest.h>

#include "core/wire.hpp"
#include "sim/emulation.hpp"
#include "topo/builder.hpp"
#include "topo/synthetic.hpp"
#include "topo/zoo.hpp"
#include "traffic/gravity.hpp"

namespace dsdn {
namespace {

using metrics::PriorityClass;

// Two 4-rings bridged by a single fiber: cutting the bridge partitions
// the network into two islands.
topo::Topology bridged_rings() {
  topo::Topology t;
  for (int i = 0; i < 8; ++i) {
    t.add_node("r" + std::to_string(i), "m" + std::to_string(i));
  }
  // Ring A: 0-1-2-3, Ring B: 4-5-6-7.
  for (int base : {0, 4}) {
    for (int i = 0; i < 4; ++i) {
      t.add_duplex(static_cast<topo::NodeId>(base + i),
                   static_cast<topo::NodeId>(base + (i + 1) % 4), 100.0);
    }
  }
  t.add_duplex(1, 5, 100.0);  // the bridge
  return t;
}

traffic::TrafficMatrix cross_traffic() {
  traffic::TrafficMatrix tm;
  tm.add({0, 6, PriorityClass::kHigh, 1.0});
  tm.add({6, 0, PriorityClass::kHigh, 1.0});
  tm.add({2, 3, PriorityClass::kLow, 0.5});
  tm.add({4, 7, PriorityClass::kLow, 0.5});
  return tm;
}

TEST(FaultInjection, PartitionHealResyncsChangesMadeOnBothSides) {
  sim::DsdnEmulation wan(bridged_rings(), cross_traffic());
  wan.bootstrap();
  ASSERT_TRUE(wan.views_converged());

  const topo::LinkId bridge = wan.network().find_link(1, 5);
  ASSERT_NE(bridge, topo::kInvalidLink);
  const topo::LinkId in_a = wan.network().find_link(2, 3);
  const topo::LinkId in_b = wan.network().find_link(6, 7);

  // Partition, then change state on BOTH islands while they cannot hear
  // each other.
  wan.fail_fiber(bridge);
  EXPECT_FALSE(wan.views_converged());  // islands inevitably diverge
  wan.fail_fiber(in_a);
  wan.fail_fiber(in_b);

  // Heal the partition: adjacency-up resync must carry each island's
  // updates across, reconverging every view.
  wan.repair_fiber(bridge);
  EXPECT_TRUE(wan.views_converged());

  // And the merged view must know about both intra-island failures:
  // cross-island traffic routes around them.
  const auto r = wan.send_packet(0, wan.address_of(6));
  EXPECT_EQ(r.outcome, dataplane::ForwardOutcome::kDelivered);
  for (std::size_t i = 0; i + 1 < r.trace.size(); ++i) {
    const auto l = wan.network().find_link(r.trace[i], r.trace[i + 1]);
    ASSERT_NE(l, topo::kInvalidLink);
    EXPECT_TRUE(wan.network().link(l).up);
  }
}

TEST(FaultInjection, MalformedNsuRejectedWithoutStateDamage) {
  sim::DsdnEmulation wan(bridged_rings(), cross_traffic());
  wan.bootstrap();
  auto& victim = wan.mutable_controller(0);
  const auto digest_before = victim.state().digest();

  core::NodeStateUpdate evil;
  evil.origin = 3;
  evil.seq = 1u << 30;  // would supersede everything if accepted
  evil.links.push_back({2, 1, true, -100.0, 1, 0.001, 0});  // negative cap
  const auto onward = victim.handle_nsu(evil, topo::kInvalidLink);
  EXPECT_TRUE(onward.empty());  // not reflooded
  EXPECT_EQ(victim.state().digest(), digest_before);
  EXPECT_GT(victim.state().rejected_invalid(), 0u);
}

TEST(FaultInjection, StaleReplayIgnoredEverywhere) {
  sim::DsdnEmulation wan(bridged_rings(), cross_traffic());
  wan.bootstrap();
  // Capture node 3's current NSU, then replay it with an *older* seq.
  auto& victim = wan.mutable_controller(0);
  const core::NodeStateUpdate* current = victim.state().latest(3);
  ASSERT_NE(current, nullptr);
  core::NodeStateUpdate replay = *current;
  replay.seq = 0;
  replay.links.clear();  // an attacker-chosen different payload
  const auto digest_before = victim.state().digest();
  EXPECT_TRUE(victim.handle_nsu(replay, topo::kInvalidLink).empty());
  EXPECT_EQ(victim.state().digest(), digest_before);
}

TEST(FaultInjection, GarbledWireBytesNeverReachTheStateDb) {
  sim::DsdnEmulation wan(bridged_rings(), cross_traffic());
  wan.bootstrap();
  const core::NodeStateUpdate* nsu = wan.controller(0).state().latest(3);
  ASSERT_NE(nsu, nullptr);
  auto bytes = core::serialize_nsu(*nsu);
  util::Rng rng(0xBAD);
  std::size_t parsed_ok = 0;
  for (int trial = 0; trial < 500; ++trial) {
    auto corrupt = bytes;
    const auto at = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(corrupt.size()) - 1));
    corrupt[at] = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
    const auto parsed = core::decode_nsu(corrupt).nsu;
    if (!parsed) continue;
    // Whatever still parses must clear the semantic validator before a
    // StateDb would accept it; count how often both layers pass.
    if (core::validate_nsu(*parsed) == core::NsuValidity::kValid)
      ++parsed_ok;
  }
  // Single-byte flips in float payloads legitimately survive (they are
  // just different numbers); structural corruption must not.
  EXPECT_LT(parsed_ok, 500u);
}

TEST(FaultInjection, ConcurrentCrashOfMultipleControllers) {
  auto topo = topo::make_geant();
  traffic::GravityParams gp;
  gp.pair_fraction = 0.3;
  auto tm = traffic::generate_gravity(topo, gp);
  sim::DsdnEmulation wan(topo, tm);
  wan.bootstrap();

  wan.crash_and_recover(3);
  wan.crash_and_recover(9);
  wan.crash_and_recover(15);
  EXPECT_TRUE(wan.views_converged());

  util::Rng rng(0xCC);
  for (int i = 0; i < 20; ++i) {
    const auto& d = rng.pick(wan.demands().demands());
    const auto r =
        wan.send_packet(d.src, wan.address_of(d.dst), d.priority);
    EXPECT_EQ(r.outcome, dataplane::ForwardOutcome::kDelivered);
  }
}

TEST(FaultyFlooding, ConvergesUnderFivePercentDropWithBoundedRetransmits) {
  sim::DsdnEmulation wan(bridged_rings(), cross_traffic());
  sim::LinkFaultProfile lossy;
  lossy.drop = 0.05;
  wan.enable_fault_injection(lossy, /*seed=*/0xF10D);
  wan.bootstrap();
  EXPECT_TRUE(wan.views_converged());

  const auto& fs = wan.flood_stats();
  EXPECT_GT(fs.retransmits, 0u);       // losses actually happened
  EXPECT_EQ(fs.gave_up, 0u);           // 5% never exhausts 5 retransmits here
  EXPECT_GT(wan.faulty_bus()->stats().dropped, 0u);

  // A failure event still converges and routes around under loss.
  const topo::LinkId in_a = wan.network().find_link(2, 3);
  wan.fail_fiber(in_a);
  EXPECT_TRUE(wan.views_converged());
  const auto r = wan.send_packet(0, wan.address_of(6));
  EXPECT_EQ(r.outcome, dataplane::ForwardOutcome::kDelivered);
}

TEST(FaultyFlooding, LossyRunsAreBitIdenticalUnderSameSeed) {
  sim::LinkFaultProfile chaos;
  chaos.drop = 0.08;
  chaos.duplicate = 0.10;
  chaos.corrupt = 0.05;
  chaos.reorder = 0.15;
  chaos.jitter_s = 0.003;

  auto run = [&](std::uint64_t seed) {
    sim::DsdnEmulation wan(bridged_rings(), cross_traffic());
    wan.enable_fault_injection(chaos, seed);
    wan.bootstrap();
    wan.fail_fiber(wan.network().find_link(2, 3));
    std::vector<std::uint64_t> digests;
    for (topo::NodeId n = 0; n < 8; ++n)
      digests.push_back(wan.controller(n).state().digest());
    return std::make_tuple(digests, wan.messages_delivered(),
                           wan.flood_stats(), wan.faulty_bus()->stats(),
                           wan.sim_time());
  };

  const auto a = run(0x5EED);
  const auto b = run(0x5EED);
  EXPECT_EQ(std::get<0>(a), std::get<0>(b));
  EXPECT_EQ(std::get<1>(a), std::get<1>(b));
  EXPECT_TRUE(std::get<2>(a) == std::get<2>(b));
  EXPECT_TRUE(std::get<3>(a) == std::get<3>(b));
  EXPECT_DOUBLE_EQ(std::get<4>(a), std::get<4>(b));
}

TEST(FaultyFlooding, CorruptedCopiesAreRejectedYetViewsConverge) {
  sim::DsdnEmulation wan(bridged_rings(), cross_traffic());
  sim::LinkFaultProfile garbling;
  garbling.corrupt = 0.20;
  wan.enable_fault_injection(garbling, /*seed=*/0xC0);
  wan.bootstrap();
  EXPECT_TRUE(wan.views_converged());
  EXPECT_GT(wan.flood_stats().decode_errors, 0u);
  // Corrupted transfers look like losses to the sender and get retried.
  EXPECT_GT(wan.flood_stats().retransmits, 0u);
  const auto r = wan.send_packet(0, wan.address_of(6));
  EXPECT_EQ(r.outcome, dataplane::ForwardOutcome::kDelivered);
}

TEST(FaultyFlooding, DuplicatedAndReorderedCopiesAreIdempotent) {
  sim::DsdnEmulation wan(bridged_rings(), cross_traffic());
  sim::LinkFaultProfile messy;
  messy.duplicate = 0.30;
  messy.reorder = 0.30;
  wan.enable_fault_injection(messy, /*seed=*/0xD0B);
  wan.bootstrap();
  EXPECT_TRUE(wan.views_converged());
  EXPECT_GT(wan.faulty_bus()->stats().duplicated, 0u);
  EXPECT_GT(wan.faulty_bus()->stats().reordered, 0u);
  // Duplicates inflate deliveries but StateDb stale-rejection keeps every
  // view identical; traffic still routes.
  const auto r = wan.send_packet(6, wan.address_of(0));
  EXPECT_EQ(r.outcome, dataplane::ForwardOutcome::kDelivered);
}

TEST(FaultyFlooding, BlackholedLinkGivesUpAfterBoundedRetransmits) {
  sim::DsdnEmulation wan(bridged_rings(), cross_traffic());
  wan.enable_fault_injection(sim::LinkFaultProfile{}, /*seed=*/0xB1);
  sim::LinkFaultProfile blackhole;
  blackhole.drop = 1.0;
  const topo::LinkId bridge = wan.network().find_link(1, 5);
  ASSERT_NE(bridge, topo::kInvalidLink);
  wan.set_link_fault_profile(bridge, blackhole);

  // bootstrap() must terminate (retransmits are bounded) even though one
  // flooding direction never delivers, and the sender must account the
  // abandoned transfers.
  wan.bootstrap();
  EXPECT_GT(wan.flood_stats().gave_up, 0u);
  EXPECT_EQ(wan.flood_stats().retransmits,
            wan.flood_stats().gave_up * 5u);  // max_retransmits each
  // Island B is missing island-A state that only crosses 1->5.
  EXPECT_FALSE(wan.views_converged());
}

TEST(FaultInjection, CrashDuringPartitionRecoversAfterHeal) {
  sim::DsdnEmulation wan(bridged_rings(), cross_traffic());
  wan.bootstrap();
  const topo::LinkId bridge = wan.network().find_link(1, 5);
  wan.fail_fiber(bridge);
  // A controller crashes inside island B and recovers from an island-B
  // neighbor (its only reachable source of state).
  wan.crash_and_recover(6);
  wan.repair_fiber(bridge);
  EXPECT_TRUE(wan.views_converged());
  const auto r = wan.send_packet(6, wan.address_of(0));
  EXPECT_EQ(r.outcome, dataplane::ForwardOutcome::kDelivered);
}

}  // namespace
}  // namespace dsdn
