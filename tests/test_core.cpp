#include <gtest/gtest.h>

#include "core/bus.hpp"
#include "core/controller.hpp"
#include "core/nsu.hpp"
#include "core/state_db.hpp"
#include "topo/synthetic.hpp"
#include "traffic/gravity.hpp"
#include "util/rng.hpp"

namespace dsdn::core {
namespace {

using metrics::PriorityClass;

NodeStateUpdate minimal_nsu(topo::NodeId origin, std::uint64_t seq) {
  NodeStateUpdate nsu;
  nsu.origin = origin;
  nsu.seq = seq;
  return nsu;
}

TEST(Nsu, ValidatorAcceptsWellFormed) {
  NodeStateUpdate nsu = minimal_nsu(1, 1);
  nsu.links.push_back({0, 2, true, 100.0, 1.0, 0.001, 0});
  nsu.prefixes.push_back({topo::parse_ipv4("10.0.0.0"), 24});
  nsu.demands.push_back({2, PriorityClass::kHigh, 1.0});
  EXPECT_EQ(validate_nsu(nsu), NsuValidity::kValid);
}

TEST(Nsu, ValidatorCatchesMalformations) {
  NodeStateUpdate bad_origin = minimal_nsu(topo::kInvalidNode, 1);
  EXPECT_EQ(validate_nsu(bad_origin), NsuValidity::kBadOrigin);

  NodeStateUpdate dup = minimal_nsu(1, 1);
  dup.links.push_back({7, 2, true, 1, 1, 0, 0});
  dup.links.push_back({7, 3, true, 1, 1, 0, 0});
  EXPECT_EQ(validate_nsu(dup), NsuValidity::kDuplicateLinkAdvert);

  NodeStateUpdate neg_cap = minimal_nsu(1, 1);
  neg_cap.links.push_back({7, 2, true, -5, 1, 0, 0});
  EXPECT_EQ(validate_nsu(neg_cap), NsuValidity::kNegativeCapacity);

  NodeStateUpdate neg_dem = minimal_nsu(1, 1);
  neg_dem.demands.push_back({2, PriorityClass::kHigh, -1});
  EXPECT_EQ(validate_nsu(neg_dem), NsuValidity::kNegativeDemand);

  NodeStateUpdate self_dem = minimal_nsu(1, 1);
  self_dem.demands.push_back({1, PriorityClass::kHigh, 1});
  EXPECT_EQ(validate_nsu(self_dem), NsuValidity::kSelfDemand);

  NodeStateUpdate bad_prefix = minimal_nsu(1, 1);
  bad_prefix.prefixes.push_back({0, 40});
  EXPECT_EQ(validate_nsu(bad_prefix), NsuValidity::kBadPrefix);
}

TEST(Nsu, WireSizeTracksContent) {
  NodeStateUpdate small = minimal_nsu(1, 1);
  NodeStateUpdate big = small;
  for (int i = 0; i < 100; ++i)
    big.demands.push_back(
        {static_cast<topo::NodeId>(i + 2), PriorityClass::kHigh, 1.0});
  EXPECT_GT(nsu_wire_size(big), nsu_wire_size(small) + 1000);
}

// A 6-node ring as the configured inventory for StateDb tests.
topo::Topology ring6() {
  topo::Topology t;
  for (int i = 0; i < 6; ++i) {
    t.add_node("r" + std::to_string(i), "m" + std::to_string(i));
  }
  for (topo::NodeId i = 0; i < 6; ++i) t.add_duplex(i, (i + 1) % 6, 100.0);
  return t;
}

NodeStateUpdate content_nsu(const topo::Topology& t, topo::NodeId origin,
                            std::uint64_t seq, double cap) {
  NodeStateUpdate nsu = minimal_nsu(origin, seq);
  const topo::NodeId peer = (origin + 1) % 6;
  nsu.links.push_back({t.find_link(origin, peer), peer, true, cap, 1.0,
                       0.001, 0});
  return nsu;
}

TEST(StateDb, DuplicateApplyIsIdempotent) {
  const auto topo = ring6();
  StateDb db(topo);
  const auto nsu = content_nsu(topo, 1, 5, 100.0);
  EXPECT_TRUE(db.apply(nsu));
  const auto digest = db.digest();
  // Exact duplicate (same seq): rejected as stale, state untouched.
  EXPECT_FALSE(db.apply(nsu));
  EXPECT_EQ(db.digest(), digest);
  EXPECT_EQ(db.rejected_stale(), 1u);
  EXPECT_EQ(db.num_origins(), 1u);
}

TEST(StateDb, StaleSeqNeverOverwritesNewerState) {
  const auto topo = ring6();
  StateDb db(topo);
  EXPECT_TRUE(db.apply(content_nsu(topo, 1, 9, 400.0)));
  const auto digest = db.digest();
  // An older seq with different (attacker-chosen) content must bounce.
  EXPECT_FALSE(db.apply(content_nsu(topo, 1, 3, 777.0)));
  EXPECT_EQ(db.digest(), digest);
  ASSERT_NE(db.latest(1), nullptr);
  EXPECT_EQ(db.latest(1)->seq, 9u);
  EXPECT_DOUBLE_EQ(db.latest(1)->links[0].capacity_gbps, 400.0);
  EXPECT_EQ(db.rejected_stale(), 1u);
}

TEST(StateDb, ReorderedDeliveryConvergesToSameDigest) {
  // Flooding gives no ordering guarantee; any interleaving of the same
  // NSU set must land every replica on the same digest (the paper's
  // consensus-free convergence invariant).
  const auto topo = ring6();
  std::vector<NodeStateUpdate> updates;
  for (topo::NodeId origin = 1; origin <= 4; ++origin) {
    for (std::uint64_t seq = 1; seq <= 3; ++seq) {
      updates.push_back(
          content_nsu(topo, origin, seq, 100.0 * static_cast<double>(seq)));
    }
  }
  StateDb in_order(topo);
  for (const auto& u : updates) in_order.apply(u);

  StateDb reversed(topo);
  for (auto it = updates.rbegin(); it != updates.rend(); ++it)
    reversed.apply(*it);

  StateDb shuffled(topo);
  util::Rng rng(0x0DD);
  auto perm = updates;
  for (std::size_t i = perm.size(); i > 1; --i) {
    std::swap(perm[i - 1], perm[static_cast<std::size_t>(
                               rng.uniform_int(0, static_cast<std::int64_t>(
                                                      i - 1)))]);
  }
  for (const auto& u : perm) shuffled.apply(u);

  EXPECT_EQ(in_order.digest(), reversed.digest());
  EXPECT_EQ(in_order.digest(), shuffled.digest());
  // Every replica kept only the newest seq per origin.
  for (topo::NodeId origin = 1; origin <= 4; ++origin) {
    ASSERT_NE(reversed.latest(origin), nullptr);
    EXPECT_EQ(reversed.latest(origin)->seq, 3u);
  }
  // Reversed delivery saw 2 stale updates per origin.
  EXPECT_EQ(reversed.rejected_stale(), 8u);
}

TEST(StateDb, TakeDeltaStartsFullThenTracksChanges) {
  const auto topo = ring6();
  StateDb db(topo);
  // The first delta is always full: nothing has been recomputed yet.
  te::ViewDelta first = db.take_delta();
  EXPECT_TRUE(first.full);
  // Nothing happened since the drain: the next delta is empty.
  te::ViewDelta quiet = db.take_delta();
  EXPECT_FALSE(quiet.full);
  EXPECT_TRUE(quiet.empty());

  // A link-down advert marks exactly that link.
  NodeStateUpdate down = content_nsu(topo, 1, 1, 100.0);
  down.links[0].up = false;
  EXPECT_TRUE(db.apply(down));
  te::ViewDelta d = db.take_delta();
  EXPECT_FALSE(d.full);
  ASSERT_EQ(d.changed_links.size(), 1u);
  EXPECT_EQ(d.changed_links[0], topo.find_link(1, 2));
  // A first-heard origin with no demand rows is NOT a demand change: the
  // assembled traffic matrix is identical either way. (The delta is a
  // diff of recompute-to-recompute state, not of arrival events.)
  EXPECT_TRUE(d.changed_demand_origins.empty());
}

TEST(StateDb, TakeDeltaIsArrivalOrderInvariant) {
  // A flap's down-NSU and up-NSU can arrive in either order under lossy
  // flooding (the late down-NSU is rejected as stale). Both receivers
  // end with the same digest, and they MUST derive the same delta from
  // it -- the delta picks the warm solver's released set, and differing
  // released sets let two headends jointly overcommit a link (found by
  // the scenario swarm, seed 56 on lossy Abilene).
  const auto topo = ring6();
  StateDb in_order(topo);
  StateDb reordered(topo);
  NodeStateUpdate down = content_nsu(topo, 1, 2, 100.0);
  down.links[0].up = false;
  const NodeStateUpdate up = content_nsu(topo, 1, 3, 100.0);
  in_order.take_delta();
  reordered.take_delta();

  EXPECT_TRUE(in_order.apply(down));
  EXPECT_TRUE(in_order.apply(up));
  EXPECT_TRUE(reordered.apply(up));
  EXPECT_FALSE(reordered.apply(down));  // stale
  ASSERT_EQ(in_order.digest(), reordered.digest());

  const te::ViewDelta a = in_order.take_delta();
  const te::ViewDelta b = reordered.take_delta();
  EXPECT_EQ(a.changed_links, b.changed_links);
  EXPECT_EQ(a.changed_demand_origins, b.changed_demand_origins);
  // And since the flap netted out, neither reports the link as changed:
  // the previous solution is still valid for the (unchanged) view.
  EXPECT_TRUE(a.empty());
}

TEST(StateDb, TakeDeltaIgnoresNoopAndStaleUpdates) {
  const auto topo = ring6();
  StateDb db(topo);
  EXPECT_TRUE(db.apply(content_nsu(topo, 2, 1, 100.0)));
  db.take_delta();  // drain the initial full delta

  // Re-advertising the identical link state (newer seq) changes nothing.
  EXPECT_TRUE(db.apply(content_nsu(topo, 2, 2, 100.0)));
  te::ViewDelta noop = db.take_delta();
  EXPECT_TRUE(noop.changed_links.empty());
  EXPECT_TRUE(noop.changed_demand_origins.empty());

  // Stale updates never mark the delta.
  EXPECT_FALSE(db.apply(content_nsu(topo, 2, 1, 55.0)));
  EXPECT_TRUE(db.take_delta().empty());

  // A capacity change does mark the link.
  EXPECT_TRUE(db.apply(content_nsu(topo, 2, 3, 40.0)));
  te::ViewDelta cap = db.take_delta();
  ASSERT_EQ(cap.changed_links.size(), 1u);
  EXPECT_EQ(cap.changed_links[0], topo.find_link(2, 3));
}

TEST(StateDb, TakeDeltaTracksDemandChurn) {
  const auto topo = ring6();
  StateDb db(topo);
  NodeStateUpdate nsu = minimal_nsu(3, 1);
  nsu.demands.push_back({0, PriorityClass::kHigh, 2.0});
  EXPECT_TRUE(db.apply(nsu));
  db.take_delta();

  // Same rows under a newer seq: no demand change.
  nsu.seq = 2;
  EXPECT_TRUE(db.apply(nsu));
  EXPECT_TRUE(db.take_delta().changed_demand_origins.empty());

  // A re-rated row marks the origin.
  nsu.seq = 3;
  nsu.demands[0].rate_gbps = 5.0;
  EXPECT_TRUE(db.apply(nsu));
  te::ViewDelta d = db.take_delta();
  ASSERT_EQ(d.changed_demand_origins.size(), 1u);
  EXPECT_EQ(d.changed_demand_origins[0], 3u);

  // A dropped row also marks it.
  nsu.seq = 4;
  nsu.demands.clear();
  EXPECT_TRUE(db.apply(nsu));
  d = db.take_delta();
  ASSERT_EQ(d.changed_demand_origins.size(), 1u);
  EXPECT_EQ(d.changed_demand_origins[0], 3u);
}

TEST(Bus, PublishReachesSubscribersInOrder) {
  Bus bus;
  std::vector<int> order;
  bus.subscribe("t", [&](const std::any&) { order.push_back(1); });
  bus.subscribe("t", [&](const std::any&) { order.push_back(2); });
  bus.publish_as<int>("t", 0);
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(Bus, UnsubscribeStopsDelivery) {
  Bus bus;
  int hits = 0;
  const auto token = bus.subscribe("t", [&](const std::any&) { ++hits; });
  bus.publish_as<int>("t", 0);
  bus.unsubscribe("t", token);
  bus.publish_as<int>("t", 0);
  EXPECT_EQ(hits, 1);
  EXPECT_EQ(bus.num_subscribers("t"), 0u);
}

TEST(Bus, TypedPayloadRoundTrips) {
  Bus bus;
  std::uint64_t got = 0;
  bus.subscribe("d", [&](const std::any& m) {
    got = std::any_cast<std::uint64_t>(m);
  });
  bus.publish_as<std::uint64_t>("d", 42);
  EXPECT_EQ(got, 42u);
}

// ---- StateDb ----

class StateDbTest : public ::testing::Test {
 protected:
  topo::Topology topo_ = topo::make_ring(4);
  StateDb db_{topo_};
};

TEST_F(StateDbTest, AcceptsFreshRejectsStale) {
  EXPECT_TRUE(db_.apply(minimal_nsu(1, 5)));
  EXPECT_FALSE(db_.apply(minimal_nsu(1, 5)));  // duplicate
  EXPECT_FALSE(db_.apply(minimal_nsu(1, 3)));  // stale
  EXPECT_TRUE(db_.apply(minimal_nsu(1, 6)));
  EXPECT_EQ(db_.accepted(), 2u);
  EXPECT_EQ(db_.rejected_stale(), 2u);
  EXPECT_EQ(db_.seq_of(1), 6u);
}

TEST_F(StateDbTest, RejectsMalformed) {
  EXPECT_FALSE(db_.apply(minimal_nsu(topo::kInvalidNode, 1)));
  EXPECT_EQ(db_.rejected_invalid(), 1u);
}

TEST_F(StateDbTest, LinkStateUpdatesView) {
  const topo::LinkId l = topo_.find_link(0, 1);
  NodeStateUpdate nsu = minimal_nsu(0, 1);
  nsu.links.push_back({l, 1, /*up=*/false, 100, 1, 0.001, 0});
  EXPECT_TRUE(db_.apply(nsu));
  EXPECT_FALSE(db_.view().link(l).up);
  // A newer NSU restores it.
  NodeStateUpdate fresh = minimal_nsu(0, 2);
  fresh.links.push_back({l, 1, true, 100, 1, 0.001, 0});
  EXPECT_TRUE(db_.apply(fresh));
  EXPECT_TRUE(db_.view().link(l).up);
}

TEST_F(StateDbTest, DemandsAggregateAcrossOrigins) {
  NodeStateUpdate a = minimal_nsu(0, 1);
  a.demands.push_back({2, PriorityClass::kHigh, 3.0});
  NodeStateUpdate b = minimal_nsu(1, 1);
  b.demands.push_back({3, PriorityClass::kLow, 2.0});
  db_.apply(a);
  db_.apply(b);
  const auto tm = db_.demands();
  EXPECT_EQ(tm.size(), 2u);
  EXPECT_DOUBLE_EQ(tm.total_rate_gbps(), 5.0);
}

TEST_F(StateDbTest, DigestOrderInsensitive) {
  StateDb other(topo_);
  NodeStateUpdate a = minimal_nsu(0, 1);
  a.demands.push_back({2, PriorityClass::kHigh, 3.0});
  NodeStateUpdate b = minimal_nsu(1, 4);
  b.prefixes.push_back({topo::parse_ipv4("10.0.0.0"), 24});
  db_.apply(a);
  db_.apply(b);
  other.apply(b);
  other.apply(a);
  EXPECT_EQ(db_.digest(), other.digest());
}

TEST_F(StateDbTest, DigestDetectsDivergence) {
  StateDb other(topo_);
  db_.apply(minimal_nsu(0, 1));
  other.apply(minimal_nsu(0, 2));
  EXPECT_NE(db_.digest(), other.digest());
}

TEST_F(StateDbTest, LoadFromNeighborConverges) {
  NodeStateUpdate a = minimal_nsu(0, 3);
  a.demands.push_back({2, PriorityClass::kHigh, 1.0});
  db_.apply(a);
  StateDb fresh(topo_);
  fresh.load_from(db_);
  EXPECT_EQ(fresh.digest(), db_.digest());
  EXPECT_TRUE(fresh.heard_from(0));
}

TEST_F(StateDbTest, PrefixEntriesDeterministicOrder) {
  NodeStateUpdate b = minimal_nsu(1, 1);
  b.prefixes.push_back({topo::parse_ipv4("10.0.1.0"), 24});
  NodeStateUpdate a = minimal_nsu(0, 1);
  a.prefixes.push_back({topo::parse_ipv4("10.0.0.0"), 24});
  db_.apply(b);
  db_.apply(a);
  const auto entries = db_.prefix_entries();
  ASSERT_EQ(entries.size(), 2u);
  EXPECT_EQ(entries[0].second, 0u);  // ordered by origin
  EXPECT_EQ(entries[1].second, 1u);
}

// ---- Controller ----

struct ControllerFixture {
  topo::Topology topo = topo::make_ring(4);
  traffic::TrafficMatrix tm;
  std::vector<topo::Prefix> prefixes = topo::assign_router_prefixes(topo);
  SimTelemetry telemetry{&topo, &tm, prefixes};

  ControllerFixture() {
    tm.add({0, 2, PriorityClass::kHigh, 1.0});
    tm.add({1, 3, PriorityClass::kLow, 2.0});
  }

  Controller make(topo::NodeId self) {
    ControllerConfig cc;
    cc.self = self;
    return Controller(cc, topo);
  }
};

TEST(Controller, OriginateFloodsOnAllUpLinks) {
  ControllerFixture f;
  Controller c = f.make(0);
  const auto d = c.originate(f.telemetry);
  EXPECT_EQ(d.nsu.origin, 0u);
  EXPECT_EQ(d.nsu.seq, 1u);
  EXPECT_EQ(d.out_links.size(), f.topo.node(0).out_links.size());
  EXPECT_FALSE(d.nsu.links.empty());
  EXPECT_EQ(d.nsu.demands.size(), 1u);  // the 0->2 demand
}

TEST(Controller, HandleNsuFloodsExceptArrivalReverse) {
  ControllerFixture f;
  Controller c1 = f.make(1);
  Controller c0 = f.make(0);
  const auto origin = c0.originate(f.telemetry);
  const topo::LinkId arrival = f.topo.find_link(0, 1);
  const auto onward = c1.handle_nsu(origin.nsu, arrival);
  ASSERT_FALSE(onward.empty());
  for (topo::LinkId l : onward.out_links) {
    EXPECT_NE(l, f.topo.link(arrival).reverse);
  }
}

TEST(Controller, StaleNsuStopsFlooding) {
  ControllerFixture f;
  Controller c1 = f.make(1);
  Controller c0 = f.make(0);
  const auto origin = c0.originate(f.telemetry);
  const topo::LinkId arrival = f.topo.find_link(0, 1);
  EXPECT_FALSE(c1.handle_nsu(origin.nsu, arrival).empty());
  // Second copy (e.g. around the ring): suppressed.
  EXPECT_TRUE(c1.handle_nsu(origin.nsu, f.topo.find_link(2, 1)).empty());
}

TEST(Controller, OwnEchoNeverRefloods) {
  ControllerFixture f;
  Controller c0 = f.make(0);
  const auto origin = c0.originate(f.telemetry);
  EXPECT_TRUE(c0.handle_nsu(origin.nsu, f.topo.find_link(1, 0)).empty());
}

TEST(Controller, RecomputeProgramsOwnPathsOnly) {
  ControllerFixture f;
  Controller c0 = f.make(0);
  Controller c1 = f.make(1);
  // Give both controllers the full network view: each originates its own
  // local state (a controller never accepts an echo of its own origin),
  // and third-party NSUs are delivered to both.
  {
    const auto d0 = c0.originate(f.telemetry);
    c1.handle_nsu(d0.nsu, topo::kInvalidLink);
    const auto d1 = c1.originate(f.telemetry);
    c0.handle_nsu(d1.nsu, topo::kInvalidLink);
    for (topo::NodeId n = 2; n < f.topo.num_nodes(); ++n) {
      Controller tmp = f.make(n);
      const auto d = tmp.originate(f.telemetry);
      c0.handle_nsu(d.nsu, topo::kInvalidLink);
      c1.handle_nsu(d.nsu, topo::kInvalidLink);
    }
  }
  const auto r0 = c0.recompute();
  const auto r1 = c1.recompute();
  EXPECT_EQ(r0.own_allocations, 1u);  // only 0->2
  EXPECT_EQ(r1.own_allocations, 1u);  // only 1->3
  EXPECT_GT(r0.encap.routes_installed, 0u);
}

TEST(Controller, BusPublishesLifecycleTopics) {
  ControllerFixture f;
  Controller c = f.make(0);
  int state_changes = 0, solutions = 0;
  c.bus().subscribe(topics::kStateChanged,
                    [&](const std::any&) { ++state_changes; });
  c.bus().subscribe(topics::kSolutionReady,
                    [&](const std::any&) { ++solutions; });
  c.originate(f.telemetry);
  c.recompute();
  EXPECT_EQ(state_changes, 1);
  EXPECT_EQ(solutions, 1);
}

TEST(Controller, RecoverFromNeighborRestoresSeq) {
  ControllerFixture f;
  Controller c0 = f.make(0);
  Controller c1 = f.make(1);
  // c0 originates three times; c1 hears them all.
  for (int i = 0; i < 3; ++i) {
    const auto d = c0.originate(f.telemetry);
    c1.handle_nsu(d.nsu, f.topo.find_link(0, 1));
  }
  // c0 crashes and restarts fresh.
  Controller reborn = f.make(0);
  reborn.recover_from(c1);
  EXPECT_EQ(reborn.state().seq_of(0), 3u);
  // Its next origination must not be mistaken for stale.
  const auto d = reborn.originate(f.telemetry);
  EXPECT_GT(d.nsu.seq, 3u);
  EXPECT_FALSE(c1.handle_nsu(d.nsu, f.topo.find_link(0, 1)).empty());
}

TEST(Controller, CustomSolveApiIsUsed) {
  // Operator-defined control logic: swap the solver implementation.
  class NullSolver final : public SolveApi {
   public:
    mutable int calls = 0;
    te::Solution solve(const topo::Topology&, const traffic::TrafficMatrix&,
                       te::SolveStats*) const override {
      ++calls;
      return {};
    }
  };
  ControllerFixture f;
  Controller c = f.make(0);
  auto solver = std::make_unique<NullSolver>();
  NullSolver* raw = solver.get();
  c.set_solve_api(std::move(solver));
  c.originate(f.telemetry);
  c.recompute();
  EXPECT_EQ(raw->calls, 1);
  EXPECT_THROW(c.set_solve_api(nullptr), std::invalid_argument);
}

TEST(Controller, OpaqueTlvsSurviveValidationAndApply) {
  ControllerFixture f;
  StateDb db(f.topo);
  NodeStateUpdate nsu = minimal_nsu(2, 1);
  nsu.tlvs.push_back({0xBEEF, "future-algorithm-id"});
  EXPECT_EQ(validate_nsu(nsu), NsuValidity::kValid);
  EXPECT_TRUE(db.apply(nsu));
}

}  // namespace
}  // namespace dsdn::core

#include "core/introspection.hpp"
#include "te/path_cache.hpp"

namespace dsdn::core {
namespace {

TEST(Introspection, StatusReflectsControllerState) {
  ControllerFixture f;
  Controller c = f.make(0);
  c.originate(f.telemetry);
  c.recompute();
  const auto status = collect_status(c);
  EXPECT_EQ(status.self, 0u);
  EXPECT_EQ(status.origins_heard, 1u);
  EXPECT_EQ(status.nsus_accepted, 1u);
  EXPECT_EQ(status.transit_entries, f.topo.node(0).out_links.size());
  EXPECT_GT(status.prefixes, 0u);
  EXPECT_EQ(status.links_up_in_view + status.links_down_in_view,
            f.topo.num_links());

  // Programming accounting flows from the controller's lifetime totals.
  EXPECT_EQ(status.recomputes, 1u);
  EXPECT_GT(status.routes_installed, 0u);
  EXPECT_EQ(status.routes_too_deep, 0u);

  // The solver's path table, reported in full.
  EXPECT_EQ(status.te_table_bytes,
            te::PathCache::of(c.state().view())->bytes());
  EXPECT_GT(status.te_table_bytes, 0u);

  const auto text = render_status(status, c.state().view());
  EXPECT_NE(text.find("origins heard"), std::string::npos);
  EXPECT_NE(text.find("FRR-protected"), std::string::npos);
  EXPECT_NE(text.find("routes installed"), std::string::npos);
  EXPECT_NE(text.find("retransmits"), std::string::npos);
}

TEST(Introspection, RenderStatusGolden) {
  // Full-output golden: every field, including the programming and
  // flooding counter lines, in their operator-facing layout.
  const topo::Topology view = topo::make_ring(4);
  ControllerStatus s;
  s.self = 0;
  s.view_digest = 0x1f;
  s.origins_heard = 3;
  s.nsus_accepted = 5;
  s.nsus_rejected_stale = 2;
  s.nsus_rejected_invalid = 1;
  s.links_up_in_view = 7;
  s.links_down_in_view = 1;
  s.prefixes = 4;
  s.encap_entries = 6;
  s.transit_entries = 2;
  s.protected_links = 3;
  s.recomputes = 9;
  s.routes_installed = 12;
  s.routes_too_deep = 2;
  s.flood_transmissions = 120;
  s.flood_retransmits = 6;
  s.flood_gave_up = 1;
  s.flood_decode_errors = 3;
  s.te_frozen_demands = 2;
  s.te_frozen_no_path = 1;
  s.te_frozen_round_cap = 1;
  s.te_incremental_solves = 8;
  s.te_full_solves = 1;
  s.te_incremental_fallbacks = 1;
  s.te_last_reuse_fraction = 0.875;
  s.te_table_bytes = 39100;
  s.te_table_paths = 1180;
  s.te_path_searches = 4;
  EXPECT_EQ(
      render_status(s, view),
      "dSDN controller @ n0 (router 0)\n"
      "  view digest     : 1f\n"
      "  origins heard   : 3 / 4\n"
      "  NSUs            : 5 accepted, 2 stale, 1 invalid\n"
      "  view link state : 7 up, 1 down\n"
      "  FIBs            : 4 prefixes, 6 encap groups, 2 transit labels, "
      "3 FRR-protected links\n"
      "  programming     : 9 recomputes, 12 routes installed, 2 too deep\n"
      "  flooding        : 120 transmissions, 6 retransmits, 1 gave up, "
      "3 decode errors\n"
      "  TE solver       : 2 frozen demands (1 no-path, 1 round-cap); "
      "incremental 8 warm / "
      "1 full (1 fallbacks), last reuse 87.5%\n"
      "  TE path table   : 39.1 KB; last solve 1180 table paths, "
      "4 searches\n");
}

TEST(Introspection, MergeFloodCountersReadsHostRegistry) {
  obs::Registry host;
  host.counter("flood.transmissions").add(10);
  host.counter("flood.retransmits").add(2);
  host.counter("flood.gave_up").add(1);
  ControllerStatus s;
  merge_flood_counters(s, host.snapshot());
  EXPECT_EQ(s.flood_transmissions, 10u);
  EXPECT_EQ(s.flood_retransmits, 2u);
  EXPECT_EQ(s.flood_gave_up, 1u);
  EXPECT_EQ(s.flood_decode_errors, 0u);  // absent counter reads as zero
}

TEST(Introspection, FleetDigestCountsConvergence) {
  ControllerFixture f;
  Controller a = f.make(0);
  Controller b = f.make(1);
  const auto d0 = a.originate(f.telemetry);
  b.handle_nsu(d0.nsu, topo::kInvalidLink);
  const auto d1 = b.originate(f.telemetry);
  a.handle_nsu(d1.nsu, topo::kInvalidLink);
  const auto text = render_fleet_digest(
      {collect_status(a), collect_status(b)});
  EXPECT_NE(text.find("2 controllers, 2 sharing"), std::string::npos);
}

}  // namespace
}  // namespace dsdn::core
