// The consensus-free contrast of §3.1: per-hop destination forwarding can
// loop or dead-end while router views diverge; strict source routing
// structurally cannot loop, no matter how stale the headend's view is.

#include <gtest/gtest.h>

#include "dataplane/forwarder.hpp"
#include "isis/per_hop.hpp"
#include "sim/convergence.hpp"
#include "solver_golden.hpp"
#include "te/dijkstra.hpp"
#include "topo/builder.hpp"
#include "topo/synthetic.hpp"
#include "topo/zoo.hpp"
#include "util/rng.hpp"

namespace dsdn {
namespace {

using isis::PerHopOutcome;

std::vector<isis::NextHopTable> tables_from_view(const topo::Topology& view) {
  const te::PathTables paths = te::PathTables::of(view);
  std::vector<isis::NextHopTable> tables;
  for (topo::NodeId n = 0; n < view.num_nodes(); ++n) {
    tables.push_back(isis::compute_next_hops(paths, n));
  }
  return tables;
}

TEST(PerHop, DeliversWhenAllViewsAgree) {
  const auto topo = topo::make_geant();
  const auto tables = tables_from_view(topo);
  for (topo::NodeId d = 1; d < 10; ++d) {
    const auto r = isis::forward_per_hop(topo, tables, 0, d);
    EXPECT_EQ(r.outcome, PerHopOutcome::kDelivered);
    EXPECT_EQ(r.trace.back(), d);
  }
}

// Every B4 router's next hops, on the intact view and with two fibers
// down. Recorded when each router built its own shortest-path tree;
// walking the path table must not move a hop.
TEST(PerHopGolden, B4NextHopsArePinned) {
  topo::Topology view = topo::make_b4_like();
  const auto digest = [&] {
    golden::Fnv f;
    const auto tables = tables_from_view(view);
    for (const isis::NextHopTable& t : tables) {
      f.add(static_cast<std::uint64_t>(t.self));
      for (topo::LinkId l : t.next_hop) f.add(static_cast<std::uint64_t>(l));
    }
    return f.h;
  };
  const std::uint64_t intact = digest();
  EXPECT_EQ(intact, 0x814d392491e15704u) << "intact: 0x" << std::hex << intact;
  for (topo::LinkId fiber : sim::pick_failure_fibers(view, 2, 22))
    view.set_duplex_up(fiber, false);
  const std::uint64_t cut = digest();
  EXPECT_EQ(cut, 0x5bae536797102f4du)
      << "two fibers down: 0x" << std::hex << cut;
}

TEST(PerHop, MicroLoopUnderDivergentViews) {
  // Classic micro-loop: a line 0-1-2-3 plus a long backup 0-3. Cut the
  // 2-3 link. Router 2 has reconverged (sends 3-bound traffic back toward
  // 0 to use the backup); router 1 has NOT (still forwards toward 2).
  // A packet for 3 entering at 1 ping-pongs 1 -> 2 -> 1.
  topo::Topology t;
  for (int i = 0; i < 4; ++i) t.add_node("n" + std::to_string(i));
  t.add_duplex(0, 1, 100, 1.0);
  t.add_duplex(1, 2, 100, 1.0);
  t.add_duplex(2, 3, 100, 1.0);
  t.add_duplex(0, 3, 100, 10.0);  // expensive backup

  topo::Topology stale = t;   // pre-failure view
  topo::Topology fresh = t;   // post-failure view
  fresh.set_duplex_up(fresh.find_link(2, 3), false);

  const te::PathTables fresh_paths = te::PathTables::of(fresh);
  const te::PathTables stale_paths = te::PathTables::of(stale);
  std::vector<isis::NextHopTable> tables;
  tables.push_back(isis::compute_next_hops(fresh_paths, 0));
  tables.push_back(isis::compute_next_hops(stale_paths, 1));  // NOT converged
  tables.push_back(isis::compute_next_hops(fresh_paths, 2));
  tables.push_back(isis::compute_next_hops(fresh_paths, 3));

  topo::Topology ground = fresh;
  const auto r = isis::forward_per_hop(ground, tables, 1, 3);
  EXPECT_EQ(r.outcome, PerHopOutcome::kLoop);
}

TEST(PerHop, SourceRoutingNeverLoopsUnderTheSameDivergence) {
  // The same scenario through the dSDN data plane: the stale headend's
  // source route marches straight to the dead link and stops there --
  // deterministically, with no loop, regardless of what other routers
  // believe.
  topo::Topology t;
  for (int i = 0; i < 4; ++i) t.add_node("n" + std::to_string(i));
  t.add_duplex(0, 1, 100, 1.0);
  t.add_duplex(1, 2, 100, 1.0);
  t.add_duplex(2, 3, 100, 1.0);
  t.add_duplex(0, 3, 100, 10.0);
  const auto prefixes = topo::assign_router_prefixes(t);

  dataplane::VectorDataplanes routers(t.num_nodes());
  for (topo::NodeId n = 0; n < t.num_nodes(); ++n) {
    auto& rd = routers.mutable_at(n);
    for (topo::NodeId m = 0; m < t.num_nodes(); ++m)
      rd.ingress.set_prefix(prefixes[m], m);
  }
  // Stale headend 1 still uses the pre-failure route 1->2->3.
  te::Path stale_route;
  stale_route.links = {t.find_link(1, 2), t.find_link(2, 3)};
  dataplane::EncapEntry entry;
  entry.routes.push_back(
      {dataplane::encode_strict_route(stale_route), 1.0});
  routers.mutable_at(1).ingress.set_routes(
      3, metrics::PriorityClass::kHigh, entry);

  t.set_duplex_up(t.find_link(2, 3), false);
  const dataplane::Forwarder fwd(t, &routers);
  dataplane::Packet pkt;
  pkt.dst_ip = topo::host_in(prefixes[3]);
  const auto r = fwd.forward(pkt, 1);
  // Drop at the dead link (no bypass installed), never a TTL/loop event.
  EXPECT_EQ(r.outcome, dataplane::ForwardOutcome::kDroppedLinkDownNoBypass);
  std::set<topo::NodeId> seen(r.trace.begin(), r.trace.end());
  EXPECT_EQ(seen.size(), r.trace.size());
}

class ConsensusSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ConsensusSweep, RandomPartialConvergenceStates) {
  // Property: across random failures and random subsets of converged
  // routers, per-hop forwarding produces loops/dead-ends in some states;
  // source routes never revisit a node -- their only failure mode is
  // stopping at the dead link.
  auto topo = topo::make_geant();
  util::Rng rng(GetParam());

  const auto fibers = sim::pick_failure_fibers(topo, 1, GetParam());
  ASSERT_FALSE(fibers.empty());
  topo::Topology stale_view = topo;  // everyone's pre-failure view
  topo.set_duplex_up(fibers.front(), false);

  // Random subset of routers has reconverged onto the post-failure view.
  const te::PathTables fresh_paths = te::PathTables::of(topo);
  const te::PathTables stale_paths = te::PathTables::of(stale_view);
  std::vector<isis::NextHopTable> tables;
  for (topo::NodeId n = 0; n < topo.num_nodes(); ++n) {
    tables.push_back(isis::compute_next_hops(
        rng.bernoulli(0.5) ? fresh_paths : stale_paths, n));
  }

  std::size_t sr_loops = 0;
  for (topo::NodeId s = 0; s < topo.num_nodes(); ++s) {
    for (topo::NodeId d = 0; d < topo.num_nodes(); ++d) {
      if (s == d) continue;
      // Per-hop: whatever happens, it must terminate with a verdict
      // (the walk itself detects loops rather than running forever).
      (void)isis::forward_per_hop(topo, tables, s, d);
      // Source route from a stale headend: walk it manually on ground
      // truth; it must never revisit a node.
      const auto route = te::shortest_path(stale_view, s, d);
      if (!route) continue;
      std::set<topo::NodeId> seen{s};
      topo::NodeId at = s;
      for (topo::LinkId l : route->links) {
        if (!topo.link(l).up) break;  // stops at the dead link
        at = topo.link(l).dst;
        if (!seen.insert(at).second) {
          ++sr_loops;
          break;
        }
      }
    }
  }
  EXPECT_EQ(sr_loops, 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ConsensusSweep, ::testing::Values(1, 2, 3));

}  // namespace
}  // namespace dsdn
