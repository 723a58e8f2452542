#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <stdexcept>

#include "core/controller.hpp"
#include "core/upgrade.hpp"
#include "dataplane/forwarder.hpp"
#include "dataplane/label.hpp"
#include "obs/metrics.hpp"
#include "sim/invariants.hpp"
#include "solver_golden.hpp"
#include "sr_reference.hpp"
#include "te/dijkstra.hpp"
#include "te/segment_routing.hpp"
#include "topo/prefix.hpp"
#include "topo/synthetic.hpp"
#include "topo/zoo.hpp"
#include "traffic/gravity.hpp"
#include "util/rng.hpp"

namespace dsdn {
namespace {

using dataplane::ForwardOutcome;
using metrics::PriorityClass;

// ---- Node-segment label space ----

TEST(SrLabel, NodeSegmentsRoundTripAndStayDisjointFromLinkLabels) {
  for (topo::NodeId n : {0u, 1u, 77u, (1u << 19) - 1}) {
    const dataplane::Label l = dataplane::node_segment_label(n);
    EXPECT_TRUE(dataplane::is_node_segment_label(l));
    EXPECT_EQ(dataplane::segment_node(l), n);
  }
  // Ordinary link labels live strictly below the segment base.
  for (topo::LinkId lid : {0u, 15u, 1000u}) {
    const dataplane::Label l = dataplane::link_label(lid);
    EXPECT_FALSE(dataplane::is_node_segment_label(l));
    EXPECT_EQ(dataplane::label_link(l), lid);
  }
  // The spaces cannot collide: a link id that would reach the segment
  // base refuses to encode, and cross-decodes throw.
  EXPECT_THROW(dataplane::link_label(dataplane::kNodeSegmentBase),
               std::overflow_error);
  EXPECT_THROW(dataplane::segment_node(dataplane::link_label(5)),
               std::invalid_argument);
  EXPECT_THROW(dataplane::label_link(dataplane::node_segment_label(5)),
               std::invalid_argument);
  EXPECT_THROW(dataplane::node_segment_label(1u << 19), std::overflow_error);
}

TEST(SrLabel, EncodeSegmentRouteIsOutermostFirstNodeSids) {
  const auto stack = dataplane::encode_segment_route({4, 9, 2});
  ASSERT_EQ(stack.depth(), 3u);
  EXPECT_EQ(stack.labels()[0], dataplane::node_segment_label(4));
  EXPECT_EQ(stack.labels()[1], dataplane::node_segment_label(9));
  EXPECT_EQ(stack.labels()[2], dataplane::node_segment_label(2));
  EXPECT_THROW(
      dataplane::encode_segment_route(std::vector<topo::NodeId>(13, 1)),
      std::length_error);
}

// ---- Segment-stack TLV (wire coexistence) ----

TEST(SrTlv, SegmentStackRoundTrips) {
  for (const std::vector<topo::NodeId>& segs :
       {std::vector<topo::NodeId>{7}, std::vector<topo::NodeId>{3, 7},
        std::vector<topo::NodeId>{1, 5, 9}}) {
    const core::OpaqueTlv tlv = core::make_segment_stack_tlv(segs);
    EXPECT_EQ(tlv.type, core::kSegmentStackTlvType);
    const auto parsed = core::parse_segment_stack_tlv(tlv, 16);
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(*parsed, segs);
  }
}

TEST(SrTlv, MalformedSegmentStacksAreRejected) {
  EXPECT_THROW(core::make_segment_stack_tlv({}), std::length_error);
  EXPECT_THROW(core::make_segment_stack_tlv({1, 2, 3, 4}), std::length_error);
  EXPECT_THROW(core::make_segment_stack_tlv({0x10000}), std::out_of_range);

  const auto good = core::make_segment_stack_tlv({3, 7});
  // Wrong TLV type.
  core::OpaqueTlv wrong_type = good;
  wrong_type.type = 0x1234;
  EXPECT_FALSE(core::parse_segment_stack_tlv(wrong_type, 16));
  // Truncated payload: count says 2, only one id present.
  core::OpaqueTlv truncated = good;
  truncated.value.resize(3);
  EXPECT_FALSE(core::parse_segment_stack_tlv(truncated, 16));
  // Oversized payload: trailing junk past the declared count.
  core::OpaqueTlv oversized = good;
  oversized.value += '\x00';
  EXPECT_FALSE(core::parse_segment_stack_tlv(oversized, 16));
  // Depth out of [1,3].
  core::OpaqueTlv zero = good;
  zero.value[0] = 0;
  zero.value.resize(1);
  EXPECT_FALSE(core::parse_segment_stack_tlv(zero, 16));
  core::OpaqueTlv deep = good;
  deep.value[0] = 4;
  deep.value.resize(1 + 2 * 4, '\x01');
  EXPECT_FALSE(core::parse_segment_stack_tlv(deep, 16));
  // Middlepoint id out of range for the topology.
  EXPECT_FALSE(
      core::parse_segment_stack_tlv(core::make_segment_stack_tlv({15}), 15));
  EXPECT_FALSE(core::parse_segment_stack_tlv({core::kSegmentStackTlvType, ""},
                                             16));
}

// ---- Underlay / middlepoint determinism ----

TEST(SrUnderlay, EcmpMembersAreShortestPathDagEdgesSortedByLinkId) {
  const auto topo = topo::make_abilene();
  const auto underlay = te::SrUnderlay::build(topo);
  ASSERT_EQ(underlay.num_nodes(), topo.num_nodes());
  for (topo::NodeId u = 0; u < topo.num_nodes(); ++u) {
    for (topo::NodeId t = 0; t < topo.num_nodes(); ++t) {
      const auto members = underlay.ecmp_members(topo, u, t);
      if (u == t) {
        EXPECT_TRUE(members.empty());
        continue;
      }
      ASSERT_TRUE(underlay.reachable(u, t));
      ASSERT_FALSE(members.empty()) << u << "->" << t;
      EXPECT_TRUE(std::is_sorted(members.begin(), members.end()));
      for (topo::LinkId lid : members) {
        const auto& l = topo.link(lid);
        EXPECT_EQ(l.src, u);
        EXPECT_TRUE(l.up);
        // On a shortest path: stepping the link loses no distance.
        EXPECT_LE(l.igp_metric + underlay.dist(l.dst, t),
                  underlay.dist(u, t) + te::sr_eps(underlay.dist(u, t)));
      }
      // And the distance agrees with a straight Dijkstra run.
      const auto sp = te::shortest_path(topo, u, t);
      ASSERT_TRUE(sp.has_value());
      EXPECT_NEAR(underlay.dist(u, t), sp->igp_cost(topo), 1e-9);
    }
  }
}

TEST(SrUnderlay, DistancesToATargetWalkAOneWayRingBackward) {
  // One-way ring a -> b -> c -> a with metrics 1, 2 and 4: the distance to
  // a walks the ring backward, and with the back link down nothing else
  // reaches a.
  topo::Topology t;
  const auto a = t.add_node("a");
  const auto b = t.add_node("b");
  const auto c = t.add_node("c");
  t.add_link(a, b, 10, 1.0);
  t.add_link(b, c, 10, 2.0);
  const auto back = t.add_link(c, a, 10, 4.0);
  const auto ring = te::SrUnderlay::build(t);
  EXPECT_EQ(ring.dist(a, a), 0.0);
  EXPECT_EQ(ring.dist(b, a), 6.0);
  EXPECT_EQ(ring.dist(c, a), 4.0);
  t.set_link_up(back, false);
  const auto cut = te::SrUnderlay::build(t);
  EXPECT_EQ(cut.dist(a, a), 0.0);
  EXPECT_EQ(cut.dist(b, a), te::SrUnderlay::kInf);
  EXPECT_EQ(cut.dist(c, a), te::SrUnderlay::kInf);
}

TEST(SrUnderlay, DistancesAreShortestPathCosts) {
  // Every ordered pair, intact and with 1 and 3 fibers down: the underlay
  // distance is the cost of te::shortest_path's path (up to sr_eps: the
  // two sum metrics in opposite orders), and +inf exactly where no path
  // exists. The 3-fiber view first cuts every fiber of a lowest-degree
  // node, so some pairs have no path; the other cuts are random.
  util::Rng rng(0x5A);
  for (topo::Topology t :
       {topo::make_abilene(), topo::make_geant(), topo::make_b4_like()}) {
    std::vector<topo::LinkId> fibers;
    topo::NodeId leaf = 0;
    for (const topo::Link& l : t.links()) {
      if (l.reverse != topo::kInvalidLink && l.id < l.reverse)
        fibers.push_back(l.id);
    }
    for (topo::NodeId n = 0; n < t.num_nodes(); ++n) {
      if (t.node(n).out_links.size() < t.node(leaf).out_links.size())
        leaf = n;
    }
    for (std::size_t down : {0, 1, 3}) {
      topo::Topology view = t;
      std::size_t cut = 0;
      if (down == 3) {
        for (topo::LinkId l : t.node(leaf).out_links) {
          view.set_duplex_up(l, false);
          ++cut;
        }
      }
      ASSERT_LE(cut, down);
      while (cut < down) {
        const topo::LinkId f = rng.pick(fibers);
        if (!view.link(f).up) continue;
        view.set_duplex_up(f, false);
        ++cut;
      }
      const auto underlay = te::SrUnderlay::build(view);
      std::size_t no_path = 0;
      for (topo::NodeId s = 0; s < view.num_nodes(); ++s) {
        EXPECT_EQ(underlay.dist(s, s), 0.0);
        for (topo::NodeId d = 0; d < view.num_nodes(); ++d) {
          if (s == d) continue;
          const auto sp = te::shortest_path(view, s, d);
          if (!sp) {
            ++no_path;
            EXPECT_EQ(underlay.dist(s, d), te::SrUnderlay::kInf)
                << s << "->" << d << " with " << down << " fibers down";
            continue;
          }
          const double cost = sp->igp_cost(view);
          EXPECT_NEAR(underlay.dist(s, d), cost, te::sr_eps(cost))
              << s << "->" << d << " with " << down << " fibers down";
        }
      }
      if (down == 3) {
        EXPECT_GT(no_path, 0u);
      }
    }
  }
}

TEST(SrUnderlay, MiddlepointRankingIsDeterministicAndDeduplicated) {
  const auto topo = topo::make_geant();
  const auto underlay = te::SrUnderlay::build(topo);
  const auto a = te::rank_middlepoints(underlay, 8);
  const auto b = te::rank_middlepoints(underlay, 8);
  EXPECT_EQ(a, b);
  EXPECT_LE(a.size(), 8u);
  EXPECT_EQ(std::set<topo::NodeId>(a.begin(), a.end()).size(), a.size());
  for (topo::NodeId m : a) EXPECT_LT(m, topo.num_nodes());
  // Prefix property: asking for fewer returns the top of the same order.
  const auto top3 = te::rank_middlepoints(underlay, 3);
  ASSERT_EQ(top3.size(), 3u);
  EXPECT_TRUE(std::equal(top3.begin(), top3.end(), a.begin()));
}

TEST(SrUnderlay, MiddlepointRankingMatchesTheReferenceLoop) {
  // The branch-free scan counts v = s and v = t and takes them off again,
  // which is exact only because dist(v, v) is exactly 0 and eps > 0. The
  // full ranking (k = n) must equal the reference triple loop's: intact,
  // with 1-3 fibers cut, split into two components (unreachable pairs),
  // and on a unit-metric grid where most scores tie.
  const auto expect_same = [](const topo::Topology& view,
                              const std::string& what) {
    const auto underlay = te::SrUnderlay::build(view);
    for (topo::NodeId v = 0; v < view.num_nodes(); ++v)
      ASSERT_EQ(underlay.dist(v, v), 0.0) << what;
    EXPECT_EQ(te::rank_middlepoints(underlay, view.num_nodes()),
              te::reference_rank_middlepoints(underlay, view.num_nodes()))
        << what;
  };
  util::Rng rng(0x4A11);
  for (const auto& [name, t] :
       {std::pair{"abilene", topo::make_abilene()},
        std::pair{"geant", topo::make_geant()},
        std::pair{"b4", topo::make_b4_like()}}) {
    std::vector<topo::LinkId> fibers;
    for (const topo::Link& l : t.links()) {
      if (l.reverse != topo::kInvalidLink && l.id < l.reverse)
        fibers.push_back(l.id);
    }
    expect_same(t, std::string(name) + " intact");
    for (std::size_t down = 1; down <= 3; ++down) {
      topo::Topology view = t;
      for (std::size_t cut = 0; cut < down;) {
        const topo::LinkId f = rng.pick(fibers);
        if (!view.link(f).up) continue;
        view.set_duplex_up(f, false);
        ++cut;
      }
      expect_same(view, std::string(name) + " " + std::to_string(down) +
                            " fibers down");
    }
    // Every fiber between the lower and upper halves of the node ids.
    topo::Topology split = t;
    const std::size_t half = t.num_nodes() / 2;
    for (topo::LinkId f : fibers) {
      if ((t.link(f).src < half) != (t.link(f).dst < half))
        split.set_duplex_up(f, false);
    }
    ASSERT_EQ(te::SrUnderlay::build(split).dist(0, t.num_nodes() - 1),
              te::SrUnderlay::kInf);
    expect_same(split, std::string(name) + " split");
  }
  topo::Topology grid;
  constexpr topo::NodeId kSide = 6;
  for (topo::NodeId i = 0; i < kSide * kSide; ++i)
    grid.add_node("g" + std::to_string(i));
  for (topo::NodeId r = 0; r < kSide; ++r) {
    for (topo::NodeId c = 0; c < kSide; ++c) {
      const topo::NodeId at = r * kSide + c;
      if (c + 1 < kSide) grid.add_duplex(at, at + 1, 10.0, 1.0);
      if (r + 1 < kSide) grid.add_duplex(at, at + kSide, 10.0, 1.0);
    }
  }
  expect_same(grid, "unit grid");
}

TEST(SrCandidates, OrderedByCostWithDirectRouteFirstAmongEquals) {
  const auto topo = topo::make_abilene();
  const auto underlay = te::SrUnderlay::build(topo);
  const auto mids = te::rank_middlepoints(underlay, 8);
  for (topo::NodeId src = 0; src < topo.num_nodes(); ++src) {
    for (topo::NodeId dst = 0; dst < topo.num_nodes(); ++dst) {
      if (src == dst) continue;
      const auto cands = te::segment_route_candidates(underlay, src, dst, mids);
      ASSERT_FALSE(cands.empty());
      EXPECT_LE(cands.size(), te::SrOptions::max_candidates);
      // The direct [dst] route is always a candidate, and no cheaper
      // candidate exists (middlepoint detours only add cost).
      EXPECT_EQ(cands.front().segments, std::vector<topo::NodeId>{dst});
      for (std::size_t i = 0; i < cands.size(); ++i) {
        EXPECT_GE(cands[i].segments.size(), 1u);
        EXPECT_LE(cands[i].segments.size(), te::SrOptions::max_segments);
        EXPECT_EQ(cands[i].segments.back(), dst);
        if (i) {
          EXPECT_GE(cands[i].cost, cands[i - 1].cost - 1e-12);
        }
      }
    }
  }
}

// ---- Expansion parity: SR stacks vs strict full stacks (satellite 1) ----

// Programs the full dataplane for one converged view: prefixes and the
// per-target SR FIBs every router derives from the same underlay --
// exactly what core::Programmer::program_sr installs.
dataplane::VectorDataplanes program_all(const topo::Topology& topo,
                                        const te::SrUnderlay& underlay) {
  const auto prefixes = topo::assign_router_prefixes(topo);
  dataplane::VectorDataplanes routers(topo.num_nodes());
  for (topo::NodeId n = 0; n < topo.num_nodes(); ++n) {
    auto& hw = routers.mutable_at(n);
    for (topo::NodeId m = 0; m < topo.num_nodes(); ++m)
      hw.ingress.set_prefix(prefixes[m], m);
    for (topo::NodeId t = 0; t < topo.num_nodes(); ++t) {
      if (t == n) continue;
      std::vector<dataplane::SrNextHop> members;
      for (topo::LinkId lid : underlay.ecmp_members(topo, n, t))
        members.push_back({lid, topo.link(lid).dst});
      hw.sr.set_members(t, std::move(members));
    }
  }
  return routers;
}

dataplane::ForwardResult inject(const topo::Topology& topo,
                                const dataplane::VectorDataplanes& routers,
                                topo::NodeId src, topo::NodeId dst,
                                dataplane::LabelStack stack,
                                std::uint64_t entropy) {
  const dataplane::Forwarder fwd(topo, &routers);
  dataplane::Packet pkt;
  pkt.dst_ip = topo::host_in(topo::assign_router_prefixes(topo)[dst]);
  pkt.entropy = entropy;
  pkt.stack = std::move(stack);
  pkt.ttl = static_cast<int>(dataplane::forward_hop_bound(topo)) + 1;
  return fwd.forward(pkt, src);
}

void expect_expansion_parity(const topo::Topology& topo, const char* name) {
  const auto underlay = te::SrUnderlay::build(topo);
  const auto routers = program_all(topo, underlay);
  const auto mids = te::rank_middlepoints(underlay, 8);
  util::Rng rng(0x5E63'0A17 ^ topo.num_nodes());

  for (int trial = 0; trial < 64; ++trial) {
    const auto src =
        static_cast<topo::NodeId>(rng.uniform_int(0, topo.num_nodes() - 1));
    const auto dst =
        static_cast<topo::NodeId>(rng.uniform_int(0, topo.num_nodes() - 1));
    if (src == dst) continue;
    const auto cands = te::segment_route_candidates(underlay, src, dst, mids);
    ASSERT_FALSE(cands.empty()) << name;
    const auto& route = cands[static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(cands.size()) - 1))];
    const auto expansions =
        te::expand_segment_route(topo, underlay, src, route.segments);
    // A middlepoint detour whose every ECMP combination revisits a node
    // expands to nothing; the solver never installs such a candidate, so
    // the dataplane never forwards it. The direct route always expands
    // (shortest-path DAG walks are loop-free by construction).
    if (route.segments.size() == 1) {
      ASSERT_FALSE(expansions.empty()) << name;
    }
    if (expansions.empty()) continue;
    const std::uint64_t entropy = rng.engine()();

    // The segment stack itself must deliver over the SR FIBs...
    const auto sr = inject(topo, routers, src, dst,
                           dataplane::encode_segment_route(route.segments),
                           entropy);
    ASSERT_EQ(sr.outcome, ForwardOutcome::kDelivered)
        << name << " " << src << "->" << dst;
    EXPECT_EQ(sr.final_node, dst);
    if (route.segments.size() == 1) {
      // A single-segment walk stays inside one shortest-path DAG, so it
      // can never revisit a node. (Multi-segment walks may legally cross
      // themselves between segments; termination is covered by the hop
      // bound below.)
      std::set<topo::NodeId> seen(sr.trace.begin(), sr.trace.end());
      EXPECT_EQ(seen.size(), sr.trace.size()) << name << ": SR walk looped";
    }

    double frac = 0.0;
    for (const auto& wp : expansions) {
      // Every concrete expansion is a valid loop-free up-link path from
      // src to dst...
      ASSERT_TRUE(wp.path.is_valid(topo)) << name;
      EXPECT_EQ(wp.path.src(topo), src);
      EXPECT_EQ(wp.path.dst(topo), dst);
      frac += wp.weight;
      // ...and its strict full stack delivers to the same node.
      const auto strict =
          inject(topo, routers, src, dst,
                 dataplane::encode_strict_route(wp.path, false), entropy);
      ASSERT_EQ(strict.outcome, ForwardOutcome::kDelivered) << name;
      EXPECT_EQ(strict.final_node, sr.final_node) << name;
    }
    EXPECT_NEAR(frac, 1.0, 1e-9) << name;

    // The SR walk's own trace is one of the ECMP DAG's paths: every hop
    // taken was a member of the current segment's DAG, so it must match
    // some expansion when the expansion enumeration wasn't truncated.
    EXPECT_LE(sr.hops, dataplane::forward_hop_bound(topo));
  }
}

TEST(SrExpansion, ParityWithStrictStacksOnAbilene) {
  expect_expansion_parity(topo::make_abilene(), "abilene");
}

TEST(SrExpansion, ParityWithStrictStacksOnGeant) {
  expect_expansion_parity(topo::make_geant(), "geant");
}

TEST(SrExpansion, ParityWithStrictStacksOnB4) {
  expect_expansion_parity(topo::make_b4_like(), "b4");
}

TEST(SrExpansion, StaleFibsAfterCutNeverLoopAndStrictParityOnDrop) {
  // A link dies but the SR FIBs still carry the old view: the dataplane
  // re-picks among surviving ECMP members (SR's local repair) or drops
  // on a dead end -- it must never loop, and when every path from the
  // old DAG is dead the strict stack drops too.
  auto topo = topo::make_abilene();
  const auto underlay = te::SrUnderlay::build(topo);
  const auto routers = program_all(topo, underlay);
  util::Rng rng(0xDEAD'FEED);
  for (topo::LinkId cut = 0; cut < topo.num_links(); cut += 2) {
    topo.set_duplex_up(cut, false);
    for (int trial = 0; trial < 16; ++trial) {
      const auto src =
          static_cast<topo::NodeId>(rng.uniform_int(0, topo.num_nodes() - 1));
      const auto dst =
          static_cast<topo::NodeId>(rng.uniform_int(0, topo.num_nodes() - 1));
      if (src == dst) continue;
      const auto r =
          inject(topo, routers, src, dst,
                 dataplane::encode_segment_route({dst}), rng.engine()());
      EXPECT_NE(r.outcome, ForwardOutcome::kDroppedLoop);
      EXPECT_NE(r.outcome, ForwardOutcome::kDroppedTtlExpired);
      EXPECT_TRUE(r.outcome == ForwardOutcome::kDelivered ||
                  r.outcome == ForwardOutcome::kDroppedLinkDownNoBypass)
          << forward_outcome_name(r.outcome);
      if (r.outcome == ForwardOutcome::kDelivered) {
        EXPECT_EQ(r.final_node, dst);
      }
    }
    topo.set_duplex_up(cut, true);
  }
}

// ---- SrSolver: conservation and the consensus-free property ----

TEST(SrSolver, PlacesSegmentsWithinCapacityAndConservation) {
  const auto topo = topo::make_abilene();
  traffic::GravityParams gp;
  gp.target_max_utilization = 0.5;
  const auto tm = traffic::generate_gravity(topo, gp).aggregated();
  const te::SrSolver solver;
  const te::Solution sol = solver.solve(topo, tm);
  ASSERT_EQ(sol.allocations.size(), tm.size());

  std::vector<double> load(topo.num_links(), 0.0);
  for (std::size_t i = 0; i < sol.allocations.size(); ++i) {
    const auto& a = sol.allocations[i];
    EXPECT_EQ(a.demand.src, tm.demands()[i].src);
    EXPECT_LE(a.allocated_gbps, a.demand.rate_gbps + 1e-9);
    double w = 0.0;
    for (const auto& wp : a.paths) {
      ASSERT_FALSE(wp.segments.empty());
      EXPECT_LE(wp.segments.size(), 3u);
      EXPECT_EQ(wp.segments.back(), a.demand.dst);
      ASSERT_TRUE(wp.path.is_valid(topo));
      w += wp.weight;
      for (topo::LinkId l : wp.path.links)
        load[l] += a.allocated_gbps * wp.weight;
    }
    if (!a.paths.empty()) {
      EXPECT_NEAR(w, 1.0, 1e-6);
    }
  }
  for (topo::LinkId l = 0; l < topo.num_links(); ++l)
    EXPECT_LE(load[l], topo.link(l).capacity_gbps + 1e-6) << "link " << l;
  // The gravity matrix leaves headroom; SR must serve nearly all of it.
  double offered = 0.0;
  for (const auto& d : tm.demands()) offered += d.rate_gbps;
  EXPECT_GT(sol.total_allocated_gbps(), 0.9 * offered);
}

TEST(SrSolver, DeterministicAcrossRepeatSolves) {
  const auto topo = topo::make_geant();
  traffic::GravityParams gp;
  gp.pair_fraction = 0.4;
  const auto tm = traffic::generate_gravity(topo, gp).aggregated();
  const te::SrSolver solver;
  const auto a = solver.solve(topo, tm);
  const auto b = solver.solve(topo, tm);
  ASSERT_EQ(a.allocations.size(), b.allocations.size());
  for (std::size_t i = 0; i < a.allocations.size(); ++i) {
    EXPECT_EQ(a.allocations[i].allocated_gbps, b.allocations[i].allocated_gbps);
    EXPECT_EQ(a.allocations[i].paths, b.allocations[i].paths);
  }
}

TEST(SrSolver, ZeroMetricLinkIsRejectedBeforeItCanCrashTheSolve) {
  // Repro: a-b at metric 0, b-c at metric 1, one demand a->c. Each of a
  // and b lies on the other's shortest path to c, so the ECMP DAG had a
  // cycle and the per-segment DFS recursed until the stack overflowed.
  topo::Topology t;
  const topo::NodeId a = t.add_node("a");
  const topo::NodeId b = t.add_node("b");
  const topo::NodeId c = t.add_node("c");
  EXPECT_THROW(t.add_duplex(a, b, 10.0, 0.0), std::invalid_argument);
  EXPECT_EQ(t.num_links(), 0u);
  t.add_duplex(a, b, 10.0, 1.0);
  t.add_duplex(b, c, 10.0, 1.0);
  traffic::TrafficMatrix tm;
  tm.add({a, c, PriorityClass::kHigh, 1.0});
  const te::Solution sol = te::SrSolver().solve(t, tm);
  ASSERT_EQ(sol.allocations.size(), 1u);
  EXPECT_NEAR(sol.allocations[0].allocated_gbps, 1.0, 1e-2);  // satisfied
}

TEST(SrSolver, EmitsSrCountersAndInternsLegsAndPairs) {
  const auto topo = topo::make_b4_like();
  traffic::GravityParams gp;
  gp.pair_fraction = 0.15;
  const auto tm = traffic::generate_gravity(topo, gp).aggregated();
  const auto before = obs::Registry::global().snapshot();
  te::SrSolver().solve(topo, tm);
  const auto delta = obs::Registry::global().snapshot().diff(before);
  const auto counter = [&](const char* name) {
    const auto it = delta.counters.find(name);
    return it == delta.counters.end() ? std::uint64_t{0} : it->second;
  };
  EXPECT_EQ(counter("te.sr.solves"), 1u);
  EXPECT_GT(counter("te.sr.rounds"), 0u);

  // What the solve may touch: one candidate list per distinct (src, dst)
  // pair, and the distinct (at, target) legs of those lists.
  const auto underlay = te::SrUnderlay::build(topo);
  const auto mids = te::rank_middlepoints(
      underlay, std::max(te::SrOptions::num_middlepoints,
                         te::SrOptions::pair_middlepoints));
  std::set<std::pair<topo::NodeId, topo::NodeId>> pairs, legs;
  std::uint64_t listed = 0;
  for (const auto& d : tm.demands()) {
    if (d.rate_gbps <= te::detail::kEpsilonGbps) continue;
    if (!pairs.insert({d.src, d.dst}).second) continue;
    const auto cands =
        te::segment_route_candidates(underlay, d.src, d.dst, mids);
    listed += cands.size();
    for (const auto& route : cands) {
      topo::NodeId at = d.src;
      for (topo::NodeId target : route.segments) {
        legs.insert({at, target});
        at = target;
      }
    }
  }
  ASSERT_LT(pairs.size(), tm.size());  // pairs recur across classes
  // Candidate lists are built once per pair, not once per class...
  EXPECT_EQ(counter("te.sr.candidates_considered"), listed);
  // ...each leg is enumerated at most once...
  EXPECT_GT(counter("te.sr.legs_enumerated"), 0u);
  EXPECT_LE(counter("te.sr.legs_enumerated"), legs.size());
  // ...and on an uncongested matrix most candidates are never expanded.
  EXPECT_GE(counter("te.sr.candidates_expanded"), pairs.size());
  EXPECT_LT(counter("te.sr.candidates_expanded"),
            counter("te.sr.candidates_considered"));
  EXPECT_EQ(counter("te.sr.frozen_demands"), 0u);

  // Overloaded, the waterfill moves past some pairs' first candidate and
  // some demands freeze unsatisfied.
  gp.target_max_utilization = 1.4;
  const auto hot = traffic::generate_gravity(topo, gp).aggregated();
  std::set<std::pair<topo::NodeId, topo::NodeId>> hot_pairs;
  for (const auto& d : hot.demands()) hot_pairs.insert({d.src, d.dst});
  const auto before_hot = obs::Registry::global().snapshot();
  te::SrSolver().solve(topo, hot);
  const auto hot_delta = obs::Registry::global().snapshot().diff(before_hot);
  EXPECT_GT(hot_delta.counters.at("te.sr.candidates_expanded"),
            hot_pairs.size());
  EXPECT_GT(hot_delta.counters.at("te.sr.frozen_demands"), 0u);
}

// ---- Golden placements: SrSolver output pinned bit for bit ----

// The corpus (tests/solver_golden.hpp) through SrSolver. Its overloaded
// and half-capacity solves exercise lazy expansion: 106 of those 108
// move the waterfill past some pair's first candidate, against 2 of the
// other 36 solves.
void expect_golden_digests(const topo::Topology& base, double pair_fraction,
                           const golden::GoldenTable& golden,
                           const char* name) {
  const te::SrSolver solver;
  golden::expect_golden_digests(
      base, pair_fraction, golden, name,
      [&](const topo::Topology& view, const traffic::TrafficMatrix& tm,
          const std::vector<double>* residual) {
        return solver.solve(view, tm, residual);
      });
}

TEST(SrGolden, AbileneDigestsArePinned) {
  constexpr golden::GoldenTable kGolden = {{
      {0xbbb07ee23b5334a2, 0xe22f6eeb15ad3ba8, 0xefe276146fea194e},
      {0xd5eaefa777f3e939, 0x0f914cb8b00c2f39, 0x580aa219e48b3e75},
      {0xae99c9892b5442a3, 0x98fd69da96398c5a, 0xda40507456fd3540},
      {0xdf896d8ab6e09ac6, 0xa87b5ae24e463f32, 0x6af7d661f197d118},
      {0x43cb537552c37b04, 0x791faff2220c5061, 0x20e33b6b98b0769d},
      {0x05bf1605c51058d6, 0x1b13f0aac594c476, 0xb8a7c1e41896d34a},
      {0x07ac3bcdd1b88dd4, 0x49b1da0587c8dc42, 0x48f7823832419d5f},
      {0xfc5981be192cf5bf, 0xd5fe6da0557960c6, 0x8d5a0ac26d744b1b},
  }};
  expect_golden_digests(topo::make_abilene(), 1.0, kGolden, "abilene");
}

TEST(SrGolden, GeantDigestsArePinned) {
  constexpr golden::GoldenTable kGolden = {{
      {0x1c2027ad5bdc689c, 0x147732b3b0f7a0dd, 0x45bb241a57cdbe6a},
      {0xc7a50c06dc63cb83, 0xbd15e85dc9dadb4a, 0xb97fb3f6d83b025d},
      {0x2a8b7eed7f2b126d, 0xb9ea82b4f7ab1802, 0xfd4abe349aa67372},
      {0x6caf91f0deef4167, 0xbfbc4e139e4770d8, 0xa7b5c5c002141355},
      {0x7718ed2471f1d459, 0x9e845499088c4c29, 0x5845adb25e1262e3},
      {0x232af133e15301a7, 0xc445d478510fc9b7, 0xf870efa4e6d2fcd0},
      {0xa5fc8c7ef1f2592a, 0x1aed98d9e73e695c, 0x934d33d230ac01fb},
      {0x7fc707524e233dbb, 0x166cf9932cc86de8, 0xa1c60e9d8fcd6c49},
  }};
  expect_golden_digests(topo::make_geant(), 1.0, kGolden, "geant");
}

TEST(SrGolden, B4DigestsArePinned) {
  constexpr golden::GoldenTable kGolden = {{
      {0x25d96357757d66b1, 0xc0139d24c45274da, 0x586999f1c51b4214},
      {0xf8ea4b38a80ba76f, 0x2551ded2f53816e3, 0xbd3150e3f2f6a565},
      {0xd11ef70aca60e2f3, 0x1ad2ce645a0163df, 0xad055e8194481f21},
      {0xa5c290b529820c14, 0xb0e4259ad93bdd90, 0x608cfd8b77539d84},
      {0x9f1c72c94df9604c, 0xb62b891eff90bcdf, 0xd45219978952747b},
      {0x7204d394f67ad4bc, 0xbd122dda33006597, 0x07c80aa0480947fa},
      {0x9537f299de1b9818, 0x84fbfdd4f1c46621, 0xb1f7989df5a34184},
      {0x40be635e7410990c, 0xd3ad1d0fde9ba684, 0xae952506b6bbbb7e},
  }};
  expect_golden_digests(topo::make_b4_like(), 0.15, kGolden, "b4");
}

// ---- The SR-vs-strict differential oracle (the tentpole) ----

TEST(SrOracle, SameViewSameDeliveredSetAndBoundedThroughputGap) {
  // Two fleets on the identical converged view and demand matrix: one
  // all-strict-TE, one all-SR. The delivered set (demands whose packets
  // actually arrive through the programmed dataplane) must be identical,
  // and SR's admitted throughput must stay within 10% of strict TE's.
  const auto topo = topo::make_abilene();
  traffic::GravityParams gp;
  gp.target_max_utilization = 0.5;
  const auto tm = traffic::generate_gravity(topo, gp).aggregated();

  sim::DsdnEmulation strict(topo, tm);
  sim::EmulationConfig sr_cfg;
  sr_cfg.algorithms.assign(topo.num_nodes(),
                           core::PathingAlgorithm::kSegmentRouting);
  sim::DsdnEmulation sr(topo, tm, sr_cfg);
  strict.bootstrap();
  sr.bootstrap();
  ASSERT_TRUE(strict.views_converged());
  ASSERT_TRUE(sr.views_converged());

  const auto delivered_set = [&](const sim::DsdnEmulation& emu) {
    std::set<std::size_t> delivered;
    const auto& rows = emu.demands().demands();
    for (std::size_t i = 0; i < rows.size(); ++i) {
      const auto r = emu.send_packet(rows[i].src,
                                     emu.address_of(rows[i].dst),
                                     rows[i].priority, 0x9E37 + i);
      if (r.outcome == ForwardOutcome::kDelivered) delivered.insert(i);
    }
    return delivered;
  };

  const auto check_era = [&](const char* era) {
    EXPECT_EQ(delivered_set(strict), delivered_set(sr)) << era;
    const double strict_gbps =
        te::Solver().solve(strict.network(), tm).total_allocated_gbps();
    const double sr_gbps =
        te::SrSolver().solve(sr.network(), tm).total_allocated_gbps();
    EXPECT_GE(sr_gbps, 0.9 * strict_gbps) << era;
    // And both fleets are invariant-clean (FIB walks, conservation,
    // blackholes, cold-solve parity) on the same view.
    EXPECT_TRUE(sim::check_invariants(strict).ok()) << era;
    const sim::InvariantReport sr_rep = sim::check_invariants(sr);
    EXPECT_TRUE(sr_rep.ok())
        << era << ": " << (sr_rep.ok() ? "" : sr_rep.violations.front());
  };

  check_era("converged");
  strict.fail_fiber(0);
  sr.fail_fiber(0);
  check_era("after cut");
  strict.repair_fiber(0);
  sr.repair_fiber(0);
  check_era("after repair");
}

// ---- Mixed three-algorithm fleets (satellite 2) ----

TEST(SrMixedFleet, ThreeAlgorithmConsensusOverSixteenSeedsOfChurn) {
  // The rollout differential: every router, running its own algorithm on
  // its own converged view, predicts the identical global placement --
  // across 16 seeded fleets and cut/repair eras. check_invariants runs
  // capacity conservation and the DiffChecker-based cold-solve parity
  // (zero violations allowed), plus SR FIB walks.
  const auto topo = topo::make_abilene();
  traffic::GravityParams gp;
  gp.pair_fraction = 0.5;
  gp.target_max_utilization = 0.5;
  const auto tm = traffic::generate_gravity(topo, gp).aggregated();

  for (std::uint64_t seed = 1; seed <= 16; ++seed) {
    util::Rng rng(util::splitmix64(seed));
    sim::EmulationConfig cfg;
    cfg.algorithms.resize(topo.num_nodes());
    for (topo::NodeId n = 0; n < topo.num_nodes(); ++n) {
      cfg.algorithms[n] =
          static_cast<core::PathingAlgorithm>(rng.uniform_int(0, 2));
    }
    // Force all three algorithms to appear somewhere.
    cfg.algorithms[0] = core::PathingAlgorithm::kMaxMinFairTe;
    cfg.algorithms[1] = core::PathingAlgorithm::kShortestPath;
    cfg.algorithms[2] = core::PathingAlgorithm::kSegmentRouting;

    sim::DsdnEmulation emu(topo, tm, cfg);
    emu.bootstrap();
    const topo::LinkId fiber =
        static_cast<topo::LinkId>(rng.uniform_int(0, topo.num_links() - 1));

    const auto check_era = [&](const char* era) {
      ASSERT_TRUE(emu.views_converged()) << "seed " << seed << " " << era;
      const sim::InvariantReport rep = sim::check_invariants(emu);
      ASSERT_TRUE(rep.ok()) << "seed " << seed << " " << era << ": "
                            << rep.violations.front();
    };
    check_era("bootstrap");
    emu.fail_fiber(fiber);
    check_era("cut");
    emu.repair_fiber(fiber);
    check_era("repair");

    // Explicit consensus probe on the converged view: re-solving with
    // each router's own view yields one identical global placement.
    if (seed <= 4) {
      const auto algo_of = [&](topo::NodeId n) { return cfg.algorithms[n]; };
      const core::MixedAlgorithmSolver solver(algo_of);
      const te::Solution ref =
          solver.solve(emu.controller(0).state().view(), tm, nullptr);
      for (topo::NodeId n = 1; n < topo.num_nodes(); ++n) {
        const te::Solution mine =
            solver.solve(emu.controller(n).state().view(), tm, nullptr);
        ASSERT_EQ(mine.allocations.size(), ref.allocations.size());
        for (std::size_t i = 0; i < ref.allocations.size(); ++i) {
          ASSERT_EQ(mine.allocations[i].allocated_gbps,
                    ref.allocations[i].allocated_gbps)
              << "seed " << seed << " router " << n << " demand " << i;
          ASSERT_EQ(mine.allocations[i].paths, ref.allocations[i].paths)
              << "seed " << seed << " router " << n << " demand " << i;
        }
      }
    }
  }
}

TEST(SrMixedFleet, SrRoutersProgramSegmentFibsAndAdvertiseTlv) {
  const auto topo = topo::make_abilene();
  traffic::GravityParams gp;
  gp.pair_fraction = 0.3;
  const auto tm = traffic::generate_gravity(topo, gp).aggregated();
  sim::EmulationConfig cfg;
  cfg.algorithms.assign(topo.num_nodes(), core::PathingAlgorithm::kMaxMinFairTe);
  cfg.algorithms[3] = core::PathingAlgorithm::kSegmentRouting;
  sim::DsdnEmulation emu(topo, tm, cfg);
  emu.bootstrap();
  // Everyone programs the segment FIB (any router can be mid-path for an
  // SR headend), and every router's view agrees on who runs what.
  for (topo::NodeId n = 0; n < topo.num_nodes(); ++n) {
    EXPECT_EQ(emu.at(n).sr.num_targets(), topo.num_nodes() - 1);
    const auto map =
        core::algorithm_map_from_state(emu.controller(n).state());
    ASSERT_EQ(map.size(), topo.num_nodes());
    for (topo::NodeId m = 0; m < topo.num_nodes(); ++m)
      EXPECT_EQ(map[m], cfg.algorithms[m]) << "router " << n << " about " << m;
  }
  // SR stacks really are installed at the SR headend: at least one encap
  // route is a pure node-segment stack of depth <= 3.
  bool saw_sr_stack = false;
  for (const auto& [key, entry] : emu.at(3).ingress.encap_table()) {
    for (const auto& route : entry.routes) {
      if (!route.stack.empty() &&
          dataplane::is_node_segment_label(route.stack.labels()[0])) {
        saw_sr_stack = true;
        EXPECT_LE(route.stack.depth(), 3u);
        for (dataplane::Label l : route.stack.labels())
          EXPECT_TRUE(dataplane::is_node_segment_label(l));
      }
    }
  }
  EXPECT_TRUE(saw_sr_stack);
}

TEST(SrMixedFleet, AlgorithmsVectorSizeMismatchThrows) {
  const auto topo = topo::make_fig5();
  traffic::GravityParams gp;
  gp.pair_fraction = 1.0;
  sim::EmulationConfig cfg;
  cfg.algorithms.assign(2, core::PathingAlgorithm::kSegmentRouting);
  EXPECT_THROW(
      sim::DsdnEmulation(topo, traffic::generate_gravity(topo, gp), cfg),
      std::invalid_argument);
}

}  // namespace
}  // namespace dsdn
