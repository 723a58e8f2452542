#include <gtest/gtest.h>

#include <algorithm>
#include <map>

#include "dataplane/fib.hpp"
#include "dataplane/forwarder.hpp"
#include "dataplane/label.hpp"
#include "obs/metrics.hpp"
#include "solver_golden.hpp"
#include "te/dijkstra.hpp"
#include "topo/prefix.hpp"
#include "topo/synthetic.hpp"

namespace dsdn::dataplane {
namespace {

using metrics::PriorityClass;

TEST(Label, LinkLabelRoundTripAvoidsReservedRange) {
  EXPECT_GE(link_label(0), kReservedLabels);
  EXPECT_EQ(label_link(link_label(12345)), 12345u);
  EXPECT_THROW(label_link(3), std::invalid_argument);
}

TEST(Label, StackIsLifoWithTopFirst) {
  LabelStack s;
  s.push(100);
  s.push(200);  // new top
  EXPECT_EQ(s.depth(), 2u);
  EXPECT_EQ(s.top(), 200u);
  EXPECT_EQ(s.pop(), 200u);
  EXPECT_EQ(s.pop(), 100u);
  EXPECT_TRUE(s.empty());
  EXPECT_THROW(s.pop(), std::logic_error);
  EXPECT_THROW(s.top(), std::logic_error);
}

TEST(Label, PushAllOnTopPreservesBypassOrder) {
  LabelStack inner({5, 6});
  LabelStack bypass({1, 2});
  inner.push_all_on_top(bypass);
  EXPECT_EQ(inner.labels(), (std::vector<Label>{1, 2, 5, 6}));
}

TEST(Label, EncodeDecodeStrictRoute) {
  const auto t = topo::make_line(4);
  te::Path p;
  p.links = {t.find_link(0, 1), t.find_link(1, 2), t.find_link(2, 3)};
  const LabelStack s = encode_strict_route(p);
  EXPECT_EQ(s.depth(), 3u);
  EXPECT_EQ(decode_strict_route(s), p);
}

TEST(Label, EncodeEnforcesTwelveLabelLimit) {
  const auto t = topo::make_line(15);
  te::Path p;
  for (std::size_t i = 0; i + 1 < 15; ++i)
    p.links.push_back(t.find_link(static_cast<topo::NodeId>(i),
                                  static_cast<topo::NodeId>(i + 1)));
  ASSERT_GT(p.hops(), kMaxLabelDepth);
  EXPECT_THROW(encode_strict_route(p), std::length_error);
  EXPECT_EQ(encode_strict_route(p, /*enforce_depth=*/false).depth(),
            p.hops());
}

TEST(IngressFib, TwoStageLookupPicksRouteByPrefix) {
  IngressFib fib;
  topo::Prefix p{topo::parse_ipv4("10.0.1.0"), 24};
  fib.set_prefix(p, /*egress=*/7);
  EncapEntry entry;
  entry.routes.push_back({LabelStack({21}), 1.0});
  fib.set_routes(7, PriorityClass::kHigh, entry);

  const auto hit =
      fib.lookup(topo::parse_ipv4("10.0.1.9"), PriorityClass::kHigh, 1);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->labels(), (std::vector<Label>{21}));
  // Unknown destination and unprogrammed class miss.
  EXPECT_FALSE(
      fib.lookup(topo::parse_ipv4("10.0.2.9"), PriorityClass::kHigh, 1)
          .has_value());
  EXPECT_FALSE(
      fib.lookup(topo::parse_ipv4("10.0.1.9"), PriorityClass::kLow, 1)
          .has_value());
}

TEST(IngressFib, WeightedChoiceIsDeterministicInEntropy) {
  IngressFib fib;
  topo::Prefix p{topo::parse_ipv4("10.0.1.0"), 24};
  fib.set_prefix(p, 7);
  EncapEntry entry;
  entry.routes.push_back({LabelStack({1}), 0.5});
  entry.routes.push_back({LabelStack({2}), 0.5});
  fib.set_routes(7, PriorityClass::kHigh, entry);
  const auto a =
      fib.lookup(topo::parse_ipv4("10.0.1.9"), PriorityClass::kHigh, 99);
  const auto b =
      fib.lookup(topo::parse_ipv4("10.0.1.9"), PriorityClass::kHigh, 99);
  EXPECT_EQ(a->labels(), b->labels());
}

TEST(IngressFib, HashingSpreadsFlowsAcrossRoutes) {
  IngressFib fib;
  topo::Prefix p{topo::parse_ipv4("10.0.1.0"), 24};
  fib.set_prefix(p, 7);
  EncapEntry entry;
  entry.routes.push_back({LabelStack({1}), 0.5});
  entry.routes.push_back({LabelStack({2}), 0.5});
  fib.set_routes(7, PriorityClass::kHigh, entry);
  int first = 0;
  const int n = 2000;
  for (int e = 0; e < n; ++e) {
    const auto s =
        fib.lookup(topo::parse_ipv4("10.0.1.9"), PriorityClass::kHigh,
                   static_cast<std::uint64_t>(e));
    if (s->labels()[0] == 1) ++first;
  }
  EXPECT_NEAR(static_cast<double>(first) / n, 0.5, 0.07);
}

TEST(IngressFib, EncapTableStaysSortedAndIndexedInAnyInstallOrder) {
  // Installs out of key order, replaces, removes and clears, checking
  // after every step that the table iterates in (egress, class) order
  // and that every key's index still finds its own entry.
  IngressFib fib;
  std::map<std::pair<topo::NodeId, int>, Label> expect;
  const auto install = [&](topo::NodeId egress, int cls, Label label) {
    EncapEntry entry;
    if (label != 0) entry.routes.push_back({LabelStack({label}), 1.0});
    fib.set_routes(egress, static_cast<PriorityClass>(cls), entry);
    if (label != 0) {
      expect[{egress, cls}] = label;
    } else {
      expect.erase({egress, cls});
    }
    ASSERT_EQ(fib.num_encap_entries(), expect.size());
    auto it = expect.begin();
    for (const auto& [key, e] : fib.encap_table()) {
      ASSERT_EQ(key, it->first);
      ASSERT_EQ(e.routes.front().stack.top(), it->second);
      ++it;
    }
    for (topo::NodeId n = 0; n < 12; ++n) {
      for (int c = 0; c < metrics::kNumPriorityClasses; ++c) {
        const EncapEntry* e = fib.routes_for(n, static_cast<PriorityClass>(c));
        const auto want = expect.find({n, c});
        if (want == expect.end()) {
          ASSERT_EQ(e, nullptr) << n << "/" << c;
        } else {
          ASSERT_NE(e, nullptr) << n << "/" << c;
          ASSERT_EQ(e->routes.front().stack.top(), want->second);
        }
      }
    }
  };
  install(9, 2, 100);
  install(3, 0, 101);
  install(9, 0, 102);
  install(11, 1, 103);
  install(0, 2, 104);
  install(3, 0, 105);  // replace
  install(5, 1, 106);
  install(3, 0, 0);    // remove from the middle
  install(0, 2, 0);    // remove the first
  install(4, 1, 107);
  fib.clear_routes();
  expect.clear();
  EXPECT_EQ(fib.num_encap_entries(), 0u);
  EXPECT_EQ(fib.routes_for(9, PriorityClass::kLow), nullptr);
  install(7, 1, 108);
  install(2, 2, 109);
}

TEST(IngressFib, RejectsBadWeights) {
  IngressFib fib;
  EncapEntry entry;
  entry.routes.push_back({LabelStack({1}), -1.0});
  EXPECT_THROW(fib.set_routes(1, PriorityClass::kHigh, entry),
               std::invalid_argument);
  EncapEntry zeros;
  zeros.routes.push_back({LabelStack({1}), 0.0});
  EXPECT_THROW(fib.set_routes(1, PriorityClass::kHigh, zeros),
               std::invalid_argument);
}

TEST(TransitLink, DecodesExactlyTheLocalOutLinks) {
  const auto t = topo::make_ring(5);
  for (topo::LinkId l : t.node(2).out_links) {
    const topo::Link* link = transit_link(t, 2, link_label(l));
    ASSERT_NE(link, nullptr);
    EXPECT_EQ(link->id, l);
  }
  for (const topo::Link& l : t.links()) {
    if (l.src == 2) continue;
    EXPECT_EQ(transit_link(t, 2, link_label(l.id)), nullptr);
  }
  EXPECT_EQ(transit_link(t, 2, link_label(9999)), nullptr);
  for (Label reserved = 0; reserved < kReservedLabels; ++reserved)
    EXPECT_EQ(transit_link(t, 2, reserved), nullptr);
}

// ---- End-to-end forwarding (the Fig 5 walk) ----

struct Fig5Fixture {
  topo::Topology topo = topo::make_fig5();
  std::vector<topo::Prefix> prefixes = topo::assign_router_prefixes(topo);
  VectorDataplanes routers{3};

  Fig5Fixture() {
    for (topo::NodeId n = 0; n < 3; ++n) {
      auto& rd = routers.mutable_at(n);
      for (topo::NodeId m = 0; m < 3; ++m) rd.ingress.set_prefix(prefixes[m], m);
    }
  }

  void install_route(topo::NodeId headend, topo::NodeId egress,
                     const te::Path& path, double weight = 1.0) {
    EncapEntry entry;
    entry.routes.push_back({encode_strict_route(path), weight});
    routers.mutable_at(headend).ingress.set_routes(
        egress, PriorityClass::kHigh, entry);
  }
};

TEST(Forwarder, DeliversAlongStrictRoute) {
  Fig5Fixture f;
  // R0 -> R2 -> R1 (the paper's A,D,G style indirect route).
  te::Path via;
  via.links = {f.topo.find_link(0, 2), f.topo.find_link(2, 1)};
  f.install_route(0, 1, via);

  const Forwarder fwd(f.topo, &f.routers);
  Packet pkt;
  pkt.dst_ip = topo::host_in(f.prefixes[1]);
  const auto r = fwd.forward(pkt, 0);
  EXPECT_EQ(r.outcome, ForwardOutcome::kDelivered);
  EXPECT_EQ(r.final_node, 1u);
  EXPECT_EQ(r.trace, (std::vector<topo::NodeId>{0, 2, 1}));
  EXPECT_EQ(r.hops, 2u);
}

TEST(Forwarder, LocalDeliveryWithoutWanHop) {
  Fig5Fixture f;
  const Forwarder fwd(f.topo, &f.routers);
  Packet pkt;
  pkt.dst_ip = topo::host_in(f.prefixes[0]);
  const auto r = fwd.forward(pkt, 0);
  EXPECT_EQ(r.outcome, ForwardOutcome::kDelivered);
  EXPECT_EQ(r.hops, 0u);
}

TEST(Forwarder, UnknownDestinationDropped) {
  Fig5Fixture f;
  const Forwarder fwd(f.topo, &f.routers);
  Packet pkt;
  pkt.dst_ip = topo::parse_ipv4("192.168.1.1");
  EXPECT_EQ(fwd.forward(pkt, 0).outcome,
            ForwardOutcome::kDroppedNoIngressRoute);
}

TEST(Forwarder, DownLinkWithoutBypassDrops) {
  Fig5Fixture f;
  te::Path direct;
  direct.links = {f.topo.find_link(0, 1)};
  f.install_route(0, 1, direct);
  f.topo.set_duplex_up(direct.links[0], false);

  const Forwarder fwd(f.topo, &f.routers);
  Packet pkt;
  pkt.dst_ip = topo::host_in(f.prefixes[1]);
  EXPECT_EQ(fwd.forward(pkt, 0).outcome,
            ForwardOutcome::kDroppedLinkDownNoBypass);
}

TEST(Forwarder, FrrBypassRepairsAroundFailure) {
  Fig5Fixture f;
  te::Path direct;
  direct.links = {f.topo.find_link(0, 1)};
  f.install_route(0, 1, direct);

  // Precompute bypasses on the healthy network, install R0's into its
  // BypassFib, then cut the link.
  const auto bypasses =
      BypassPlan::compute(f.topo, BypassStrategy::kShortestPath);
  const auto& candidates = bypasses.candidates(direct.links[0]);
  ASSERT_EQ(candidates.size(), 1u);
  f.routers.mutable_at(0).bypass.set_bypasses(
      direct.links[0],
      {{encode_strict_route(candidates[0], /*enforce_depth=*/false), 1.0}});
  f.topo.set_duplex_up(direct.links[0], false);

  const Forwarder fwd(f.topo, &f.routers);
  Packet pkt;
  pkt.dst_ip = topo::host_in(f.prefixes[1]);
  const auto r = fwd.forward(pkt, 0);
  EXPECT_EQ(r.outcome, ForwardOutcome::kDelivered);
  EXPECT_EQ(r.final_node, 1u);
  EXPECT_EQ(r.frr_activations, 1u);
  // The repair detours via R2.
  EXPECT_EQ(r.trace, (std::vector<topo::NodeId>{0, 2, 1}));
}

TEST(Forwarder, StaleRouteToWrongEgressDetected) {
  Fig5Fixture f;
  // Route for R1 traffic that actually terminates at R2.
  te::Path wrong;
  wrong.links = {f.topo.find_link(0, 2)};
  f.install_route(0, 1, wrong);
  const Forwarder fwd(f.topo, &f.routers);
  Packet pkt;
  pkt.dst_ip = topo::host_in(f.prefixes[1]);
  EXPECT_EQ(fwd.forward(pkt, 0).outcome, ForwardOutcome::kDroppedNotLocal);
}

TEST(Forwarder, UnknownLabelDropped) {
  Fig5Fixture f;
  EncapEntry entry;
  entry.routes.push_back({LabelStack({link_label(9999)}), 1.0});
  f.routers.mutable_at(0).ingress.set_routes(1, PriorityClass::kHigh, entry);
  const Forwarder fwd(f.topo, &f.routers);
  Packet pkt;
  pkt.dst_ip = topo::host_in(f.prefixes[1]);
  EXPECT_EQ(fwd.forward(pkt, 0).outcome,
            ForwardOutcome::kDroppedUnknownLabel);
}

TEST(Forwarder, TtlGuardsAgainstForwardingLoops) {
  Fig5Fixture f;
  // A malicious/corrupt stack that ping-pongs R0 <-> R2 cannot loop
  // forever thanks to TTL. Build it directly (strict routes from the TE
  // layer are loop-free by construction; this is defense in depth).
  std::vector<Label> labels;
  for (int i = 0; i < 50; ++i) {
    labels.push_back(link_label(f.topo.find_link(0, 2)));
    labels.push_back(link_label(f.topo.find_link(2, 0)));
  }
  Packet pkt;
  pkt.dst_ip = topo::host_in(f.prefixes[1]);
  pkt.stack = LabelStack(labels);
  pkt.ttl = 16;
  const Forwarder fwd(f.topo, &f.routers);
  EXPECT_EQ(fwd.forward(pkt, 0).outcome, ForwardOutcome::kDroppedTtlExpired);
}

TEST(Forwarder, FibCycleDetectedAsLoopDespiteGenerousTtl) {
  // Regression: with a caller ttl far above the topology hop bound, a
  // cycling label stack used to burn the whole ttl budget and report
  // kDroppedTtlExpired. The hop bound (4n+8) now fires first and names
  // the real failure. TtlGuardsAgainstForwardingLoops above keeps the
  // small-ttl path: a ttl below the bound still wins.
  Fig5Fixture f;
  std::vector<Label> labels;
  for (int i = 0; i < 200; ++i) {
    labels.push_back(link_label(f.topo.find_link(0, 2)));
    labels.push_back(link_label(f.topo.find_link(2, 0)));
  }
  Packet pkt;
  pkt.dst_ip = topo::host_in(f.prefixes[1]);
  pkt.stack = LabelStack(labels);
  pkt.ttl = 10000;
  const Forwarder fwd(f.topo, &f.routers);
  const auto r = fwd.forward(pkt, 0);
  EXPECT_EQ(r.outcome, ForwardOutcome::kDroppedLoop);
  EXPECT_EQ(r.hops, forward_hop_bound(f.topo) + 1);
  EXPECT_STREQ(forward_outcome_name(r.outcome), "loop");
}

TEST(Forwarder, DownLinkDropBumpsObservabilityCounter) {
  Fig5Fixture f;
  te::Path direct;
  direct.links = {f.topo.find_link(0, 1)};
  f.install_route(0, 1, direct);
  f.topo.set_duplex_up(direct.links[0], false);

  auto& counter = obs::Registry::global().counter("dataplane.down_link_drops");
  const std::uint64_t before = counter.value();
  const Forwarder fwd(f.topo, &f.routers);
  Packet pkt;
  pkt.dst_ip = topo::host_in(f.prefixes[1]);
  EXPECT_EQ(fwd.forward(pkt, 0).outcome,
            ForwardOutcome::kDroppedLinkDownNoBypass);
  EXPECT_EQ(counter.value(), before + 1);
}

TEST(Forwarder, LatencyAccumulatesLinkDelays) {
  Fig5Fixture f;
  te::Path via;
  via.links = {f.topo.find_link(0, 2), f.topo.find_link(2, 1)};
  f.install_route(0, 1, via);
  const Forwarder fwd(f.topo, &f.routers);
  Packet pkt;
  pkt.dst_ip = topo::host_in(f.prefixes[1]);
  const auto r = fwd.forward(pkt, 0);
  EXPECT_NEAR(r.latency_s, via.latency_s(f.topo), 1e-12);
}

}  // namespace
}  // namespace dsdn::dataplane

namespace dsdn::dataplane {
namespace {

TEST(BypassFib, SelectAndProtects) {
  BypassFib fib;
  EXPECT_FALSE(fib.protects(3));
  EXPECT_FALSE(fib.select(3, 1).has_value());
  fib.set_bypasses(3, {{LabelStack({21, 22}), 1.0}});
  EXPECT_TRUE(fib.protects(3));
  const auto s = fib.select(3, 1);
  ASSERT_TRUE(s.has_value());
  EXPECT_EQ(s->labels(), (std::vector<Label>{21, 22}));
  EXPECT_EQ(fib.num_protected_links(), 1u);
}

TEST(BypassFib, WeightedSelectionSpreadsAcrossRoutes) {
  BypassFib fib;
  fib.set_bypasses(7, {{LabelStack({1}), 1.0}, {LabelStack({2}), 1.0}});
  std::set<std::vector<Label>> seen;
  for (std::uint64_t e = 0; e < 64; ++e) {
    seen.insert(fib.select(7, e)->labels());
  }
  EXPECT_EQ(seen.size(), 2u);
}

TEST(BypassFib, ValidationAndClear) {
  BypassFib fib;
  EXPECT_THROW(fib.set_bypasses(1, {{LabelStack({1}), -1.0}}),
               std::invalid_argument);
  EXPECT_THROW(fib.set_bypasses(1, {{LabelStack({1}), 0.0}}),
               std::invalid_argument);
  fib.set_bypasses(1, {{LabelStack({1}), 1.0}});
  fib.set_bypasses(1, {});  // empty set removes protection
  EXPECT_FALSE(fib.protects(1));
  fib.set_bypasses(2, {{LabelStack({1}), 1.0}});
  fib.clear();
  EXPECT_EQ(fib.num_protected_links(), 0u);
}

// ---- Golden picks: the weighted route choice pinned bit for bit ----

// Uneven weight sets of the kinds TE placements and bypass strategies
// install: one route, 0.1/0.2/0.7 splits in both orders, 1e-6 slivers,
// seven routes, rank-biased weights, and a zero-weight member.
std::vector<std::vector<double>> golden_weight_sets() {
  return {
      {1.0},
      {0.1, 0.2, 0.7},
      {0.7, 0.2, 0.1},
      {1e-6, 1.0, 1e-6},
      {0.5, 1e-6, 0.5},
      {1, 2, 3, 4, 5, 6, 7},
      {1.0, 1.0 / 2, 1.0 / 3, 1.0 / 4, 1.0 / 5},
      {0.3, 0.0, 0.7},
      {1.0 / 3, 1.0 / 3, 1.0 / 3},
      {2.5e-7, 0.123456789, 0.876543211, 1e-6, 0.05, 0.05},
  };
}

// Route r of set s carries the one label 16 * (s + 1) + r, so the picked
// stack's top names the pick.
std::vector<WeightedRoute> golden_routes(std::size_t s,
                                         const std::vector<double>& weights) {
  std::vector<WeightedRoute> routes;
  for (std::size_t r = 0; r < weights.size(); ++r) {
    routes.push_back(
        {LabelStack({static_cast<Label>(16 * (s + 1) + r)}), weights[r]});
  }
  return routes;
}

TEST(PickGolden, IngressAndBypassPicksOverEntropies) {
  const auto sets = golden_weight_sets();
  IngressFib ingress;
  BypassFib bypass;
  std::vector<std::uint32_t> dst;
  for (std::size_t s = 0; s < sets.size(); ++s) {
    const auto egress = static_cast<topo::NodeId>(s + 1);
    const topo::Prefix p{(10u << 24) | (egress << 8), 24};
    ingress.set_prefix(p, egress);
    dst.push_back(topo::host_in(p));
    // Class c sees the set rotated by c, so every class orders it anew.
    for (int c = 0; c < metrics::kNumPriorityClasses; ++c) {
      std::vector<double> w = sets[s];
      std::rotate(w.begin(), w.begin() + c % w.size(), w.end());
      ingress.set_routes(egress, static_cast<PriorityClass>(c),
                         {golden_routes(s, w)});
    }
    bypass.set_bypasses(static_cast<topo::LinkId>(s),
                        golden_routes(s, sets[s]));
  }
  golden::Fnv f;
  for (std::uint64_t e = 0; e < 16384; ++e) {
    const std::uint64_t entropy = e * 0x9E3779B97F4A7C15ULL + e;
    for (std::size_t s = 0; s < sets.size(); ++s) {
      for (int c = 0; c < metrics::kNumPriorityClasses; ++c) {
        const LabelStack* stack = ingress.lookup_stack(
            dst[s], static_cast<PriorityClass>(c), entropy);
        ASSERT_NE(stack, nullptr);
        f.add(static_cast<std::uint64_t>(stack->top()));
      }
      const LabelStack* b =
          bypass.select_stack(static_cast<topo::LinkId>(s), entropy);
      ASSERT_NE(b, nullptr);
      f.add(static_cast<std::uint64_t>(b->top()));
    }
  }
  EXPECT_EQ(f.h, 0x0b40d60b28357e61ULL) << "0x" << std::hex << f.h;
}

}  // namespace
}  // namespace dsdn::dataplane
