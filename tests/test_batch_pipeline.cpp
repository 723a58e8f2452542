#include <gtest/gtest.h>

#include <atomic>
#include <thread>

#include "dataplane/pipeline.hpp"
#include "obs/metrics.hpp"
#include "te/dijkstra.hpp"
#include "sim/convergence.hpp"
#include "sim/emulation.hpp"
#include "sim/packet_score.hpp"
#include "solver_golden.hpp"
#include "topo/prefix.hpp"
#include "topo/synthetic.hpp"
#include "topo/zoo.hpp"
#include "traffic/gravity.hpp"
#include "util/rng.hpp"

namespace dsdn::dataplane {
namespace {

using metrics::PriorityClass;

// ---- SnapshotHub: epochs, COW sharing, pinned reads ----

std::shared_ptr<RouterDataplane> blank_router(
    const topo::Topology& t, const std::vector<topo::Prefix>& prefixes) {
  auto rd = std::make_shared<RouterDataplane>();
  for (topo::NodeId m = 0; m < t.num_nodes(); ++m)
    rd->ingress.set_prefix(prefixes[m], m);
  return rd;
}

struct Fig5Hub {
  topo::Topology topo = topo::make_fig5();
  std::vector<topo::Prefix> prefixes = topo::assign_router_prefixes(topo);
  SnapshotHub hub{topo, 1};

  Fig5Hub() {
    std::vector<std::shared_ptr<const RouterDataplane>> routers;
    for (topo::NodeId n = 0; n < 3; ++n)
      routers.push_back(blank_router(topo, prefixes));
    hub.publish_all(std::move(routers));
  }

  // Copy of router `n`'s current tables with one route installed.
  RouterDataplane with_route(topo::NodeId headend, topo::NodeId egress,
                             const te::Path& path) {
    RouterDataplane rd = hub.acquire(0)->at(headend);
    EncapEntry entry;
    entry.routes.push_back({encode_strict_route(path), 1.0});
    rd.ingress.set_routes(egress, PriorityClass::kHigh, entry);
    return rd;
  }

  PacketSpec spec_to(topo::NodeId dst, std::uint64_t entropy = 1) {
    PacketSpec s;
    s.dst_ip = topo::host_in(prefixes[dst]);
    s.entropy = entropy;
    s.ingress = 0;
    return s;
  }
};

TEST(SnapshotHub, PublishRouterBumpsEpochAndSharesUnchangedRouters) {
  Fig5Hub f;
  const auto before = f.hub.acquire(0);
  te::Path direct;
  direct.links = {f.topo.find_link(0, 1)};
  const std::uint64_t e = f.hub.publish_router(0, f.with_route(0, 1, direct));
  const auto after = f.hub.acquire(0);
  EXPECT_EQ(after->epoch, e);
  EXPECT_GT(after->epoch, before->epoch);
  // Copy-on-write: only router 0 was replaced.
  EXPECT_NE(after->routers[0].get(), before->routers[0].get());
  EXPECT_EQ(after->routers[1].get(), before->routers[1].get());
  EXPECT_EQ(after->routers[2].get(), before->routers[2].get());
}

TEST(SnapshotHub, AcquiredSnapshotIsUnaffectedByLaterPublishes) {
  Fig5Hub f;
  const auto pinned = f.hub.acquire(0);
  const std::uint64_t pinned_epoch = pinned->epoch;
  te::Path direct;
  direct.links = {f.topo.find_link(0, 1)};
  f.hub.publish_router(0, f.with_route(0, 1, direct));
  f.hub.publish_link_state(f.topo);
  // The pinned snapshot still reads the old tables and old epoch.
  EXPECT_EQ(pinned->epoch, pinned_epoch);
  EXPECT_FALSE(pinned->at(0).ingress.lookup_stack(
      topo::host_in(f.prefixes[1]), PriorityClass::kHigh, 1));
  EXPECT_TRUE(f.hub.acquire(0)->at(0).ingress.lookup_stack(
      topo::host_in(f.prefixes[1]), PriorityClass::kHigh, 1));
}

TEST(SnapshotHub, PublishLinkStateCapturesTopologyFlags) {
  Fig5Hub f;
  const topo::LinkId l = f.topo.find_link(0, 1);
  EXPECT_TRUE(f.hub.acquire(0)->up(l));
  f.topo.set_duplex_up(l, false);
  f.hub.publish_link_state(f.topo);
  const auto snap = f.hub.acquire(0);
  EXPECT_FALSE(snap->up(l));
  // Tables are shared with the previous epoch (COW at link granularity).
  EXPECT_EQ(snap->routers[0].get(), f.hub.acquire(0)->routers[0].get());
}

TEST(SnapshotHub, PerCoreSlotsSeeEveryPublish) {
  const auto topo = topo::make_fig5();
  SnapshotHub hub(topo, 4);
  EXPECT_EQ(hub.num_cores(), 4u);
  const std::uint64_t e = hub.publish_link_state(topo);
  for (std::size_t c = 0; c < 4; ++c)
    EXPECT_EQ(hub.acquire(c)->epoch, e);
}

// ---- Pipeline basics on the Fig 5 fabric ----

TEST(BatchPipeline, DeliversAlongStrictRoute) {
  Fig5Hub f;
  te::Path via;
  via.links = {f.topo.find_link(0, 2), f.topo.find_link(2, 1)};
  f.hub.publish_router(0, f.with_route(0, 1, via));

  PipelineOptions po;
  po.record_traces = true;
  BatchPipeline pipe(f.topo, &f.hub, po);
  const std::vector<PacketSpec> specs{f.spec_to(1)};
  const auto v = pipe.process(specs);
  ASSERT_EQ(v.size(), 1u);
  EXPECT_EQ(v[0].outcome, ForwardOutcome::kDelivered);
  EXPECT_EQ(v[0].final_node, 1u);
  EXPECT_EQ(v[0].hops, 2u);
  EXPECT_EQ(pipe.traces()[0], (std::vector<topo::NodeId>{0, 2, 1}));
  EXPECT_EQ(pipe.stats().last_epoch, f.hub.epoch());
}

TEST(BatchPipeline, UndecodableTransitLabelsDropInBothForwarders) {
  // R0 -> R2 on a real link, then a label R2 cannot decode: reserved, a
  // link id past the topology, and R0's own 0 -> 1 link.
  const auto fig5 = topo::make_fig5();
  for (const Label bad : {Label{3}, link_label(9999),
                          link_label(fig5.find_link(0, 1))}) {
    Fig5Hub f;
    RouterDataplane r0 = *f.hub.acquire(0)->routers[0];
    EncapEntry entry;
    entry.routes.push_back(
        {LabelStack({link_label(f.topo.find_link(0, 2)), bad}), 1.0});
    r0.ingress.set_routes(1, PriorityClass::kHigh, entry);
    f.hub.publish_router(0, r0);

    BatchPipeline pipe(f.topo, &f.hub);
    const std::vector<PacketSpec> specs{f.spec_to(1)};
    const PacketVerdict v = pipe.process(specs)[0];
    EXPECT_EQ(v.outcome, ForwardOutcome::kDroppedUnknownLabel) << bad;
    EXPECT_EQ(v.final_node, 2u) << bad;
    EXPECT_EQ(v.hops, 1u) << bad;

    const SnapshotView view(f.hub.acquire(0));
    const Forwarder fwd(f.topo, &view);
    Packet pkt;
    pkt.dst_ip = specs[0].dst_ip;
    pkt.entropy = specs[0].entropy;
    const ForwardResult r = fwd.forward(pkt, 0);
    EXPECT_EQ(r.outcome, ForwardOutcome::kDroppedUnknownLabel) << bad;
    EXPECT_EQ(r.final_node, 2u) << bad;
    EXPECT_EQ(r.hops, 1u) << bad;
  }
}

TEST(BatchPipeline, CutMidPathTakesSnapshotBypass) {
  // The satellite-3 scenario: a transit link dies after the headend
  // pushed its stack. The dataplane-local port-down flag (link state in
  // the snapshot) fires before any control-plane reprogram, and the
  // router's own BypassFib repairs around the dead link.
  Fig5Hub f;
  const topo::LinkId cut = f.topo.find_link(0, 1);
  te::Path direct;
  direct.links = {cut};
  RouterDataplane r0 = f.with_route(0, 1, direct);
  te::Path via;
  via.links = {f.topo.find_link(0, 2), f.topo.find_link(2, 1)};
  r0.bypass.set_bypasses(cut, {{encode_strict_route(via), 1.0}});
  f.hub.publish_router(0, r0);

  f.topo.set_duplex_up(cut, false);
  f.hub.publish_link_state(f.topo);

  PipelineOptions po;
  po.record_traces = true;
  BatchPipeline pipe(f.topo, &f.hub, po);
  const auto v = pipe.process(std::vector<PacketSpec>{f.spec_to(1)});
  EXPECT_EQ(v[0].outcome, ForwardOutcome::kDelivered);
  EXPECT_EQ(v[0].frr_activations, 1u);
  EXPECT_EQ(pipe.traces()[0], (std::vector<topo::NodeId>{0, 2, 1}));
}

TEST(BatchPipeline, DownLinkWithoutBypassDropsAndCounts) {
  Fig5Hub f;
  const topo::LinkId cut = f.topo.find_link(0, 1);
  te::Path direct;
  direct.links = {cut};
  f.hub.publish_router(0, f.with_route(0, 1, direct));
  f.topo.set_duplex_up(cut, false);
  f.hub.publish_link_state(f.topo);

  auto& counter = obs::Registry::global().counter("dataplane.down_link_drops");
  const std::uint64_t before = counter.value();
  BatchPipeline pipe(f.topo, &f.hub, {});
  const auto v = pipe.process(std::vector<PacketSpec>{f.spec_to(1)});
  EXPECT_EQ(v[0].outcome, ForwardOutcome::kDroppedLinkDownNoBypass);
  EXPECT_EQ(counter.value(), before + 1);
  EXPECT_EQ(pipe.stats().by_outcome[static_cast<std::size_t>(
                ForwardOutcome::kDroppedLinkDownNoBypass)],
            1u);
}

TEST(BatchPipeline, ScalarWalkOverSnapshotReadsPublishedLinkState) {
  // Published port state differs from the live topology: the snapshot
  // says the direct link is down, the topology still says up. The scalar
  // walk over a SnapshotView must read the snapshot's flags, exactly as
  // the pipeline does, and both drop the packet.
  Fig5Hub f;
  const topo::LinkId cut = f.topo.find_link(0, 1);
  te::Path direct;
  direct.links = {cut};
  f.hub.publish_router(0, f.with_route(0, 1, direct));
  topo::Topology published = f.topo;
  published.set_duplex_up(cut, false);
  f.hub.publish_link_state(published);
  ASSERT_TRUE(f.topo.link(cut).up);

  BatchPipeline pipe(f.topo, &f.hub, {});
  const auto v = pipe.process(std::vector<PacketSpec>{f.spec_to(1)});
  EXPECT_EQ(v[0].outcome, ForwardOutcome::kDroppedLinkDownNoBypass);

  const SnapshotView view(f.hub.acquire(0));
  const Forwarder fwd(f.topo, &view);
  Packet pkt;
  pkt.dst_ip = f.spec_to(1).dst_ip;
  pkt.entropy = f.spec_to(1).entropy;
  const ForwardResult r = fwd.forward(pkt, 0);
  EXPECT_EQ(r.outcome, ForwardOutcome::kDroppedLinkDownNoBypass);
  EXPECT_EQ(r.final_node, v[0].final_node);
}

TEST(BatchPipeline, StatsAccountEveryPacketOnce) {
  Fig5Hub f;
  te::Path via;
  via.links = {f.topo.find_link(0, 2), f.topo.find_link(2, 1)};
  f.hub.publish_router(0, f.with_route(0, 1, via));
  BatchPipeline pipe(f.topo, &f.hub, {});
  std::vector<PacketSpec> specs;
  for (std::uint64_t e = 0; e < 100; ++e) specs.push_back(f.spec_to(1, e));
  specs.push_back(f.spec_to(0));  // local delivery
  PacketSpec unroutable = f.spec_to(1);
  unroutable.dst_ip = topo::parse_ipv4("192.168.1.1");
  specs.push_back(unroutable);
  pipe.process(specs);

  const PipelineStats s = pipe.stats();
  EXPECT_EQ(s.packets, specs.size());
  EXPECT_EQ(s.delivered, 101u);
  EXPECT_EQ(s.dropped, 1u);
  EXPECT_EQ(s.batches, (specs.size() + kBatchSize - 1) / kBatchSize);
  std::uint64_t by_outcome_sum = 0;
  for (const std::uint64_t c : s.by_outcome) by_outcome_sum += c;
  EXPECT_EQ(by_outcome_sum, s.packets);
}

// ---- Slow path: stacks deeper than the inline array ----

TEST(BatchPipeline, DeepStackTakesSlowPathWithIdenticalVerdict) {
  // A 69-label strict route (line of 70 nodes) overflows kInlineLabels;
  // the packet must rerun on the scalar slow path and still match the
  // scalar Forwarder bit for bit.
  const auto topo = topo::make_line(70);
  const auto prefixes = topo::assign_router_prefixes(topo);
  SnapshotHub hub(topo, 1);
  std::vector<std::shared_ptr<const RouterDataplane>> routers;
  for (topo::NodeId n = 0; n < topo.num_nodes(); ++n)
    routers.push_back(blank_router(topo, prefixes));
  te::Path path;
  for (topo::NodeId i = 0; i + 1 < 70; ++i)
    path.links.push_back(topo.find_link(i, i + 1));
  ASSERT_GT(path.hops(), kInlineLabels);
  auto r0 = std::make_shared<RouterDataplane>(*routers[0]);
  EncapEntry entry;
  entry.routes.push_back(
      {encode_strict_route(path, /*enforce_depth=*/false), 1.0});
  r0->ingress.set_routes(69, PriorityClass::kHigh, entry);
  routers[0] = r0;
  hub.publish_all(std::move(routers));

  PacketSpec spec;
  spec.dst_ip = topo::host_in(prefixes[69]);
  spec.ttl = 300;
  spec.ingress = 0;
  PipelineOptions po;
  po.record_traces = true;
  BatchPipeline pipe(topo, &hub, po);
  const auto v = pipe.process(std::vector<PacketSpec>{spec});
  EXPECT_EQ(v[0].outcome, ForwardOutcome::kDelivered);
  EXPECT_EQ(v[0].final_node, 69u);
  EXPECT_EQ(v[0].hops, 69u);
  EXPECT_EQ(pipe.stats().slow_path_packets, 1u);

  const SnapshotView view(hub.acquire(0));
  const Forwarder fwd(topo, &view);
  Packet pkt;
  pkt.dst_ip = spec.dst_ip;
  pkt.ttl = spec.ttl;
  pkt.entropy = spec.entropy;
  const ForwardResult r = fwd.forward(pkt, 0);
  EXPECT_EQ(r.outcome, v[0].outcome);
  EXPECT_EQ(r.final_node, v[0].final_node);
  EXPECT_EQ(r.hops, v[0].hops);
  EXPECT_EQ(r.latency_s, v[0].latency_s);
  EXPECT_EQ(r.trace, pipe.traces()[0]);
}

// ---- Differential: batched pipeline vs scalar forwarder ----

// Rate-weighted random packets, the sampling the bench and packet_score
// use.
std::vector<PacketSpec> random_specs(const sim::DsdnEmulation& emu,
                                     std::size_t n, std::uint64_t seed) {
  const auto& demands = emu.demands().demands();
  std::vector<double> weights;
  for (const auto& d : demands)
    weights.push_back(d.src != d.dst && d.rate_gbps > 0 ? d.rate_gbps : 0.0);
  const int ttl = static_cast<int>(4 * emu.network().num_nodes() + 16);
  util::Rng rng(util::splitmix64(seed));
  std::vector<PacketSpec> specs;
  for (std::size_t i = 0; i < n; ++i) {
    const auto& d = demands[rng.weighted_pick(weights)];
    PacketSpec s;
    s.dst_ip = emu.address_of(d.dst);
    s.priority = d.priority;
    s.entropy = rng.engine()();
    s.ttl = ttl;
    s.ingress = d.src;
    specs.push_back(s);
  }
  return specs;
}

// Asserts bit-for-bit parity between the batched pipeline and the scalar
// Forwarder run over the same pinned snapshot.
void expect_parity(const sim::DsdnEmulation& emu,
                   std::span<const PacketSpec> specs, const char* what) {
  PipelineOptions po;
  po.record_traces = true;
  BatchPipeline pipe(emu.network(), emu.fib_hub(), po);
  const auto verdicts = pipe.process(specs);

  const SnapshotView view(emu.fib_hub()->acquire(0));
  const Forwarder fwd(emu.network(), &view);
  for (std::size_t i = 0; i < specs.size(); ++i) {
    Packet pkt;
    pkt.dst_ip = specs[i].dst_ip;
    pkt.priority = specs[i].priority;
    pkt.entropy = specs[i].entropy;
    pkt.ttl = specs[i].ttl;
    const ForwardResult r = fwd.forward(pkt, specs[i].ingress);
    ASSERT_EQ(r.outcome, verdicts[i].outcome) << what << " packet " << i;
    ASSERT_EQ(r.final_node, verdicts[i].final_node) << what << " packet " << i;
    ASSERT_EQ(r.hops, verdicts[i].hops) << what << " packet " << i;
    ASSERT_EQ(r.frr_activations, verdicts[i].frr_activations)
        << what << " packet " << i;
    ASSERT_EQ(r.latency_s, verdicts[i].latency_s) << what << " packet " << i;
    ASSERT_EQ(r.trace, pipe.traces()[i]) << what << " packet " << i;
  }
}

// ---- Golden verdicts: the B4 forwarding workload pinned bit for bit ----

// Digest of every verdict field the parity contract covers, over one
// pool forwarded by the batched pipeline and again by the scalar
// Forwarder, both reading `hub`'s snapshot on `topo`.
std::pair<std::uint64_t, std::uint64_t> verdict_digests(
    const topo::Topology& topo, const SnapshotHub& hub,
    std::span<const PacketSpec> pool) {
  golden::Fnv batched;
  BatchPipeline pipe(topo, &hub);
  for (const PacketVerdict& v : pipe.process(pool)) {
    batched.add(static_cast<std::uint64_t>(v.outcome));
    batched.add(static_cast<std::uint64_t>(v.final_node));
    batched.add(static_cast<std::uint64_t>(v.hops));
    batched.add(v.latency_s);
    batched.add(static_cast<std::uint64_t>(v.frr_activations));
  }
  golden::Fnv scalar;
  const SnapshotView view(hub.acquire(0));
  const Forwarder fwd(topo, &view);
  for (const PacketSpec& s : pool) {
    Packet pkt;
    pkt.dst_ip = s.dst_ip;
    pkt.priority = s.priority;
    pkt.entropy = s.entropy;
    pkt.ttl = s.ttl;
    const ForwardResult r = fwd.forward(std::move(pkt), s.ingress);
    scalar.add(static_cast<std::uint64_t>(r.outcome));
    scalar.add(static_cast<std::uint64_t>(r.final_node));
    scalar.add(static_cast<std::uint64_t>(r.hops));
    scalar.add(r.latency_s);
    scalar.add(static_cast<std::uint64_t>(r.frr_activations));
  }
  return {batched.h, scalar.h};
}

TEST(VerdictGolden, B4PoolThroughPipelineAndForwarder) {
  // A B4-like fleet bootstrapped the way perfbench's b4_forward builds
  // it, and a seeded 32,768-packet rate-weighted pool.
  const auto topo = topo::make_b4_like();
  traffic::GravityParams gp;
  gp.pair_fraction = 0.15;
  gp.target_max_utilization = 0.6;
  gp.seed = util::splitmix64(0xB4F0);
  sim::DsdnEmulation emu(topo,
                         traffic::generate_gravity(topo, gp).aggregated());
  emu.enable_fib_snapshots(1);
  emu.bootstrap();
  const auto pool = random_specs(emu, 1 << 15, 0xDA7A);

  const auto converged = verdict_digests(emu.network(), *emu.fib_hub(), pool);
  EXPECT_EQ(converged.first, 0x41647880160d60f4ULL) << "0x" << std::hex << converged.first;
  EXPECT_EQ(converged.second, 0x41647880160d60f4ULL) << "0x" << std::hex << converged.second;

  // The same tables with three fibers down in the snapshot's link flags
  // only: the window before any controller reprograms, where stale
  // routes hit dead links and FRR splices bypasses.
  topo::Topology cut = emu.network();
  for (topo::LinkId f : sim::pick_failure_fibers(cut, 3, 0xC07))
    cut.set_duplex_up(f, false);
  SnapshotHub stale(cut, 1);
  stale.publish_all(emu.fib_hub()->acquire(0)->routers);
  BatchPipeline probe(cut, &stale);
  probe.process(pool);
  EXPECT_GT(probe.stats().frr_activations, 0u);
  const auto frr = verdict_digests(cut, stale, pool);
  EXPECT_EQ(frr.first, 0x1c83a4d0a7ae0fe5ULL) << "0x" << std::hex << frr.first;
  EXPECT_EQ(frr.second, 0x1c83a4d0a7ae0fe5ULL) << "0x" << std::hex << frr.second;
}

TEST(BatchPipeline, DifferentialAgainstScalarAcrossSeedsAndChurn) {
  // The parity contract of pipeline.hpp, enforced over randomized Abilene
  // traffic: 24 seeds on the converged network, then more across a fiber
  // cut (stale-route FRR era and reconverged era) and its repair.
  const auto topo = topo::make_abilene();
  traffic::GravityParams gp;
  gp.pair_fraction = 1.0;
  gp.target_max_utilization = 0.5;
  sim::DsdnEmulation emu(topo, traffic::generate_gravity(topo, gp));
  emu.enable_fib_snapshots(1);
  emu.bootstrap();

  for (std::uint64_t seed = 1; seed <= 24; ++seed)
    expect_parity(emu, random_specs(emu, 48, seed), "converged");

  const auto fibers = sim::pick_failure_fibers(emu.network(), 2, 77);
  ASSERT_FALSE(fibers.empty());
  emu.fail_fiber(fibers[0]);
  for (std::uint64_t seed = 30; seed <= 35; ++seed)
    expect_parity(emu, random_specs(emu, 48, seed), "after cut");
  emu.repair_fiber(fibers[0]);
  for (std::uint64_t seed = 40; seed <= 45; ++seed)
    expect_parity(emu, random_specs(emu, 48, seed), "after repair");
}

TEST(BatchPipeline, DifferentialOnB4AtScale) {
  // One pass at B4 scale: same fabric and sampling as bench_dataplane_pps.
  const auto topo = topo::make_b4_like();
  traffic::GravityParams gp;
  gp.pair_fraction = 0.1;
  gp.seed = 0xB4;
  sim::DsdnEmulation emu(topo, traffic::generate_gravity(topo, gp).aggregated());
  emu.enable_fib_snapshots(1);
  emu.bootstrap();
  for (std::uint64_t seed = 1; seed <= 4; ++seed)
    expect_parity(emu, random_specs(emu, 64, seed), "b4");
}

TEST(BatchPipeline, DifferentialOnSegmentRoutingFleet) {
  // Same parity contract, but the fleet runs segment routing: headends
  // push 1-3 node-segment labels and every hop re-picks among the
  // snapshot's up ECMP members. Scalar forwarder and batched pipeline
  // (fast path and slow path) must agree bit for bit, across a cut
  // (where SR's re-pick-on-down local repair kicks in) and its repair.
  const auto topo = topo::make_abilene();
  traffic::GravityParams gp;
  gp.pair_fraction = 1.0;
  gp.target_max_utilization = 0.5;
  sim::EmulationConfig cfg;
  cfg.algorithms.assign(topo.num_nodes(),
                        core::PathingAlgorithm::kSegmentRouting);
  sim::DsdnEmulation emu(topo, traffic::generate_gravity(topo, gp), cfg);
  emu.enable_fib_snapshots(1);
  emu.bootstrap();

  // The fleet really forwards on segment stacks.
  std::size_t sr_stacks = 0;
  for (topo::NodeId n = 0; n < topo.num_nodes(); ++n) {
    EXPECT_GT(emu.at(n).sr.num_targets(), 0u);
    for (const auto& [key, entry] : emu.at(n).ingress.encap_table()) {
      for (const auto& route : entry.routes) {
        if (!route.stack.empty() &&
            is_node_segment_label(route.stack.labels()[0])) {
          ++sr_stacks;
        }
      }
    }
  }
  EXPECT_GT(sr_stacks, 0u);

  for (std::uint64_t seed = 1; seed <= 12; ++seed)
    expect_parity(emu, random_specs(emu, 48, seed), "sr converged");

  const auto fibers = sim::pick_failure_fibers(emu.network(), 2, 19);
  ASSERT_FALSE(fibers.empty());
  emu.fail_fiber(fibers[0]);
  for (std::uint64_t seed = 20; seed <= 25; ++seed)
    expect_parity(emu, random_specs(emu, 48, seed), "sr after cut");
  emu.repair_fiber(fibers[0]);
  for (std::uint64_t seed = 30; seed <= 35; ++seed)
    expect_parity(emu, random_specs(emu, 48, seed), "sr after repair");
}

TEST(BatchPipeline, SrRepickOnStaleSnapshotMatchesScalar) {
  // The transient era the swarm's packet scoring exercises: link state is
  // republished (port-down detection) before any controller reprograms,
  // so SR entries still list the dead member and the dataplane must skip
  // it. Parity must hold on exactly that stale snapshot.
  const auto topo = topo::make_abilene();
  traffic::GravityParams gp;
  gp.pair_fraction = 1.0;
  gp.target_max_utilization = 0.5;
  sim::EmulationConfig cfg;
  cfg.algorithms.assign(topo.num_nodes(),
                        core::PathingAlgorithm::kSegmentRouting);
  sim::DsdnEmulation emu(topo, traffic::generate_gravity(topo, gp), cfg);
  emu.enable_fib_snapshots(1);
  emu.bootstrap();

  // Freeze the converged SR tables, then kill a link only in the
  // *snapshot's* link state: acquire() sees stale members + fresh flags.
  auto topo_down = emu.network();
  const auto fibers = sim::pick_failure_fibers(topo_down, 1, 7);
  ASSERT_FALSE(fibers.empty());
  topo_down.set_duplex_up(fibers[0], false);
  emu.fib_hub()->publish_link_state(topo_down);

  PipelineOptions po;
  po.record_traces = true;
  BatchPipeline pipe(topo_down, emu.fib_hub(), po);
  const auto specs = random_specs(emu, 256, 0xA11CE);
  const auto verdicts = pipe.process(specs);
  const SnapshotView view(emu.fib_hub()->acquire(0));
  const Forwarder fwd(topo_down, &view);
  for (std::size_t i = 0; i < specs.size(); ++i) {
    Packet pkt;
    pkt.dst_ip = specs[i].dst_ip;
    pkt.priority = specs[i].priority;
    pkt.entropy = specs[i].entropy;
    pkt.ttl = specs[i].ttl;
    const ForwardResult r = fwd.forward(pkt, specs[i].ingress);
    ASSERT_EQ(r.outcome, verdicts[i].outcome) << "packet " << i;
    ASSERT_EQ(r.hops, verdicts[i].hops) << "packet " << i;
    ASSERT_EQ(r.trace, pipe.traces()[i]) << "packet " << i;
    // Stale SR walks may dead-end but must never cycle.
    ASSERT_NE(r.outcome, ForwardOutcome::kDroppedLoop) << "packet " << i;
  }
}

// ---- Reprogram during forward: the TSan stress ----

TEST(BatchPipeline, ReprogramDuringForwardNeverTearsABatch) {
  // A publisher flips router 0 between two valid programs (direct route
  // vs via-R2 route) while two forwarding cores drain batches. Every
  // packet must deliver -- a torn epoch would surface as an unknown
  // label or a not-local drop -- and epochs must advance monotonically.
  // Runs under TSan in tier-1 (scripts/tier1.sh).
  Fig5Hub f;
  te::Path direct;
  direct.links = {f.topo.find_link(0, 1)};
  te::Path via;
  via.links = {f.topo.find_link(0, 2), f.topo.find_link(2, 1)};
  const RouterDataplane prog_a = f.with_route(0, 1, direct);
  const RouterDataplane prog_b = f.with_route(0, 1, via);

  SnapshotHub hub(f.topo, 2);
  {
    std::vector<std::shared_ptr<const RouterDataplane>> routers;
    for (topo::NodeId n = 0; n < 3; ++n)
      routers.push_back(blank_router(f.topo, f.prefixes));
    hub.publish_all(std::move(routers));
  }
  hub.publish_router(0, prog_a);
  const std::uint64_t epoch0 = hub.epoch();

  std::vector<PacketSpec> pool;
  for (std::uint64_t e = 0; e < 256; ++e) pool.push_back(f.spec_to(1, e));

  std::atomic<bool> done{false};
  std::atomic<std::uint64_t> bad{0};
  std::vector<std::unique_ptr<BatchPipeline>> pipes;
  for (std::size_t c = 0; c < 2; ++c) {
    PipelineOptions po;
    po.core = c;
    pipes.push_back(std::make_unique<BatchPipeline>(f.topo, &hub, po));
  }
  // Publisher keeps flipping programs until every forwarding core has
  // finished its rounds (fixed round count so the test is meaningful on
  // a single-CPU machine too). The cores start only after its first
  // flip, so the flips overlap forwarding however the threads are
  // scheduled.
  std::atomic<std::uint64_t> publishes{0};
  std::thread publisher([&] {
    do {
      const std::uint64_t n = publishes.load(std::memory_order_relaxed);
      hub.publish_router(0, (n & 1) ? prog_b : prog_a);
      publishes.store(n + 1, std::memory_order_release);
    } while (!done.load(std::memory_order_relaxed));
  });
  std::vector<std::thread> cores;
  for (std::size_t c = 0; c < 2; ++c) {
    cores.emplace_back([&, c] {
      while (publishes.load(std::memory_order_acquire) == 0)
        std::this_thread::yield();
      std::vector<PacketVerdict> out;
      for (int round = 0; round < 100; ++round) {
        pipes[c]->process(pool, out);
        for (const PacketVerdict& v : out)
          if (v.outcome != ForwardOutcome::kDelivered)
            bad.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  for (auto& t : cores) t.join();
  done.store(true, std::memory_order_relaxed);
  publisher.join();

  EXPECT_EQ(bad.load(), 0u);
  EXPECT_GT(publishes.load(), 0u);
  EXPECT_EQ(hub.epoch(), epoch0 + publishes.load());
  for (const auto& p : pipes) {
    const PipelineStats s = p->stats();
    EXPECT_EQ(s.packets, 100u * pool.size());
    EXPECT_EQ(s.delivered, s.packets);
    EXPECT_GE(s.last_epoch, epoch0);
  }
}

}  // namespace
}  // namespace dsdn::dataplane

namespace dsdn::sim {
namespace {

TEST(PacketScore, CleanAfterBootstrapAndChurn) {
  // Packet-level cross-check of the structural invariants (and of
  // flow_eval's structural loss scoring): at every quiescent point, all
  // sampled packets either deliver or legitimately lack an ingress
  // route; loops, unknown labels and dead-link walks are violations.
  const auto topo = topo::make_abilene();
  traffic::GravityParams gp;
  gp.pair_fraction = 1.0;
  gp.target_max_utilization = 0.5;
  DsdnEmulation emu(topo, traffic::generate_gravity(topo, gp));
  emu.enable_fib_snapshots(1);
  emu.bootstrap();

  PacketScoreOptions options;
  options.packets = 512;
  const PacketScoreReport clean = score_packets(emu, options);
  EXPECT_TRUE(clean.ok()) << (clean.violations.empty()
                                  ? ""
                                  : clean.violations.front());
  EXPECT_EQ(clean.packets, 512u);
  EXPECT_GT(clean.delivered, 0u);

  const auto fibers = pick_failure_fibers(emu.network(), 1, 5);
  ASSERT_FALSE(fibers.empty());
  emu.fail_fiber(fibers[0]);
  EXPECT_TRUE(score_packets(emu, options).ok());
  emu.repair_fiber(fibers[0]);
  const PacketScoreReport repaired = score_packets(emu, options);
  EXPECT_TRUE(repaired.ok());
  // Deterministic: same emulation state + options, same report.
  EXPECT_EQ(score_packets(emu, options).delivered, repaired.delivered);
}

TEST(PacketScore, RequiresSnapshotHub) {
  const auto topo = topo::make_fig5();
  traffic::GravityParams gp;
  gp.pair_fraction = 1.0;
  DsdnEmulation emu(topo, traffic::generate_gravity(topo, gp));
  emu.bootstrap();
  EXPECT_THROW(score_packets(emu), std::invalid_argument);
}

}  // namespace
}  // namespace dsdn::sim
