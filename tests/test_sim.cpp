#include <gtest/gtest.h>

#include <array>

#include "sim/convergence.hpp"
#include "sim/event_queue.hpp"
#include "sim/failure.hpp"
#include "sim/flow_eval.hpp"
#include "sim/transient.hpp"
#include "solver_golden.hpp"
#include "topo/builder.hpp"
#include "topo/synthetic.hpp"
#include "topo/zoo.hpp"
#include "traffic/gravity.hpp"

namespace dsdn::sim {
namespace {

using metrics::PriorityClass;

TEST(EventQueue, RunsInTimeOrderWithStableTies) {
  EventQueue q;
  std::vector<int> order;
  q.schedule(2.0, [&] { order.push_back(3); });
  q.schedule(1.0, [&] { order.push_back(1); });
  q.schedule(1.0, [&] { order.push_back(2); });  // same time, FIFO
  q.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_DOUBLE_EQ(q.now(), 2.0);
}

TEST(EventQueue, CallbacksCanScheduleMore) {
  EventQueue q;
  int fired = 0;
  q.schedule(1.0, [&] {
    ++fired;
    q.schedule_in(0.5, [&] { ++fired; });
  });
  EXPECT_EQ(q.run(), 2u);
  EXPECT_EQ(fired, 2);
  EXPECT_DOUBLE_EQ(q.now(), 1.5);
}

TEST(EventQueue, SameTimestampFifoStressWithNestedScheduling) {
  // Determinism backbone of the whole emulation: at equal timestamps the
  // queue is strictly FIFO in scheduling order, including events
  // scheduled from *within* callbacks running at that same timestamp.
  EventQueue q;
  std::vector<int> order;
  constexpr int kFirstWave = 200;
  constexpr int kNested = 50;
  for (int i = 0; i < kFirstWave; ++i) {
    q.schedule(1.0, [&order, &q, i] {
      order.push_back(i);
      if (i < kNested) {
        // now() == 1.0: same-timestamp events appended from a callback
        // land after everything already scheduled, in this order.
        q.schedule(1.0, [&order, i] { order.push_back(1000 + i); });
      }
    });
  }
  EXPECT_EQ(q.run(), static_cast<std::size_t>(kFirstWave + kNested));
  ASSERT_EQ(order.size(), static_cast<std::size_t>(kFirstWave + kNested));
  for (int i = 0; i < kFirstWave; ++i) EXPECT_EQ(order[i], i);
  for (int i = 0; i < kNested; ++i) EXPECT_EQ(order[kFirstWave + i], 1000 + i);
  EXPECT_DOUBLE_EQ(q.now(), 1.0);
}

TEST(EventQueue, RejectsPastScheduling) {
  EventQueue q;
  q.schedule(1.0, [] {});
  q.run();
  EXPECT_THROW(q.schedule(0.5, [] {}), std::invalid_argument);
}

TEST(EventQueue, RunUntilHonorsHorizon) {
  EventQueue q;
  int fired = 0;
  q.schedule(1.0, [&] { ++fired; });
  q.schedule(5.0, [&] { ++fired; });
  q.run_until(2.0);
  EXPECT_EQ(fired, 1);
  EXPECT_DOUBLE_EQ(q.now(), 2.0);
  EXPECT_EQ(q.pending(), 1u);
}

TEST(Failures, EventsOrderedAndAlternating) {
  const auto topo = topo::make_geant();
  FailureParams p;
  p.days = 365;
  p.mttf_days = 30;
  const auto events = generate_failures(topo, p);
  ASSERT_GT(events.size(), 10u);
  std::map<topo::LinkId, bool> down;
  double last = 0;
  for (const auto& e : events) {
    EXPECT_GE(e.time_s, last);
    last = e.time_s;
    if (e.up) {
      EXPECT_TRUE(down[e.fiber]);  // repair only after failure
      down[e.fiber] = false;
    } else {
      EXPECT_FALSE(down[e.fiber]);  // no double failure
      down[e.fiber] = true;
    }
  }
}

TEST(Failures, ChurnMultiplierScalesRate) {
  const auto topo = topo::make_geant();
  FailureParams base;
  base.days = 200;
  FailureParams churned = base;
  churned.churn_multiplier = 10.0;
  const auto a = generate_failures(topo, base);
  const auto b = generate_failures(topo, churned);
  EXPECT_GT(b.size(), a.size() * 4);
}

TEST(Failures, OnlyDuplexRepresentativesFail) {
  const auto topo = topo::make_geant();
  FailureParams p;
  p.days = 500;
  p.mttf_days = 20;
  for (const auto& e : generate_failures(topo, p)) {
    const auto& l = topo.link(e.fiber);
    EXPECT_TRUE(l.reverse == topo::kInvalidLink || l.id < l.reverse);
  }
}

// ---- flow evaluation ----

struct EvalFixture {
  topo::Topology topo = topo::make_fig5();  // R0->R1 direct + via R2
  traffic::TrafficMatrix tm;

  EvalFixture() {
    tm.add({0, 1, PriorityClass::kHigh, 50.0});
  }

  InstalledRouting route_via(std::initializer_list<topo::LinkId> links) {
    InstalledRouting r;
    te::WeightedPath wp;
    wp.path.links = links;
    wp.weight = 1.0;
    r.rows.push_back({wp});
    return r;
  }
};

TEST(FlowEval, HealthyRoutingHasNoLoss) {
  EvalFixture f;
  const auto routing = f.route_via({f.topo.find_link(0, 1)});
  const auto report = evaluate_loss(f.topo, f.tm, routing);
  EXPECT_DOUBLE_EQ(report.loss[0], 0.0);
  EXPECT_DOUBLE_EQ(report.utilization[f.topo.find_link(0, 1)], 0.5);
}

TEST(FlowEval, DownLinkWithoutBypassIsTotalLoss) {
  EvalFixture f;
  const topo::LinkId direct = f.topo.find_link(0, 1);
  const auto routing = f.route_via({direct});
  f.topo.set_duplex_up(direct, false);
  const auto report = evaluate_loss(f.topo, f.tm, routing);
  EXPECT_DOUBLE_EQ(report.loss[0], 1.0);
}

TEST(FlowEval, BypassAbsorbsFailure) {
  EvalFixture f;
  const topo::LinkId direct = f.topo.find_link(0, 1);
  const auto routing = f.route_via({direct});
  const auto bypasses = dataplane::BypassPlan::compute(
      f.topo, dataplane::BypassStrategy::kShortestPath);
  f.topo.set_duplex_up(direct, false);
  const auto report = evaluate_loss(f.topo, f.tm, routing, &bypasses);
  EXPECT_DOUBLE_EQ(report.loss[0], 0.0);  // 50G fits the 100G detour
}

TEST(FlowEval, CongestionDropsProportionally) {
  EvalFixture f;
  // Push 150G down a 100G link: 1/3 loss.
  f.tm = traffic::TrafficMatrix();
  f.tm.add({0, 1, PriorityClass::kHigh, 150.0});
  const auto routing = f.route_via({f.topo.find_link(0, 1)});
  const auto report = evaluate_loss(f.topo, f.tm, routing);
  EXPECT_NEAR(report.loss[0], 1.0 / 3.0, 1e-9);
}

TEST(FlowEval, StrictPriorityProtectsHighClass) {
  EvalFixture f;
  f.tm = traffic::TrafficMatrix();
  f.tm.add({0, 1, PriorityClass::kHigh, 80.0});
  f.tm.add({0, 1, PriorityClass::kLow, 80.0});
  InstalledRouting routing;
  te::WeightedPath wp;
  wp.path.links = {f.topo.find_link(0, 1)};
  routing.rows.push_back({wp});
  routing.rows.push_back({wp});
  const auto report = evaluate_loss(f.topo, f.tm, routing);
  EXPECT_DOUBLE_EQ(report.loss[0], 0.0);          // high untouched
  EXPECT_NEAR(report.loss[1], 0.75, 1e-9);        // low gets 20 of 80
}

TEST(FlowEval, MissingRoutingIsBlackhole) {
  EvalFixture f;
  InstalledRouting routing;
  routing.rows.push_back({});  // nothing installed
  const auto report = evaluate_loss(f.topo, f.tm, routing);
  EXPECT_DOUBLE_EQ(report.loss[0], 1.0);
}

TEST(FlowEval, ZeroRateDemandIsNeverCharged) {
  // Regression: a demand offering 0 Gbps used to be scored loss = 1.0
  // when its route set was empty or partially installed -- it offers
  // nothing, so it can lose nothing.
  EvalFixture f;
  f.tm = traffic::TrafficMatrix();
  f.tm.add({0, 1, PriorityClass::kHigh, 0.0});
  InstalledRouting none;
  none.rows.push_back({});
  EXPECT_DOUBLE_EQ(evaluate_loss(f.topo, f.tm, none).loss[0], 0.0);

  const auto partial = f.route_via({f.topo.find_link(0, 1)});
  EXPECT_DOUBLE_EQ(evaluate_loss(f.topo, f.tm, partial).loss[0], 0.0);
}

TEST(FlowEval, PartialInstallChargesMissingWeightProportionally) {
  // Only 60% of the demand's route set made it into the FIB: the
  // missing 40% is charged as loss, not lumped into a full blackhole.
  EvalFixture f;
  InstalledRouting routing;
  te::WeightedPath wp;
  wp.path.links = {f.topo.find_link(0, 1)};
  wp.weight = 0.6;
  routing.rows.push_back({wp});
  const auto report = evaluate_loss(f.topo, f.tm, routing);
  EXPECT_NEAR(report.loss[0], 0.4, 1e-9);
}

TEST(FlowEval, ZeroWeightRoutesCarryNothing) {
  // A row whose only route has weight 0 effectively installs nothing:
  // the whole demand is missing weight, hence full loss.
  EvalFixture f;
  InstalledRouting routing;
  te::WeightedPath wp;
  wp.path.links = {f.topo.find_link(0, 1)};
  wp.weight = 0.0;
  routing.rows.push_back({wp});
  const auto report = evaluate_loss(f.topo, f.tm, routing);
  EXPECT_DOUBLE_EQ(report.loss[0], 1.0);
  // And the zero-weight portion must not have offered load to the link.
  EXPECT_DOUBLE_EQ(report.utilization[f.topo.find_link(0, 1)], 0.0);
}

TEST(FlowEval, StructuralOnlyScoringIgnoresCongestion) {
  // With congestion scoring off, an oversubscribed link grants every
  // class in full: only structural failures (missing routes, dead paths,
  // missing weight) count. The invariant checkers rely on this to avoid
  // flagging strict-priority starvation as a blackhole.
  EvalFixture f;
  f.tm = traffic::TrafficMatrix();
  f.tm.add({0, 1, PriorityClass::kHigh, 200.0});  // saturates the link
  f.tm.add({0, 1, PriorityClass::kLow, 50.0});    // starved under QoS
  InstalledRouting routing;
  te::WeightedPath wp;
  wp.path.links = {f.topo.find_link(0, 1)};
  routing.rows.push_back({wp});
  routing.rows.push_back({wp});
  const auto congested = evaluate_loss(f.topo, f.tm, routing);
  EXPECT_DOUBLE_EQ(congested.loss[1], 1.0);  // scavenger loses everything

  LossOptions structural;
  structural.congestion = false;
  const auto report =
      evaluate_loss(f.topo, f.tm, routing, nullptr, structural);
  EXPECT_DOUBLE_EQ(report.loss[0], 0.0);
  EXPECT_DOUBLE_EQ(report.loss[1], 0.0);
  // Utilization still reports the true offered load for diagnostics.
  EXPECT_GT(report.utilization[f.topo.find_link(0, 1)], 1.0);

  // Structural failures still count: a 60%-weight partial install loses
  // its missing share even without congestion scoring.
  InstalledRouting partial;
  te::WeightedPath part = wp;
  part.weight = 0.6;
  partial.rows.push_back({part});
  partial.rows.push_back({});
  const auto sp = evaluate_loss(f.topo, f.tm, partial, nullptr, structural);
  EXPECT_NEAR(sp.loss[0], 0.4, 1e-9);
  EXPECT_DOUBLE_EQ(sp.loss[1], 1.0);  // nothing installed at all
}

TEST(FlowEval, BlastRadiusCountsViolatingGroups) {
  EvalFixture f;
  const auto groups =
      traffic::group_flows_of_class(f.topo, f.tm, PriorityClass::kHigh);
  ASSERT_EQ(groups.size(), 1u);
  LossReport clean;
  clean.loss = {0.0};
  EXPECT_DOUBLE_EQ(blast_radius(f.tm, groups, clean), 0.0);
  LossReport dirty;
  dirty.loss = {0.5};
  EXPECT_DOUBLE_EQ(blast_radius(f.tm, groups, dirty), 1.0);
}

TEST(FlowEval, LatencyInflationDetectsDetour) {
  EvalFixture f;
  const auto direct = f.route_via({f.topo.find_link(0, 1)});
  const auto detour =
      f.route_via({f.topo.find_link(0, 2), f.topo.find_link(2, 1)});
  const double inflation =
      median_latency_inflation(f.topo, f.tm, direct, detour, nullptr);
  EXPECT_NEAR(inflation, 2.0, 1e-9);  // 2 hops of 1ms vs 1 hop
}

// ---- convergence measurement ----

TEST(Convergence, NsuArrivalMonotoneInDistance) {
  const auto topo = topo::make_line(6);
  util::Rng rng(4);
  const auto arrival = nsu_arrival_times(topo, 0, rng);
  EXPECT_DOUBLE_EQ(arrival[0], 0.0);
  for (std::size_t i = 1; i < arrival.size(); ++i) {
    EXPECT_GT(arrival[i], arrival[i - 1]);
  }
}

TEST(Convergence, NsuArrivalInfiniteWhenUnreachable) {
  auto topo = topo::make_line(3);
  topo.set_duplex_up(topo.find_link(1, 2), false);
  util::Rng rng(4);
  const auto arrival = nsu_arrival_times(topo, 0, rng);
  EXPECT_FALSE(std::isfinite(arrival[2]));
}

TEST(Convergence, PickFailureFibersPreserveConnectivity) {
  const auto topo = topo::make_geant();
  const auto fibers = pick_failure_fibers(topo, 10, 1);
  ASSERT_EQ(fibers.size(), 10u);
  auto scratch = topo;
  for (topo::LinkId f : fibers) {
    scratch.set_duplex_up(f, false);
    EXPECT_TRUE(topo::is_strongly_connected(scratch));
    scratch.set_duplex_up(f, true);
  }
}

TEST(Convergence, DsdnComponentsHaveExpectedShape) {
  const auto topo = topo::make_geant();
  DsdnConvergenceConfig cfg;
  cfg.n_events = 20;
  const auto d = measure_dsdn_convergence(topo, cfg);
  EXPECT_GT(d.tprop.size(), 100u);
  EXPECT_GT(d.total.size(), 10u);
  // Local programming is milliseconds-scale.
  EXPECT_LT(d.tprog.median(), 0.5);
  // Total >= any component median.
  EXPECT_GT(d.total.median(), d.tcomp.median());
}

TEST(Convergence, CsdnSlowerThanDsdnOnSameNetwork) {
  // The headline §5.1.1 result must hold on our synthetic stand-ins.
  const auto topo = topo::make_geant();
  traffic::GravityParams gp;
  gp.pair_fraction = 0.5;
  const auto tm = traffic::generate_gravity(topo, gp);

  DsdnConvergenceConfig dcfg;
  dcfg.n_events = 15;
  const auto dsdn = measure_dsdn_convergence(topo, dcfg);

  CsdnConvergenceConfig ccfg;
  ccfg.n_events = 15;
  const auto csdn = measure_csdn_convergence(topo, tm, ccfg);

  EXPECT_GT(csdn.tprop.median() / dsdn.tprop.median(), 3.0);
  EXPECT_GT(csdn.tprog.median() / dsdn.tprog.median(), 10.0);
  EXPECT_GT(csdn.total.median() / dsdn.total.median(), 5.0);
}

TEST(Convergence, IncrementalTcompTimesEachFiberAndDiffChecksWarmSolves) {
  // One scratch and one warm timing per failed fiber, and every warm
  // solution within te::DiffChecker's bounds of that fiber's scratch
  // solve (the count Fig 8/9 publish and gate on).
  const auto topo = topo::make_abilene();
  const auto tm = traffic::generate_gravity(topo);
  IncrementalTcompConfig cfg;
  cfg.n_events = 4;
  const auto r = measure_incremental_tcomp(topo, tm, cfg);
  EXPECT_EQ(r.full_s.size(), cfg.n_events);
  EXPECT_EQ(r.incremental_s.size(), cfg.n_events);
  EXPECT_EQ(r.reuse_fraction.size(), cfg.n_events);
  EXPECT_EQ(r.checker_violations, 0u);
}

// Golden digests of the statistical flood model, one per (topology,
// flood loss) with loss in {0, 5%, 20%}. They pin the retry backoff
// expression and its one uniform draw per retry bit for bit, and the
// earliest-arrival Dijkstra's relaxation order.
TEST(ConvergenceGolden, NsuArrivalTimesEveryOrigin) {
  constexpr std::array<std::array<std::uint64_t, 3>, 2> kGolden = {{
      {0xf4b6d87ac7065f8dULL, 0x27de916c13b61ca9ULL, 0xb4398f65986b0b2cULL},
      {0xe6b9e7d39b09b37dULL, 0xd965a07db36b880cULL, 0x37039faa376534bdULL},
  }};
  const std::array<topo::Topology, 2> topos = {topo::make_abilene(),
                                               topo::make_geant()};
  for (std::size_t t = 0; t < topos.size(); ++t) {
    std::size_t col = 0;
    for (double loss : {0.0, 0.05, 0.20}) {
      util::Rng rng(42);
      golden::Fnv f;
      for (topo::NodeId o = 0; o < topos[t].num_nodes(); ++o) {
        for (double a : nsu_arrival_times(topos[t], o, rng, loss)) f.add(a);
      }
      EXPECT_EQ(f.h, kGolden[t][col++])
          << "topology " << t << " loss " << loss << ": 0x" << std::hex
          << f.h;
    }
  }
}

// Digest of every component sample of a convergence run.
std::uint64_t component_digest(const ComponentDistributions& d) {
  golden::Fnv f;
  for (const metrics::EmpiricalDistribution* dist :
       {&d.tprop, &d.tcomp, &d.tprog, &d.total}) {
    f.add(static_cast<std::uint64_t>(dist->size()));
    for (double s : dist->samples()) f.add(s);
  }
  return f.h;
}

TEST(ConvergenceGolden, DsdnComponentsUnderProgrammingRetries) {
  // Failed local installs pay timeout + jittered backoff per retry.
  DsdnConvergenceConfig cfg;
  cfg.n_events = 40;
  cfg.flood_loss_prob = 0.05;
  cfg.prog_fail_prob = 0.2;
  const std::uint64_t h =
      component_digest(measure_dsdn_convergence(topo::make_geant(), cfg));
  EXPECT_EQ(h, 0xa3f2a719f6f955f0ULL) << "0x" << std::hex << h;
}

TEST(ConvergenceGolden, DsdnComponentsUnderFloodLoss) {
  constexpr std::array<std::array<std::uint64_t, 3>, 2> kGolden = {{
      {0x0a72f817715ae3baULL, 0xb7b1356c70ef64dbULL, 0x942c927698205ad5ULL},
      {0x5014011825033c9aULL, 0xbf8034f39f7343a5ULL, 0xaf4fdafb2a521f92ULL},
  }};
  const std::array<topo::Topology, 2> topos = {topo::make_abilene(),
                                               topo::make_geant()};
  for (std::size_t t = 0; t < topos.size(); ++t) {
    std::size_t col = 0;
    for (double loss : {0.0, 0.05, 0.20}) {
      DsdnConvergenceConfig cfg;
      cfg.n_events = 40;
      cfg.flood_loss_prob = loss;
      const std::uint64_t h =
          component_digest(measure_dsdn_convergence(topos[t], cfg));
      EXPECT_EQ(h, kGolden[t][col++])
          << "topology " << t << " loss " << loss << ": 0x" << std::hex << h;
    }
  }
}

// cSDN's convergence components on gravity traffic: the CPN Tprop and
// central Tcomp samplers, the per-router programming model and its
// two-phase gating, over the real solver's changed-demand sets.
TEST(ConvergenceGolden, CsdnComponentsOnAbileneAndGeant) {
  constexpr std::array<std::uint64_t, 2> kGolden = {0x3d1fbd089f0ede77ULL,
                                                    0xc85532d304020d97ULL};
  const std::array<topo::Topology, 2> topos = {topo::make_abilene(),
                                               topo::make_geant()};
  for (std::size_t t = 0; t < topos.size(); ++t) {
    CsdnConvergenceConfig cfg;
    cfg.n_events = 20;
    const std::uint64_t h = component_digest(measure_csdn_convergence(
        topos[t], traffic::generate_gravity(topos[t]), cfg));
    EXPECT_EQ(h, kGolden[t]) << "topology " << t << ": 0x" << std::hex << h;
  }
}

// ---- transient impact ----

struct TransientFixture {
  topo::Topology topo = topo::make_geant();
  traffic::TrafficMatrix tm;

  TransientFixture() {
    traffic::GravityParams gp;
    gp.pair_fraction = 0.4;
    gp.target_max_utilization = 0.6;
    tm = traffic::generate_gravity(topo, gp);
  }

  TransientConfig config(Scheme scheme) const {
    TransientConfig c;
    c.scheme = scheme;
    c.failures.days = 40;
    c.failures.mttf_days = 60;
    c.failures.seed = 5;
    c.seed = 6;
    return c;
  }
};

// The memo key is the link state a solve reads, compared exactly: a
// view with the same down links as a cached one but a loaded fiber at
// half capacity gets its own solve, not the cached solution.
TEST(SolutionProvider, CapacityChangeIsADifferentState) {
  const topo::Topology geant = topo::make_geant();
  traffic::GravityParams gp;
  gp.pair_fraction = 0.4;
  gp.target_max_utilization = 1.2;  // TE fills its bottlenecks
  const traffic::TrafficMatrix tm = traffic::generate_gravity(geant, gp);
  SolutionProvider provider(&tm);
  topo::Topology cut = geant;
  cut.set_duplex_up(geant.links()[0].id, false);
  const te::Solution& before = provider.get(cut);

  // The most loaded up link under that solution.
  const std::vector<double> residual = before.residual_capacity(cut);
  topo::LinkId loaded = topo::kInvalidLink;
  double load = 0.0;
  for (const topo::Link& l : cut.links()) {
    if (l.up && l.capacity_gbps - residual[l.id] > load) {
      load = l.capacity_gbps - residual[l.id];
      loaded = l.id;
    }
  }
  ASSERT_NE(loaded, topo::kInvalidLink);
  const double halved_gbps = cut.link(loaded).capacity_gbps / 2;
  ASSERT_GT(load, halved_gbps);  // the cached placement cannot fit

  topo::Topology halved = cut;
  halved.set_duplex_capacity(loaded, halved_gbps);
  const te::Solution& after = provider.get(halved);
  EXPECT_EQ(provider.solves(), 2u);
  EXPECT_EQ(provider.hits(), 0u);
  EXPECT_EQ(after.residual_capacity(halved),
            te::Solver().solve(halved, tm).residual_capacity(halved));
  EXPECT_NE(after.residual_capacity(halved), residual);

  provider.get(cut);  // the first state is still cached
  EXPECT_EQ(provider.hits(), 1u);
}

TEST(Transient, OmniscientLowerBoundsBothSchemes) {
  TransientFixture f;
  SolutionProvider provider(&f.tm);
  auto run = [&](Scheme s) {
    TransientSimulator sim(f.topo, f.tm, f.config(s), &provider);
    return sim.run();
  };
  const auto omni = run(Scheme::kOmniscient);
  const auto csdn = run(Scheme::kCsdn);
  const auto dsdn = run(Scheme::kDsdn);

  for (int c = 0; c < metrics::kNumPriorityClasses; ++c) {
    const auto cls = static_cast<PriorityClass>(c);
    const double o = omni.bad_seconds_distribution(cls).mean();
    const double cs = csdn.bad_seconds_distribution(cls).mean();
    const double ds = dsdn.bad_seconds_distribution(cls).mean();
    EXPECT_LE(o, cs + 1e-9) << "class " << c;
    EXPECT_LE(o, ds + 1e-9) << "class " << c;
  }
  // And the paper's central claim: dSDN beats cSDN.
  const double cs_low =
      csdn.bad_seconds_distribution(PriorityClass::kLow).mean();
  const double ds_low =
      dsdn.bad_seconds_distribution(PriorityClass::kLow).mean();
  EXPECT_LT(ds_low, cs_low);
  EXPECT_GT(provider.hits(), 0u);  // cache shared across schemes
}

TEST(Transient, LowerClassesSufferMore) {
  TransientFixture f;
  SolutionProvider provider(&f.tm);
  TransientSimulator sim(f.topo, f.tm, f.config(Scheme::kCsdn), &provider);
  const auto r = sim.run();
  const double high =
      r.bad_seconds_distribution(PriorityClass::kHigh).mean();
  const double low = r.bad_seconds_distribution(PriorityClass::kLow).mean();
  EXPECT_LE(high, low + 1e-9);
}

TEST(Transient, TimelineRecordsSelectedEvent) {
  TransientFixture f;
  auto cfg = f.config(Scheme::kDsdn);
  cfg.timeline_event = 0;
  TransientSimulator sim(f.topo, f.tm, cfg);
  const auto r = sim.run();
  ASSERT_FALSE(r.events.empty());
  EXPECT_FALSE(r.timeline.empty());
  for (const auto& s : r.timeline) {
    EXPECT_GE(s.time, 0.0);
    EXPECT_GE(s.blast_radius, 0.0);
    EXPECT_LE(s.blast_radius, 1.0);
  }
}

TEST(Transient, DeterministicUnderSeed) {
  TransientFixture f;
  TransientSimulator a(f.topo, f.tm, f.config(Scheme::kDsdn));
  TransientSimulator b(f.topo, f.tm, f.config(Scheme::kDsdn));
  const auto ra = a.run();
  const auto rb = b.run();
  ASSERT_EQ(ra.events.size(), rb.events.size());
  for (std::size_t i = 0; i < ra.events.size(); ++i) {
    for (int c = 0; c < metrics::kNumPriorityClasses; ++c) {
      EXPECT_DOUBLE_EQ(ra.events[i].bad_seconds[c],
                       rb.events[i].bad_seconds[c]);
    }
  }
}

TEST(Transient, BypassesReduceImpact) {
  TransientFixture f;
  SolutionProvider provider(&f.tm);
  auto cfg_plain = f.config(Scheme::kCsdn);
  auto cfg_bypass = cfg_plain;
  cfg_bypass.use_bypasses = true;
  TransientSimulator plain(f.topo, f.tm, cfg_plain, &provider);
  TransientSimulator byp(f.topo, f.tm, cfg_bypass, &provider);
  const double loss_plain =
      plain.run().bad_seconds_distribution(PriorityClass::kLow).mean();
  const double loss_byp =
      byp.run().bad_seconds_distribution(PriorityClass::kLow).mean();
  EXPECT_LE(loss_byp, loss_plain + 1e-9);
}

// Digest of every event impact and timeline sample of a transient run.
std::uint64_t transient_digest(const TransientResult& r) {
  golden::Fnv f;
  f.add(static_cast<std::uint64_t>(r.events.size()));
  for (const EventImpact& e : r.events) {
    f.add(e.time_s);
    f.add(static_cast<std::uint64_t>(e.was_failure));
    for (double b : e.bad_seconds) f.add(b);
    f.add(e.convergence_span_s);
  }
  f.add(static_cast<std::uint64_t>(r.timeline.size()));
  for (const metrics::BlastSample& s : r.timeline) {
    f.add(s.time);
    f.add(s.blast_radius);
  }
  return f.h;
}

// Every scheme with bypasses off and on: pins the failure stream, the
// cSDN and dSDN switch schedules and the bypass plans they fall back on.
TEST(TransientGolden, EverySchemeWithAndWithoutBypasses) {
  // Rows: omniscient, cSDN, dSDN; columns: bypasses off, on.
  constexpr std::array<std::array<std::uint64_t, 2>, 3> kGolden = {{
      {0x19f3e23a1bbdcdedULL, 0x19f3e23a1bbdcdedULL},
      {0xcf74ed10c237d7a4ULL, 0x95468ed54c9fd867ULL},
      {0x784673340c95efd1ULL, 0x01339ee61bc68098ULL},
  }};
  TransientFixture f;
  SolutionProvider provider(&f.tm);
  std::size_t row = 0;
  for (Scheme s : {Scheme::kOmniscient, Scheme::kCsdn, Scheme::kDsdn}) {
    std::size_t col = 0;
    for (bool bypasses : {false, true}) {
      TransientConfig cfg = f.config(s);
      cfg.use_bypasses = bypasses;
      cfg.timeline_event = 1;
      const std::uint64_t h = transient_digest(
          TransientSimulator(f.topo, f.tm, cfg, &provider).run());
      EXPECT_EQ(h, kGolden[row][col++])
          << scheme_name(s) << " bypasses " << bypasses << ": 0x" << std::hex
          << h;
    }
    ++row;
  }
}

}  // namespace
}  // namespace dsdn::sim
