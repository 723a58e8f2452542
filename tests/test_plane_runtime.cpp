#include <gtest/gtest.h>

#include "hier/plane_runtime.hpp"
#include "hier/scenario.hpp"
#include "solver_golden.hpp"
#include "topo/zoo.hpp"
#include "traffic/gravity.hpp"

namespace dsdn::hier {
namespace {

class PlaneRuntimeTest : public ::testing::Test {
 protected:
  PlaneRuntimeTest() : base_(topo::make_abilene()) {
    traffic::GravityParams gp;
    gp.pair_fraction = 0.6;
    gp.seed = 0xF10;
    tm_ = traffic::generate_gravity(base_, gp).aggregated();
    PlaneRuntimeConfig config;
    config.planes = 3;
    config.score_packets = 128;
    runtime_ = std::make_unique<PlaneRuntime>(base_, tm_, config);
    runtime_->bootstrap();
  }

  topo::Topology base_;
  traffic::TrafficMatrix tm_;
  std::unique_ptr<PlaneRuntime> runtime_;
};

TEST_F(PlaneRuntimeTest, BootstrapPlacesEveryFlowWhereHrwSays) {
  // The demand split is a partition consistent with the packet-side
  // hash, and it spreads flows across every plane.
  EXPECT_TRUE(runtime_->all_planes_converged());
  EXPECT_EQ(runtime_->total_flows(), tm_.size());
  EXPECT_NEAR(runtime_->total_rate_gbps(), tm_.total_rate_gbps(), 1e-9);
  for (std::size_t p = 0; p < runtime_->num_planes(); ++p) {
    for (const auto& d : runtime_->plane_demands(p)) {
      EXPECT_EQ(runtime_->plane_of(d.src, d.dst, d.priority), p);
    }
    EXPECT_GT(runtime_->plane_demands(p).size(), tm_.size() / 16) << p;
  }
}

TEST_F(PlaneRuntimeTest, SendPacketUsesTheSnapshotOfTheFlowsPlane) {
  for (const auto& d : tm_.demands()) {
    const auto r = runtime_->send_packet(d.src, d.dst, d.priority);
    EXPECT_EQ(r.outcome, dataplane::ForwardOutcome::kDelivered)
        << d.src << "->" << d.dst;
  }
}

TEST_F(PlaneRuntimeTest, FailPlaneRebalancesOntoSurvivorsAndRestores) {
  const std::size_t flows_before = runtime_->total_flows();
  const double rate_before = runtime_->total_rate_gbps();
  const std::size_t victim_flows = runtime_->plane_demands(1).size();

  const auto report = runtime_->fail_plane(1);
  EXPECT_EQ(report.moved_flows, victim_flows);
  EXPECT_LT(report.exposed_fraction, 1.0 / 3.0 + 0.12);
  EXPECT_EQ(report.score_hard_drops, 0u);
  EXPECT_GT(report.scored_packets, 0u);
  EXPECT_FALSE(runtime_->plane_alive(1));
  EXPECT_EQ(runtime_->num_alive(), 2u);
  // Conservation: nothing lost in the drain -> re-place -> reprogram.
  EXPECT_EQ(runtime_->total_flows(), flows_before);
  EXPECT_NEAR(runtime_->total_rate_gbps(), rate_before, 1e-9);
  EXPECT_TRUE(runtime_->plane_demands(1).empty());
  // Survivors carry everything and still deliver.
  for (const auto& d : tm_.demands()) {
    const auto r = runtime_->send_packet(d.src, d.dst, d.priority);
    EXPECT_EQ(r.outcome, dataplane::ForwardOutcome::kDelivered);
  }

  const auto back = runtime_->restore_plane(1);
  EXPECT_EQ(back.moved_flows, victim_flows);
  EXPECT_TRUE(runtime_->plane_alive(1));
  EXPECT_EQ(runtime_->total_flows(), flows_before);
  // Exactly the original placement is restored (HRW stability).
  EXPECT_EQ(runtime_->plane_demands(1).size(), victim_flows);
  for (std::size_t p = 0; p < runtime_->num_planes(); ++p) {
    for (const auto& d : runtime_->plane_demands(p)) {
      EXPECT_EQ(runtime_->plane_of(d.src, d.dst, d.priority), p);
    }
  }
  EXPECT_THROW(runtime_->restore_plane(1), std::invalid_argument);
}

TEST_F(PlaneRuntimeTest, LastLivePlaneCannotFail) {
  runtime_->fail_plane(0);
  runtime_->fail_plane(1);
  EXPECT_THROW(runtime_->fail_plane(2), std::invalid_argument);
}

TEST_F(PlaneRuntimeTest, ConduitCutHitsEveryPlaneButPlaneCutOnlyOne) {
  // A plane-local cut leaves the other planes bit-identical: no NSUs, no
  // recomputation. The cut plane reconverges around it, so every flow
  // still delivers.
  const topo::LinkId fiber = base_.find_link(0, base_.up_neighbors(0)[0]);
  const auto msgs1 = runtime_->plane(1).messages_delivered();
  const auto msgs2 = runtime_->plane(2).messages_delivered();
  const auto digest1 = runtime_->plane(1).controller(0).state().digest();
  runtime_->fail_fiber_in_plane(0, fiber);
  EXPECT_FALSE(runtime_->plane(0).network().link(fiber).up);
  EXPECT_TRUE(runtime_->plane(1).network().link(fiber).up);
  EXPECT_EQ(runtime_->plane(1).messages_delivered(), msgs1);
  EXPECT_EQ(runtime_->plane(2).messages_delivered(), msgs2);
  EXPECT_EQ(runtime_->plane(1).controller(0).state().digest(), digest1);
  EXPECT_TRUE(runtime_->all_planes_converged());
  for (const auto& d : tm_.demands()) {
    EXPECT_EQ(runtime_->send_packet(d.src, d.dst, d.priority).outcome,
              dataplane::ForwardOutcome::kDelivered)
        << d.src << "->" << d.dst;
  }
  runtime_->repair_fiber_in_plane(0, fiber);

  runtime_->fail_conduit(fiber);
  for (std::size_t p = 0; p < 3; ++p) {
    EXPECT_FALSE(runtime_->plane(p).network().link(fiber).up) << p;
  }
  runtime_->repair_conduit(fiber);
  EXPECT_TRUE(runtime_->all_planes_converged());
}

TEST_F(PlaneRuntimeTest, ControllerCrashContainedToOnePlane) {
  const auto digest2 = runtime_->plane(2).controller(0).state().digest();
  runtime_->plane(0).crash_and_recover(4);
  EXPECT_TRUE(runtime_->all_planes_converged());
  EXPECT_EQ(runtime_->plane(2).controller(0).state().digest(), digest2);
}

TEST(PlaneScenario, SeededRunsReplayBitIdentically) {
  const auto base = topo::make_abilene();
  traffic::GravityParams gp;
  gp.pair_fraction = 0.5;
  gp.seed = 0xABE;
  const auto tm = traffic::generate_gravity(base, gp).aggregated();
  PlaneScenarioOptions options;
  options.planes = 3;
  options.n_events = 6;
  options.score_packets = 64;
  const auto a = run_plane_scenario(base, tm, options, 7);
  const auto b = run_plane_scenario(base, tm, options, 7);
  for (const auto& v : a.violations) ADD_FAILURE() << v;
  EXPECT_TRUE(a.ok());
  EXPECT_EQ(a.fingerprint(), b.fingerprint());
  EXPECT_GT(a.events_applied, 0u);
  EXPECT_GT(a.invariant_checks, 0u);
}

TEST(PlaneScenario, SmallSwarmIsClean) {
  const auto base = topo::make_abilene();
  traffic::GravityParams gp;
  gp.pair_fraction = 0.5;
  gp.seed = 0xABE;
  const auto tm = traffic::generate_gravity(base, gp).aggregated();
  PlaneScenarioOptions options;
  options.planes = 3;
  options.n_events = 5;
  options.score_packets = 64;
  // Parity (cold re-solve per plane per event) off to keep CI fast; the
  // tier-1 swarm leg runs with it on.
  options.invariants.check_solution_parity = false;
  const auto failure = run_plane_swarm(base, tm, options, 1, 4);
  if (failure) {
    for (const auto& v : failure->result.violations) {
      ADD_FAILURE() << "seed " << failure->seed << ": " << v;
    }
  }
  EXPECT_FALSE(failure.has_value());
}

// Fingerprints of seeded plane scenarios: the event draw weights, the
// rebalances and their exposure, the checks run.
TEST(PlaneScenarioGolden, FingerprintsOverSeeds) {
  constexpr std::array<std::uint64_t, 3> kGolden = {
      0xd52cdf74a5b64251ULL, 0x4d767b9b997db6b1ULL, 0x2a07edb5d85cca7bULL};
  const auto base = topo::make_abilene();
  traffic::GravityParams gp;
  gp.pair_fraction = 0.5;
  gp.seed = 0xABE;
  const auto tm = traffic::generate_gravity(base, gp).aggregated();
  PlaneScenarioOptions options;
  options.planes = 3;
  options.n_events = 8;
  options.score_packets = 64;
  options.invariants.check_solution_parity = false;
  std::size_t i = 0;
  for (std::uint64_t seed : {3ull, 11ull, 29ull}) {
    const PlaneScenarioResult r = run_plane_scenario(base, tm, options, seed);
    for (const auto& v : r.violations) ADD_FAILURE() << v;
    EXPECT_EQ(r.fingerprint(), kGolden[i++])
        << "seed " << seed << ": 0x" << std::hex << r.fingerprint();
  }
}

}  // namespace
}  // namespace dsdn::hier
