#pragma once

// Transient-impact simulator (§5.2): replays a failure/repair event
// stream against cSDN, dSDN, or an omniscient instantly-converging
// baseline, tracking each demand's *installed* (possibly stale) routing
// over time, evaluating flow loss piecewise-constantly between routing
// changes, and integrating per-class blast radius into bad seconds.
//
// Scheme timing:
//   kOmniscient -- new paths install at the instant of the event; any
//                  residual loss is pure capacity shortfall.
//   kCsdn       -- event -> Tprop (CPN) -> central Tcomp -> per-demand
//                  two-phase programming switch times.
//   kDsdn       -- NSUs flood hop-by-hop; each headend switches its own
//                  demands at Tprop(i) + Tcomp(i) + Tprog(i).
//
// Under churn (Fig 11) events overlap; bad seconds accrued in an
// interval are attributed to the most recent failure/repair event.

#include <memory>
#include <unordered_map>
#include <utility>
#include <vector>

#include "csdn/controller.hpp"
#include "dataplane/frr.hpp"
#include "sim/convergence.hpp"
#include "sim/failure.hpp"
#include "sim/flow_eval.hpp"
#include "te/solver.hpp"

namespace dsdn::sim {

enum class Scheme { kOmniscient, kCsdn, kDsdn };

const char* scheme_name(Scheme s);

// Memoizes full-network TE solutions keyed by the link state a solve
// reads -- each link's up flag and capacity, compared exactly (a hash
// only picks the bucket): failure/repair cycles revisit the same states
// constantly, and all schemes share one provider within an experiment.
class SolutionProvider {
 public:
  explicit SolutionProvider(const traffic::TrafficMatrix* tm) : tm_(tm) {}

  const te::Solution& get(const topo::Topology& state);

  std::size_t solves() const { return solves_; }
  std::size_t hits() const { return hits_; }

 private:
  using LinkState = std::vector<std::pair<bool, double>>;
  struct LinkStateHash {
    std::size_t operator()(const LinkState& state) const;
  };

  const traffic::TrafficMatrix* tm_;
  te::Solver solver_;
  std::unordered_map<LinkState, te::Solution, LinkStateHash> cache_;
  std::size_t solves_ = 0;
  std::size_t hits_ = 0;
};

struct TransientConfig {
  Scheme scheme = Scheme::kDsdn;
  FailureParams failures;
  // Flood loss injected on every dSDN NSU hop (0 = off); lost transfers
  // pay bounded retransmit backoff (Fig 10 under lossy flood).
  double flood_loss_prob = 0.0;
  // Pre-installed bypass paths (Appendix D), recomputed per topology
  // state when enabled: k-capacity-aware, the strategy Fig 20 evaluates.
  bool use_bypasses = false;
  static constexpr dataplane::BypassStrategy bypass_strategy =
      dataplane::BypassStrategy::kKCapacityAware;
  // Switch-time quantization: at most this many loss evaluations per
  // event (keeps 1000-day streams tractable; conservative rounding).
  std::size_t max_eval_points_per_event = 16;
  // Event whose per-interval blast radius should be recorded as a
  // timeline (Fig 12); SIZE_MAX disables.
  std::size_t timeline_event = SIZE_MAX;
  std::uint64_t seed = 33;
};

struct EventImpact {
  double time_s = 0.0;
  bool was_failure = false;
  double bad_seconds[metrics::kNumPriorityClasses] = {};
  double convergence_span_s = 0.0;
};

struct TransientResult {
  std::vector<EventImpact> events;
  // Per-interval blast radius (lowest class) around config.timeline_event.
  std::vector<metrics::BlastSample> timeline;

  metrics::EmpiricalDistribution bad_seconds_distribution(
      metrics::PriorityClass c, bool failures_only = true) const;
};

class TransientSimulator {
 public:
  // `provider` may be shared across simulators (schemes/configs) over the
  // same topology+matrix; pass nullptr to use a private one.
  TransientSimulator(const topo::Topology& topo,
                     const traffic::TrafficMatrix& tm, TransientConfig config,
                     SolutionProvider* provider = nullptr);

  TransientResult run();

 private:
  struct PendingSwitch {
    double time;
    std::size_t demand;
    const te::Allocation* target;
  };

  // Switch times of the changed demands under kOmniscient and kCsdn;
  // run() schedules dSDN's per-headend switches from its flood origins.
  std::vector<PendingSwitch> schedule_switches(
      double t0, const te::Solution& target,
      const std::vector<char>& changed);

  const topo::Topology& topo_;
  const traffic::TrafficMatrix& tm_;
  TransientConfig config_;
  SolutionProvider own_provider_;
  SolutionProvider* provider_;
  std::unique_ptr<csdn::CsdnController> csdn_;
  topo::Topology scratch_;
  util::Rng rng_;
};

}  // namespace dsdn::sim
