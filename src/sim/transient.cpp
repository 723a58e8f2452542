#include "sim/transient.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <limits>
#include <map>
#include <queue>

#include "obs/trace.hpp"

namespace dsdn::sim {

const char* scheme_name(Scheme s) {
  switch (s) {
    case Scheme::kOmniscient: return "Omniscient";
    case Scheme::kCsdn: return "cSDN";
    case Scheme::kDsdn: return "dSDN";
  }
  return "?";
}

std::size_t SolutionProvider::LinkStateHash::operator()(
    const LinkState& state) const {
  std::uint64_t h = 0x9E3779B97F4A7C15ULL;
  for (const auto& [up, capacity_gbps] : state) {
    h = util::splitmix64(h ^ std::bit_cast<std::uint64_t>(capacity_gbps) ^
                         static_cast<std::uint64_t>(up));
  }
  return static_cast<std::size_t>(h);
}

const te::Solution& SolutionProvider::get(const topo::Topology& state) {
  LinkState key;
  key.reserve(state.num_links());
  for (const topo::Link& l : state.links())
    key.emplace_back(l.up, l.capacity_gbps);
  const auto it = cache_.find(key);
  if (it != cache_.end()) {
    ++hits_;
    return it->second;
  }
  ++solves_;
  return cache_.emplace(std::move(key), solver_.solve(state, *tm_))
      .first->second;
}

metrics::EmpiricalDistribution TransientResult::bad_seconds_distribution(
    metrics::PriorityClass c, bool failures_only) const {
  metrics::EmpiricalDistribution d;
  for (const EventImpact& e : events) {
    if (failures_only && !e.was_failure) continue;
    d.add(e.bad_seconds[static_cast<int>(c)]);
  }
  return d;
}

TransientSimulator::TransientSimulator(const topo::Topology& topo,
                                       const traffic::TrafficMatrix& tm,
                                       TransientConfig config,
                                       SolutionProvider* provider)
    : topo_(topo),
      tm_(tm),
      config_(config),
      own_provider_(&tm_),
      provider_(provider ? provider : &own_provider_),
      scratch_(topo),
      rng_(config.seed) {
  if (config_.scheme == Scheme::kCsdn) {
    csdn_ = std::make_unique<csdn::CsdnController>(
        &scratch_, util::splitmix64(config_.seed ^ 0xC5D0));
  }
}

std::vector<TransientSimulator::PendingSwitch>
TransientSimulator::schedule_switches(double t0, const te::Solution& target,
                                      const std::vector<char>& changed) {
  std::vector<PendingSwitch> out;
  if (config_.scheme == Scheme::kCsdn) {
    const auto timing = csdn_->time_reconvergence(t0, target, changed);
    for (const auto& [demand, when] : timing.demand_switch) {
      out.push_back(PendingSwitch{when, demand, &target.allocations[demand]});
    }
    return out;
  }
  // Omniscient: every changed demand switches at the event instant.
  for (std::size_t i = 0; i < target.allocations.size(); ++i) {
    if (!changed[i]) continue;
    out.push_back(PendingSwitch{t0, i, &target.allocations[i]});
  }
  return out;
}

TransientResult TransientSimulator::run() {
  DSDN_TRACE_SPAN("sim.transient_run");
  TransientResult result;
  const auto events = generate_failures(topo_, config_.failures);

  // Flow groups per class, fixed for the whole run.
  std::vector<std::vector<traffic::FlowGroup>> groups;
  groups.reserve(metrics::kNumPriorityClasses);
  for (int c = 0; c < metrics::kNumPriorityClasses; ++c) {
    groups.push_back(traffic::group_flows_of_class(
        topo_, tm_, static_cast<metrics::PriorityClass>(c)));
  }

  // Installed routing starts from the healthy-state solution.
  InstalledRouting installed =
      InstalledRouting::from_solution(provider_->get(scratch_));

  // Bypass plans per set of down links (computed lazily; capacities never
  // change here), plus the spare capacity under the target placement,
  // which capacity-aware bypass selection reads (what NSU utilization
  // reporting gives a router).
  std::map<std::vector<topo::LinkId>, dataplane::BypassPlan> bypass_cache;
  const dataplane::BypassPlan* live_bypasses = nullptr;
  std::vector<double> live_residual;
  auto refresh_bypasses = [&](const te::Solution& target) {
    if (!config_.use_bypasses) return;
    live_residual = target.residual_capacity(scratch_);
    // Only down links ever exercise their bypass; computing just those
    // keeps 1,000-day streams tractable.
    std::vector<topo::LinkId> down;
    for (const topo::Link& l : scratch_.links()) {
      if (!l.up) down.push_back(l.id);
    }
    auto it = bypass_cache.find(down);
    if (it == bypass_cache.end()) {
      dataplane::BypassPlan plan = dataplane::BypassPlan::compute_for_links(
          scratch_, TransientConfig::bypass_strategy, down, live_residual);
      it = bypass_cache.emplace(std::move(down), std::move(plan)).first;
    }
    live_bypasses = &it->second;
  };
  refresh_bypasses(provider_->get(scratch_));

  // Per-demand switch epoch: a newer event's schedule supersedes stale
  // pending switches for the same demand.
  std::vector<std::uint64_t> epoch(tm_.size(), 0);
  struct Queued {
    double time;
    std::size_t demand;
    const te::Allocation* target;
    std::uint64_t epoch;
    bool operator>(const Queued& o) const { return time > o.time; }
  };
  std::priority_queue<Queued, std::vector<Queued>, std::greater<>> pending;

  double now = 0.0;
  std::array<double, metrics::kNumPriorityClasses> blast{};
  auto evaluate_blast = [&]() {
    LossOptions opts;
    if (config_.use_bypasses && !live_residual.empty()) {
      opts.bypass_residual = &live_residual;
    }
    const LossReport report =
        evaluate_loss(scratch_, tm_, installed, live_bypasses, opts);
    for (int c = 0; c < metrics::kNumPriorityClasses; ++c) {
      blast[static_cast<std::size_t>(c)] =
          blast_radius(tm_, groups[static_cast<std::size_t>(c)], report);
    }
  };
  evaluate_blast();

  auto integrate_to = [&](double t) {
    if (result.events.empty() || t <= now) {
      now = std::max(now, t);
      return;
    }
    EventImpact& attr = result.events.back();
    for (int c = 0; c < metrics::kNumPriorityClasses; ++c) {
      attr.bad_seconds[c] += (t - now) * blast[static_cast<std::size_t>(c)];
    }
    if (result.events.size() - 1 == config_.timeline_event) {
      result.timeline.push_back(metrics::BlastSample{
          now - attr.time_s,
          blast[static_cast<std::size_t>(metrics::kNumPriorityClasses - 1)]});
    }
    now = t;
  };

  auto drain_until = [&](double horizon) {
    while (!pending.empty() && pending.top().time <= horizon) {
      const double t = pending.top().time;
      integrate_to(t);
      bool switched = false;
      while (!pending.empty() && pending.top().time == t) {
        const Queued q = pending.top();
        pending.pop();
        if (q.epoch == epoch[q.demand]) {
          installed.rows[q.demand] = q.target->paths;
          switched = true;
        }
      }
      if (switched) evaluate_blast();
    }
    integrate_to(horizon);
  };

  for (const NetEvent& e : events) {
    drain_until(e.time_s);

    // Apply the event.
    scratch_.set_duplex_up(e.fiber, e.up);
    const te::Solution& target = provider_->get(scratch_);
    refresh_bypasses(target);

    // Which demands need to move?
    std::vector<char> changed(tm_.size(), 0);
    for (std::size_t i = 0; i < target.allocations.size(); ++i) {
      if (installed.rows[i] != target.allocations[i].paths) changed[i] = 1;
    }

    EventImpact impact;
    impact.time_s = e.time_s;
    impact.was_failure = !e.up;
    result.events.push_back(impact);

    // Scheme-specific switch schedule.
    std::vector<PendingSwitch> switches;
    if (config_.scheme == Scheme::kDsdn) {
      // Flood from both fiber endpoints on the post-event topology.
      const topo::NodeId a = scratch_.link(e.fiber).src;
      const topo::NodeId b = scratch_.link(e.fiber).dst;
      const auto from_a =
          nsu_arrival_times(scratch_, a, rng_, config_.flood_loss_prob);
      const auto from_b =
          nsu_arrival_times(scratch_, b, rng_, config_.flood_loss_prob);
      // One convergence instant per headend.
      std::vector<double> headend_switch(topo_.num_nodes(), -1.0);
      for (std::size_t i = 0; i < target.allocations.size(); ++i) {
        if (!changed[i]) continue;
        const topo::NodeId r = target.allocations[i].demand.src;
        if (headend_switch[r] < 0) {
          const double tprop = std::min(from_a[r], from_b[r]);
          const double tcomp = metrics::sample_dsdn_tcomp(rng_);
          const double tprog = metrics::sample_dsdn_tprog(rng_);
          headend_switch[r] = std::isfinite(tprop)
                                  ? e.time_s + tprop + tcomp + tprog
                                  : std::numeric_limits<double>::infinity();
        }
        if (std::isfinite(headend_switch[r])) {
          switches.push_back(
              {headend_switch[r], i, &target.allocations[i]});
        }
      }
    } else {
      switches = schedule_switches(e.time_s, target, changed);
    }

    // Quantize switch times to bound evaluation cost (conservative:
    // switches are only delayed, never advanced).
    if (switches.size() > config_.max_eval_points_per_event &&
        config_.max_eval_points_per_event > 0) {
      std::vector<double> times;
      times.reserve(switches.size());
      for (const auto& s : switches) times.push_back(s.time);
      std::sort(times.begin(), times.end());
      std::vector<double> buckets;
      const std::size_t k = config_.max_eval_points_per_event;
      for (std::size_t b = 1; b <= k; ++b) {
        buckets.push_back(times[(times.size() - 1) * b / k]);
      }
      for (auto& s : switches) {
        const auto it =
            std::lower_bound(buckets.begin(), buckets.end(), s.time);
        s.time = it == buckets.end() ? buckets.back() : *it;
      }
    }

    double last_switch = e.time_s;
    for (const PendingSwitch& s : switches) {
      epoch[s.demand] += 1;
      pending.push(Queued{s.time, s.demand, s.target, epoch[s.demand]});
      last_switch = std::max(last_switch, s.time);
    }
    result.events.back().convergence_span_s = last_switch - e.time_s;

    // Loss changes instantly at the event itself.
    evaluate_blast();
  }

  // Settle: drain every remaining switch, then integrate a short margin.
  double tail = now;
  {
    // Peek max pending time.
    auto copy = pending;
    while (!copy.empty()) {
      tail = std::max(tail, copy.top().time);
      copy.pop();
    }
  }
  drain_until(tail + 1.0);
  return result;
}

}  // namespace dsdn::sim
