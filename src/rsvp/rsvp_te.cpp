#include "rsvp/rsvp_te.hpp"

#include <algorithm>
#include <cmath>
#include <memory>

#include "metrics/calibration.hpp"

namespace dsdn::rsvp {

using Calib = metrics::RsvpCalibration;

RsvpTeNetwork::RsvpTeNetwork(const topo::Topology* topo,
                             traffic::TrafficMatrix tm,
                             const RsvpParams& params)
    : topo_(topo),
      tm_(std::move(tm)),
      scratch_(*topo),
      reserved_(topo->num_links(), 0.0),
      signal_busy_until_(topo->num_nodes(), 0.0),
      rng_(params.seed) {
  lsps_.resize(tm_.size());
  for (std::size_t i = 0; i < tm_.size(); ++i) {
    lsps_[i].rate_gbps = tm_.demands()[i].rate_gbps;
  }
}

std::optional<te::Path> RsvpTeNetwork::cspf(topo::NodeId src,
                                            topo::NodeId dst,
                                            double rate) const {
  std::vector<double> residual(scratch_.num_links());
  for (std::size_t l = 0; l < scratch_.num_links(); ++l) {
    residual[l] = scratch_.link(static_cast<topo::LinkId>(l)).capacity_gbps -
                  reserved_[l];
  }
  te::SpConstraints c;
  c.residual_gbps = &residual;
  c.min_residual = rate;
  return te::shortest_path(scratch_, src, dst, c);
}

void RsvpTeNetwork::release(Lsp& lsp) {
  for (topo::LinkId l : lsp.path.links) reserved_[l] -= lsp.rate_gbps;
  lsp.path = {};
}

std::size_t RsvpTeNetwork::establish_all() {
  std::size_t established = 0;
  for (std::size_t i = 0; i < lsps_.size(); ++i) {
    const auto& d = tm_.demands()[i];
    auto p = cspf(d.src, d.dst, lsps_[i].rate_gbps);
    if (!p) continue;
    for (topo::LinkId l : p->links) reserved_[l] += lsps_[i].rate_gbps;
    lsps_[i].path = std::move(*p);
    ++established;
  }
  return established;
}

std::size_t RsvpTeNetwork::established_count() const {
  return static_cast<std::size_t>(
      std::count_if(lsps_.begin(), lsps_.end(),
                    [](const Lsp& l) { return !l.path.empty(); }));
}

void RsvpTeNetwork::attempt_signal(sim::EventQueue& q, std::size_t i,
                                   double fail_time,
                                   RsvpEventResult& result) {
  Lsp& lsp = lsps_[i];
  const auto& d = tm_.demands()[i];

  auto backoff_and_retry = [this, &q, i, fail_time, &result](Lsp& l) {
    ++result.crankbacks;
    if (l.retries >= RsvpParams::max_retries) return;  // give up
    const double backoff =
        std::min(Calib::backoff_max_s,
                 Calib::backoff_base_s *
                     std::pow(Calib::backoff_multiplier,
                              static_cast<double>(l.retries))) *
        rng_.uniform(0.5, 1.5);
    ++l.retries;
    ++result.retries;
    q.schedule_in(backoff, [this, &q, i, fail_time, &result] {
      attempt_signal(q, i, fail_time, result);
    });
  };

  // Headend CSPF over the current (shared, serialized-at-event-time)
  // residual view.
  auto p = cspf(d.src, d.dst, lsp.rate_gbps);
  if (!p) {
    backoff_and_retry(lsp);
    return;
  }

  // Signal hop-by-hop. Reservations land at each hop's arrival time; a
  // competing LSP can snatch the capacity in between -- that is the
  // stampede. We walk hops through the event queue.
  struct SignalState {
    te::Path path;
    std::size_t next_hop = 0;
  };
  auto state = std::make_shared<SignalState>();
  state->path = std::move(*p);

  // Recursive hop processor.
  auto process_hop = std::make_shared<std::function<void()>>();
  *process_hop = [this, &q, i, fail_time, &result, state, process_hop,
                  backoff_and_retry]() mutable {
    Lsp& l = lsps_[i];
    if (state->next_hop >= state->path.links.size()) {
      // RESV complete: LSP restored.
      l.path = state->path;
      ++result.restored_lsps;
      result.lsp_restore_times.add(q.now() - fail_time);
      result.convergence_time_s =
          std::max(result.convergence_time_s, q.now() - fail_time);
      return;
    }
    const topo::LinkId lid = state->path.links[state->next_hop];
    const topo::Link& link = scratch_.link(lid);
    const double residual = link.capacity_gbps - reserved_[lid];
    if (!link.up || residual < l.rate_gbps) {
      // Crankback: release the hops this attempt already reserved.
      for (std::size_t h = 0; h < state->next_hop; ++h)
        reserved_[state->path.links[h]] -= l.rate_gbps;
      backoff_and_retry(l);
      return;
    }
    reserved_[lid] += l.rate_gbps;
    ++state->next_hop;
    // The PATH message reaches the next router and queues behind every
    // earlier signaling message there: per-router serial processing is
    // what turns simultaneous restorations into a stampede.
    const double arrive =
        q.now() + link.delay_s +
        rng_.lognormal_median(Calib::hop_setup_median_s,
                              Calib::hop_setup_sigma);
    const double start = std::max(arrive, signal_busy_until_[link.dst]);
    const double service =
        rng_.lognormal_median(Calib::signal_service_median_s,
                              Calib::signal_service_sigma);
    signal_busy_until_[link.dst] = start + service;
    q.schedule(start + service, [process_hop] { (*process_hop)(); });
  };
  (*process_hop)();
}

RsvpEventResult RsvpTeNetwork::fail_fiber(topo::LinkId fiber) {
  RsvpEventResult result;
  scratch_.set_duplex_up(fiber, false);
  // Each event runs on a fresh clock; signaling queues start idle.
  std::fill(signal_busy_until_.begin(), signal_busy_until_.end(), 0.0);
  const topo::LinkId rev = scratch_.link(fiber).reverse;

  // Which LSPs crossed the fiber?
  std::vector<std::size_t> affected;
  for (std::size_t i = 0; i < lsps_.size(); ++i) {
    const auto& links = lsps_[i].path.links;
    if (std::find(links.begin(), links.end(), fiber) != links.end() ||
        (rev != topo::kInvalidLink &&
         std::find(links.begin(), links.end(), rev) != links.end())) {
      affected.push_back(i);
    }
  }
  result.affected_lsps = affected.size();
  if (affected.empty()) return result;

  sim::EventQueue q;
  for (std::size_t i : affected) {
    Lsp& lsp = lsps_[i];
    // Failure detection: PathErr propagates from the break back to the
    // headend along the old path.
    double detect = 0.0;
    for (topo::LinkId l : lsp.path.links) {
      detect += scratch_.link(l).delay_s;
      if (l == fiber || l == rev) break;
    }
    release(lsp);
    lsp.retries = 0;
    const double start =
        detect + rng_.lognormal_median(Calib::cspf_median_s, Calib::cspf_sigma);
    q.schedule(start, [this, &q, i, &result] {
      attempt_signal(q, i, /*fail_time=*/0.0, result);
    });
  }
  q.run();
  return result;
}

void RsvpTeNetwork::repair_fiber(topo::LinkId fiber) {
  scratch_.set_duplex_up(fiber, true);
}

}  // namespace dsdn::rsvp
