#include "hier/plane_runtime.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "obs/metrics.hpp"
#include "te/thread_pool.hpp"
#include "util/rng.hpp"

namespace dsdn::hier {
namespace {

std::uint64_t flow_key(topo::NodeId src, topo::NodeId dst,
                       metrics::PriorityClass priority) {
  return (static_cast<std::uint64_t>(src) << 34) ^
         (static_cast<std::uint64_t>(dst) << 4) ^
         static_cast<std::uint64_t>(priority);
}

}  // namespace

std::vector<topo::Topology> make_planes(const topo::Topology& base,
                                        std::size_t k) {
  if (k == 0) throw std::invalid_argument("make_planes: k == 0");
  // Striping is exact in integer kbps units so that the K planes' stripes
  // sum to the base link's capacity even when it does not divide evenly
  // (naive capacity/k loses up to (k-1)/k kbps per link). The remainder
  // units rotate across planes by fiber index, so no plane is
  // systematically fatter than the others.
  constexpr double kUnitsPerGbps = 1e6;  // 1 kbps resolution
  std::vector<topo::Topology> planes;
  planes.reserve(k);
  for (std::size_t p = 0; p < k; ++p) {
    topo::Topology plane;
    for (const topo::Node& n : base.nodes()) {
      plane.add_node(n.name, n.metro, n.gravity_weight);
    }
    std::size_t fiber_index = 0;
    for (const topo::Link& l : base.links()) {
      // One pass per fiber: a simplex link, or the lower id of a duplex
      // pair (add_duplex numbers the pair id, id + 1 in both topologies).
      const bool duplex = l.reverse != topo::kInvalidLink;
      if (duplex && l.reverse < l.id) continue;
      const auto units = static_cast<std::uint64_t>(
          std::llround(l.capacity_gbps * kUnitsPerGbps));
      std::uint64_t stripe = units / k;
      if ((p + fiber_index) % k < units % k) ++stripe;
      const double capacity = static_cast<double>(stripe) / kUnitsPerGbps;
      if (duplex) {
        plane.add_duplex(l.src, l.dst, capacity, l.igp_metric, l.delay_s);
      } else {
        plane.add_link(l.src, l.dst, capacity, l.igp_metric, l.delay_s);
      }
      ++fiber_index;
    }
    plane.validate();
    planes.push_back(std::move(plane));
  }
  return planes;
}

std::size_t place_flow(topo::NodeId src, topo::NodeId dst,
                       metrics::PriorityClass priority,
                       const std::vector<char>& alive) {
  const std::uint64_t key = flow_key(src, dst, priority);
  std::size_t best = alive.size();
  std::uint64_t best_score = 0;
  for (std::size_t p = 0; p < alive.size(); ++p) {
    if (!alive[p]) continue;
    std::uint64_t score = util::splitmix64(key ^ util::splitmix64(p + 1));
    if (best == alive.size() || score > best_score) {
      best = p;
      best_score = score;
    }
  }
  if (best == alive.size()) {
    throw std::logic_error("place_flow: no live plane");
  }
  return best;
}

PlaneRuntime::PlaneRuntime(const topo::Topology& base,
                           const traffic::TrafficMatrix& tm,
                           PlaneRuntimeConfig config)
    : config_(std::move(config)) {
  if (config_.planes == 0) {
    throw std::invalid_argument("PlaneRuntime: 0 planes");
  }
  auto plane_topos = make_planes(base, config_.planes);
  alive_.assign(config_.planes, 1);
  demands_.resize(config_.planes);
  for (const traffic::Demand& d : tm.demands()) {
    demands_[place_flow(d.src, d.dst, d.priority, alive_)].push_back(d);
  }
  planes_.reserve(config_.planes);
  for (std::size_t p = 0; p < config_.planes; ++p) {
    planes_.push_back(std::make_unique<sim::DsdnEmulation>(
        std::move(plane_topos[p]), traffic::TrafficMatrix(demands_[p])));
    if (config_.fib_cores > 0) {
      planes_.back()->enable_fib_snapshots(config_.fib_cores);
    }
  }
  pool_ = std::make_unique<te::ThreadPool>(config_.planes);
}

void PlaneRuntime::bootstrap() {
  pool_->parallel_for(planes_.size(),
                      [&](std::size_t p) { planes_[p]->bootstrap(); });
}

std::size_t PlaneRuntime::num_alive() const {
  return static_cast<std::size_t>(
      std::count(alive_.begin(), alive_.end(), char{1}));
}

std::size_t PlaneRuntime::plane_of(topo::NodeId src, topo::NodeId dst,
                                   metrics::PriorityClass priority) const {
  return place_flow(src, dst, priority, alive_);
}

void PlaneRuntime::fail_fiber_in_plane(std::size_t p, topo::LinkId fiber) {
  planes_.at(p)->fail_fiber(fiber);
}

void PlaneRuntime::repair_fiber_in_plane(std::size_t p, topo::LinkId fiber) {
  planes_.at(p)->repair_fiber(fiber);
}

void PlaneRuntime::fail_conduit(topo::LinkId fiber) {
  for (std::size_t p = 0; p < planes_.size(); ++p) {
    if (alive_[p]) planes_[p]->fail_fiber(fiber);
  }
}

void PlaneRuntime::repair_conduit(topo::LinkId fiber) {
  for (std::size_t p = 0; p < planes_.size(); ++p) {
    if (alive_[p]) planes_[p]->repair_fiber(fiber);
  }
}

void PlaneRuntime::reprogram(const std::vector<std::size_t>& touched) {
  pool_->parallel_for(touched.size(), [&](std::size_t i) {
    const std::size_t p = touched[i];
    planes_[p]->update_demands(traffic::TrafficMatrix(demands_[p]));
  });
}

void PlaneRuntime::score_survivors(RebalanceReport& report) const {
  if (config_.fib_cores == 0 || config_.score_packets == 0) return;
  for (std::size_t p = 0; p < planes_.size(); ++p) {
    if (!alive_[p] || demands_[p].empty()) continue;
    sim::PacketScoreOptions options;
    options.packets = config_.score_packets;
    options.seed = 0x9A7E5ULL ^ p;
    auto score = sim::score_packets(*planes_[p], options);
    report.scored_packets += score.packets;
    report.score_hard_drops += score.hard_drops;
  }
}

RebalanceReport PlaneRuntime::fail_plane(std::size_t p) {
  if (!alive_.at(p)) {
    throw std::invalid_argument("fail_plane: plane already dead");
  }
  if (num_alive() <= 1) {
    throw std::invalid_argument("fail_plane: last live plane");
  }
  RebalanceReport report;
  std::size_t total = total_flows();

  // Drain: the dead plane's rows leave its matrix; re-place: each re-runs
  // HRW over the survivors.
  alive_[p] = 0;
  std::vector<traffic::Demand> moved = std::move(demands_[p]);
  demands_[p].clear();
  std::vector<char> touched(planes_.size(), 0);
  for (const traffic::Demand& d : moved) {
    std::size_t t = place_flow(d.src, d.dst, d.priority, alive_);
    demands_[t].push_back(d);
    touched[t] = 1;
    ++report.moved_flows;
    report.moved_gbps += d.rate_gbps;
  }
  report.exposed_fraction =
      total == 0 ? 0.0
                 : static_cast<double>(report.moved_flows) /
                       static_cast<double>(total);

  // Reprogram every plane that gained flows, in parallel.
  std::vector<std::size_t> gained;
  for (std::size_t t = 0; t < planes_.size(); ++t) {
    if (touched[t]) gained.push_back(t);
  }
  reprogram(gained);
  report.reprogrammed_planes = gained.size();

  score_survivors(report);
  static obs::Counter& c_fail =
      obs::Registry::global().counter("hier.plane.failures");
  static obs::Counter& c_moved =
      obs::Registry::global().counter("hier.plane.flows_moved");
  c_fail.add(1);
  c_moved.add(report.moved_flows);
  return report;
}

RebalanceReport PlaneRuntime::restore_plane(std::size_t p) {
  if (alive_.at(p)) {
    throw std::invalid_argument("restore_plane: plane already alive");
  }
  RebalanceReport report;
  std::size_t total = total_flows();

  alive_[p] = 1;
  // Exactly the flows whose full-set HRW argmax is p come home; nothing
  // else moves (the rendezvous property).
  std::vector<char> touched(planes_.size(), 0);
  for (std::size_t t = 0; t < planes_.size(); ++t) {
    if (t == p) continue;
    std::vector<traffic::Demand> keep;
    keep.reserve(demands_[t].size());
    for (const traffic::Demand& d : demands_[t]) {
      if (place_flow(d.src, d.dst, d.priority, alive_) == p) {
        demands_[p].push_back(d);
        touched[t] = 1;
        touched[p] = 1;
        ++report.moved_flows;
        report.moved_gbps += d.rate_gbps;
      } else {
        keep.push_back(d);
      }
    }
    demands_[t] = std::move(keep);
  }
  report.exposed_fraction =
      total == 0 ? 0.0
                 : static_cast<double>(report.moved_flows) /
                       static_cast<double>(total);

  std::vector<std::size_t> changed;
  for (std::size_t t = 0; t < planes_.size(); ++t) {
    if (touched[t]) changed.push_back(t);
  }
  reprogram(changed);
  report.reprogrammed_planes = changed.size();

  score_survivors(report);
  static obs::Counter& c_restore =
      obs::Registry::global().counter("hier.plane.restores");
  c_restore.add(1);
  return report;
}

dataplane::ForwardResult PlaneRuntime::send_packet(
    topo::NodeId ingress, topo::NodeId dst, metrics::PriorityClass priority,
    std::uint64_t entropy) const {
  std::size_t p = place_flow(ingress, dst, priority, alive_);
  const sim::DsdnEmulation& plane = *planes_[p];
  if (dataplane::SnapshotHub* hub = plane.fib_hub()) {
    // Plane-aware snapshot path: forward on the selected plane's
    // published RCU epoch, the same tables and port state its
    // BatchPipelines read.
    dataplane::SnapshotView view(hub->acquire(0));
    dataplane::Packet pkt;
    pkt.dst_ip = plane.address_of(dst);
    pkt.priority = priority;
    pkt.entropy = entropy;
    pkt.ttl = static_cast<int>(4 * plane.network().num_nodes() + 16);
    dataplane::Forwarder forwarder(plane.network(), &view);
    return forwarder.forward(std::move(pkt), ingress);
  }
  return plane.send_packet(ingress, plane.address_of(dst), priority, entropy);
}

bool PlaneRuntime::all_planes_converged() const {
  for (std::size_t p = 0; p < planes_.size(); ++p) {
    if (alive_[p] && !planes_[p]->views_converged()) return false;
  }
  return true;
}

std::size_t PlaneRuntime::total_flows() const {
  std::size_t n = 0;
  for (std::size_t p = 0; p < planes_.size(); ++p) {
    if (alive_[p]) n += demands_[p].size();
  }
  return n;
}

double PlaneRuntime::total_rate_gbps() const {
  double rate = 0.0;
  for (std::size_t p = 0; p < planes_.size(); ++p) {
    if (!alive_[p]) continue;
    for (const traffic::Demand& d : demands_[p]) rate += d.rate_gbps;
  }
  return rate;
}

}  // namespace dsdn::hier
