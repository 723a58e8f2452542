#include "dataplane/snapshot.hpp"

#include <stdexcept>

#include "obs/trace.hpp"

namespace dsdn::dataplane {

SnapshotHub::SnapshotHub(const topo::Topology& topo, std::size_t num_cores)
    : num_routers_(topo.num_nodes()) {
  if (num_cores == 0)
    throw std::invalid_argument("SnapshotHub: need at least one core");
  auto initial = std::make_shared<FibSnapshot>();
  initial->epoch = 0;
  initial->routers.reserve(num_routers_);
  // All routers share one empty table set until the controllers program
  // real state -- same as hardware coming up with blank banks.
  const auto blank = std::make_shared<const RouterDataplane>();
  for (std::size_t i = 0; i < num_routers_; ++i)
    initial->routers.push_back(blank);
  initial->link_up.resize(topo.num_links());
  for (std::size_t l = 0; l < topo.num_links(); ++l)
    initial->link_up[l] = topo.link(static_cast<topo::LinkId>(l)).up ? 1 : 0;

  latest_ = initial;
  slots_.reserve(num_cores);
  for (std::size_t c = 0; c < num_cores; ++c) {
    auto slot = std::make_unique<Slot>();
    slot->snap = initial;
    slots_.push_back(std::move(slot));
  }
}

std::shared_ptr<const FibSnapshot> SnapshotHub::acquire(
    std::size_t core) const {
  const Slot& slot = *slots_.at(core);
  std::lock_guard<std::mutex> lock(slot.mu);
  return slot.snap;
}

void SnapshotHub::install(std::shared_ptr<const FibSnapshot> next) {
  latest_ = next;
  for (auto& slot : slots_) {
    std::lock_guard<std::mutex> lock(slot->mu);
    slot->snap = next;
  }
}

std::uint64_t SnapshotHub::publish_router(topo::NodeId node,
                                          const RouterDataplane& tables) {
  DSDN_TRACE_SPAN("snapshot.publish_router");
  std::lock_guard<std::mutex> publish(publish_mu_);
  auto next = std::make_shared<FibSnapshot>();
  next->epoch = latest_->epoch + 1;
  next->routers = latest_->routers;  // share every unchanged router
  next->routers.at(node) = std::make_shared<const RouterDataplane>(tables);
  next->link_up = latest_->link_up;
  install(std::move(next));
  return latest_->epoch;
}

std::uint64_t SnapshotHub::publish_link_state(const topo::Topology& topo) {
  std::lock_guard<std::mutex> publish(publish_mu_);
  auto next = std::make_shared<FibSnapshot>();
  next->epoch = latest_->epoch + 1;
  next->routers = latest_->routers;
  next->link_up.resize(topo.num_links());
  for (std::size_t l = 0; l < topo.num_links(); ++l)
    next->link_up[l] = topo.link(static_cast<topo::LinkId>(l)).up ? 1 : 0;
  install(std::move(next));
  return latest_->epoch;
}

std::uint64_t SnapshotHub::publish_all(
    std::vector<std::shared_ptr<const RouterDataplane>> routers) {
  if (routers.size() != num_routers_)
    throw std::invalid_argument("publish_all: wrong router count");
  for (const auto& r : routers)
    if (!r) throw std::invalid_argument("publish_all: null router");
  std::lock_guard<std::mutex> publish(publish_mu_);
  auto next = std::make_shared<FibSnapshot>();
  next->epoch = latest_->epoch + 1;
  next->routers = std::move(routers);
  next->link_up = latest_->link_up;
  install(std::move(next));
  return latest_->epoch;
}

std::uint64_t SnapshotHub::epoch() const {
  std::lock_guard<std::mutex> publish(publish_mu_);
  return latest_->epoch;
}

}  // namespace dsdn::dataplane
