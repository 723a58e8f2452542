#include "core/state_db.hpp"

#include <algorithm>

#include "obs/trace.hpp"
#include "util/rng.hpp"

namespace dsdn::core {

StateDb::StateDb(const topo::Topology& configured)
    : view_(configured), sublabels_(configured.num_links(), 0) {}

bool StateDb::apply(const NodeStateUpdate& nsu) {
  DSDN_TRACE_SPAN("state_db.apply");
  if (validate_nsu(nsu) != NsuValidity::kValid) {
    ++rejected_invalid_;
    return false;
  }
  const auto it = latest_.find(nsu.origin);
  if (it != latest_.end() && nsu.seq <= it->second.seq) {
    ++rejected_stale_;
    return false;
  }
  latest_[nsu.origin] = nsu;
  apply_to_view(nsu);
  ++accepted_;
  return true;
}

void StateDb::apply_to_view(const NodeStateUpdate& nsu) {
  for (const LinkAdvert& la : nsu.links) {
    if (la.link >= view_.num_links()) continue;  // unknown inventory
    view_.set_link_up(la.link, la.up);
    if (la.capacity_gbps > 0) {
      // Partial capacity loss/restoration is advertised like liveness.
      view_.set_link_capacity(la.link, la.capacity_gbps);
    }
    if (la.sublabel != 0) sublabels_[la.link] = la.sublabel;
  }
  for (const topo::Prefix& p : nsu.prefixes) {
    prefixes_.insert(p, nsu.origin);
  }
}

te::ViewDelta StateDb::take_delta() {
  static const std::vector<DemandAdvert> kNoRows;
  te::ViewDelta delta;
  delta.full = !has_baseline_;
  if (has_baseline_) {
    for (std::size_t l = 0; l < view_.num_links(); ++l) {
      const topo::Link& link = view_.link(static_cast<topo::LinkId>(l));
      const LinkBaseline& base = base_links_[l];
      if (base.up != link.up || base.capacity_gbps != link.capacity_gbps)
        delta.changed_links.push_back(static_cast<topo::LinkId>(l));
    }
    // Ascending origin order, so every router derives the identical
    // delta from the identical digest.
    for (std::size_t n = 0; n < view_.num_nodes(); ++n) {
      const auto origin = static_cast<topo::NodeId>(n);
      const auto now_it = latest_.find(origin);
      const auto& now =
          now_it == latest_.end() ? kNoRows : now_it->second.demands;
      const auto base_it = base_demands_.find(origin);
      const auto& before =
          base_it == base_demands_.end() ? kNoRows : base_it->second;
      if (!(now == before)) delta.changed_demand_origins.push_back(origin);
    }
  }
  base_links_.resize(view_.num_links());
  for (std::size_t l = 0; l < view_.num_links(); ++l) {
    const topo::Link& link = view_.link(static_cast<topo::LinkId>(l));
    base_links_[l] = LinkBaseline{link.up, link.capacity_gbps};
  }
  base_demands_.clear();
  for (const auto& [origin, nsu] : latest_) {
    if (!nsu.demands.empty()) base_demands_[origin] = nsu.demands;
  }
  has_baseline_ = true;
  return delta;
}

traffic::TrafficMatrix StateDb::demands() const {
  // Deterministic order: iterate origins ascending so every router
  // assembles the identical matrix.
  traffic::TrafficMatrix tm;
  for (const NodeStateUpdate* nsu : all_latest()) {
    for (const DemandAdvert& d : nsu->demands) {
      if (d.rate_gbps <= 0) continue;
      // An egress outside the configured inventory (possible only from a
      // corrupted-yet-decodable NSU) must never reach the TE solver.
      if (d.egress >= view_.num_nodes()) continue;
      tm.add(traffic::Demand{nsu->origin, d.egress, d.priority, d.rate_gbps});
    }
  }
  return tm;
}

std::vector<std::pair<topo::Prefix, topo::NodeId>> StateDb::prefix_entries()
    const {
  std::vector<std::pair<topo::Prefix, topo::NodeId>> out;
  for (const NodeStateUpdate* nsu : all_latest()) {
    for (const topo::Prefix& p : nsu->prefixes) out.emplace_back(p, nsu->origin);
  }
  return out;
}

const NodeStateUpdate* StateDb::latest(topo::NodeId origin) const {
  const auto it = latest_.find(origin);
  return it == latest_.end() ? nullptr : &it->second;
}

std::vector<const NodeStateUpdate*> StateDb::all_latest() const {
  std::vector<const NodeStateUpdate*> out;
  out.reserve(latest_.size());
  for (const auto& [origin, nsu] : latest_) out.push_back(&nsu);
  std::sort(out.begin(), out.end(),
            [](const NodeStateUpdate* a, const NodeStateUpdate* b) {
              return a->origin < b->origin;
            });
  return out;
}

std::uint64_t StateDb::seq_of(topo::NodeId origin) const {
  const auto it = latest_.find(origin);
  return it == latest_.end() ? 0 : it->second.seq;
}

bool StateDb::heard_from(topo::NodeId origin) const {
  return latest_.contains(origin);
}

std::uint64_t StateDb::digest() const {
  // XOR of per-origin hashes: order-insensitive by construction.
  std::uint64_t acc = 0x5DDA5DDAULL;
  for (const auto& [origin, nsu] : latest_) {
    std::uint64_t h = util::splitmix64(origin * 0x1000193ULL + nsu.seq);
    for (const LinkAdvert& la : nsu.links) {
      h = util::splitmix64(h ^ (la.link * 2 + (la.up ? 1 : 0)));
      h = util::splitmix64(
          h ^ static_cast<std::uint64_t>(la.capacity_gbps * 1e3));
    }
    for (const DemandAdvert& d : nsu.demands) {
      h = util::splitmix64(h ^ (static_cast<std::uint64_t>(d.egress) << 3) ^
                           static_cast<std::uint64_t>(d.priority));
      h = util::splitmix64(h ^ static_cast<std::uint64_t>(d.rate_gbps * 1e6));
    }
    for (const topo::Prefix& p : nsu.prefixes) {
      h = util::splitmix64(h ^ ((static_cast<std::uint64_t>(p.addr) << 6) |
                                static_cast<std::uint64_t>(p.len)));
    }
    acc ^= h;
  }
  return acc;
}

void StateDb::load_from(const StateDb& neighbor) {
  for (const auto& [origin, nsu] : neighbor.latest_) {
    apply(nsu);
  }
}

}  // namespace dsdn::core
