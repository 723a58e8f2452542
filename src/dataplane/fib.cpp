#include "dataplane/fib.hpp"

#include <algorithm>
#include <stdexcept>

#include "util/rng.hpp"

namespace dsdn::dataplane {
namespace {

// The point in [0, total] a flow's entropy selects -- the ASIC's ECMP
// hash stand-in. `salt` decorrelates independent tables keyed by the
// same flow entropy (encap vs bypass picks).
double hash_point(std::uint64_t entropy, std::uint64_t salt, double total) {
  return static_cast<double>(util::splitmix64(entropy ^ salt) >> 11) /
         static_cast<double>(1ull << 53) * total;
}

// Deterministic weighted choice: the first route whose running weight
// sum reaches the hashed point.
const WeightedRoute* pick_weighted(const std::vector<WeightedRoute>& routes,
                                   std::uint64_t entropy,
                                   std::uint64_t salt) {
  double total = 0.0;
  for (const WeightedRoute& r : routes) total += r.weight;
  const double point = hash_point(entropy, salt, total);
  double acc = 0.0;
  for (const WeightedRoute& r : routes) {
    acc += r.weight;
    if (point <= acc) return &r;
  }
  return &routes.back();
}

// Slot of (egress, class) in IngressFib's dense stage-2 index.
std::size_t index_slot(topo::NodeId egress, int cls) {
  return static_cast<std::size_t>(egress) * metrics::kNumPriorityClasses +
         static_cast<std::size_t>(cls);
}

}  // namespace

void IngressFib::set_prefix(const topo::Prefix& p, topo::NodeId egress) {
  prefixes_.insert(p, egress);
}

void IngressFib::clear_prefixes() { prefixes_.clear(); }

std::size_t IngressFib::position(topo::NodeId egress, int cls) const {
  if (cls < 0 || cls >= metrics::kNumPriorityClasses) return npos;
  const std::size_t slot = index_slot(egress, cls);
  if (slot >= index_.size() || index_[slot] == 0) return npos;
  return index_[slot] - 1;
}

void IngressFib::reindex_from(std::size_t pos) {
  for (std::size_t i = pos; i < encap_.size(); ++i) {
    const auto& [egress, cls] = encap_[i].first;
    index_[index_slot(egress, cls)] = static_cast<std::uint32_t>(i + 1);
  }
}

void IngressFib::set_routes(topo::NodeId egress,
                            metrics::PriorityClass priority,
                            EncapEntry entry) {
  const int cls = static_cast<int>(priority);
  if (cls < 0 || cls >= metrics::kNumPriorityClasses)
    throw std::invalid_argument("bad priority class");
  const EncapKey key{egress, cls};
  std::size_t pos = position(egress, cls);
  if (entry.routes.empty()) {
    if (pos == npos) return;
    index_[index_slot(egress, cls)] = 0;
    encap_.erase(encap_.begin() + static_cast<std::ptrdiff_t>(pos));
    weight_sums_.erase(weight_sums_.begin() + static_cast<std::ptrdiff_t>(pos));
    reindex_from(pos);
    return;
  }
  // Running sums in pick_weighted's order: the last is its total.
  std::vector<double> sums;
  sums.reserve(entry.routes.size());
  double total = 0.0;
  for (const WeightedRoute& r : entry.routes) {
    if (r.weight < 0) throw std::invalid_argument("negative route weight");
    total += r.weight;
    sums.push_back(total);
  }
  if (total <= 0) throw std::invalid_argument("route weights sum to zero");
  if (pos != npos) {
    encap_[pos].second = std::move(entry);
    weight_sums_[pos] = std::move(sums);
    return;
  }
  // New key. The Programmer installs in key order, so this appends; an
  // out-of-order insert renumbers only the entries after it.
  pos = static_cast<std::size_t>(
      std::lower_bound(encap_.begin(), encap_.end(), key,
                       [](const auto& e, const EncapKey& k) {
                         return e.first < k;
                       }) -
      encap_.begin());
  encap_.emplace(encap_.begin() + static_cast<std::ptrdiff_t>(pos), key,
                 std::move(entry));
  weight_sums_.emplace(
      weight_sums_.begin() + static_cast<std::ptrdiff_t>(pos),
      std::move(sums));
  if (index_.size() <= index_slot(egress, cls))
    index_.resize(index_slot(egress, cls) + 1, 0);
  reindex_from(pos);
}

void IngressFib::clear_routes() {
  for (const auto& [key, entry] : encap_)
    index_[index_slot(key.first, key.second)] = 0;
  encap_.clear();
  weight_sums_.clear();
}

const EncapEntry* IngressFib::routes_for(topo::NodeId egress,
                                         metrics::PriorityClass priority)
    const {
  const std::size_t pos = position(egress, static_cast<int>(priority));
  return pos == npos ? nullptr : &encap_[pos].second;
}

std::optional<topo::NodeId> IngressFib::egress_for(
    std::uint32_t dst_ip) const {
  return prefixes_.lookup(dst_ip);
}

std::optional<LabelStack> IngressFib::lookup(std::uint32_t dst_ip,
                                             metrics::PriorityClass priority,
                                             std::uint64_t entropy) const {
  const LabelStack* stack = lookup_stack(dst_ip, priority, entropy);
  if (!stack) return std::nullopt;
  return *stack;
}

const LabelStack* IngressFib::lookup_stack(std::uint32_t dst_ip,
                                           metrics::PriorityClass priority,
                                           std::uint64_t entropy) const {
  const auto egress = prefixes_.lookup(dst_ip);
  if (!egress) return nullptr;
  const std::size_t pos = position(*egress, static_cast<int>(priority));
  if (pos == npos) return nullptr;
  // pick_weighted over the stored running sums: same point, same scan.
  const std::vector<double>& sums = weight_sums_[pos];
  const double point = hash_point(entropy, /*salt=*/0, sums.back());
  std::size_t i = 0;
  while (i + 1 < sums.size() && !(point <= sums[i])) ++i;
  return &encap_[pos].second.routes[i].stack;
}

void SrFib::set_members(topo::NodeId target, std::vector<SrNextHop> members) {
  if (members.empty()) {
    entries_.erase(target);
    return;
  }
  std::sort(members.begin(), members.end(),
            [](const SrNextHop& a, const SrNextHop& b) {
              return a.link < b.link;
            });
  entries_[target] = std::move(members);
}

void SrFib::clear() { entries_.clear(); }

const std::vector<SrNextHop>* SrFib::members(topo::NodeId target) const {
  const auto it = entries_.find(target);
  if (it == entries_.end()) return nullptr;
  return &it->second;
}

std::size_t SrFib::num_next_hops() const {
  std::size_t n = 0;
  for (const auto& [target, members] : entries_) n += members.size();
  return n;
}

std::size_t sr_ecmp_pick(std::uint64_t entropy, topo::NodeId at,
                         std::size_t n_up) {
  if (n_up <= 1) return 0;
  const std::uint64_t h = util::splitmix64(
      entropy ^ (static_cast<std::uint64_t>(at) * 0x9E3779B97F4A7C15ULL) ^
      0x5E6D17A6ULL);
  return static_cast<std::size_t>(h % n_up);
}

void BypassFib::set_bypasses(topo::LinkId link,
                             std::vector<WeightedRoute> routes) {
  if (routes.empty()) {
    bypasses_.erase(link);
    return;
  }
  double total = 0.0;
  for (const WeightedRoute& r : routes) {
    if (r.weight < 0) throw std::invalid_argument("negative bypass weight");
    total += r.weight;
  }
  if (total <= 0) throw std::invalid_argument("bypass weights sum to zero");
  bypasses_[link] = std::move(routes);
}

void BypassFib::clear() { bypasses_.clear(); }

bool BypassFib::protects(topo::LinkId link) const {
  return bypasses_.contains(link);
}

std::optional<LabelStack> BypassFib::select(topo::LinkId link,
                                            std::uint64_t entropy) const {
  const LabelStack* stack = select_stack(link, entropy);
  if (!stack) return std::nullopt;
  return *stack;
}

const LabelStack* BypassFib::select_stack(topo::LinkId link,
                                          std::uint64_t entropy) const {
  const auto it = bypasses_.find(link);
  if (it == bypasses_.end()) return nullptr;
  return &pick_weighted(it->second, entropy, /*salt=*/0xFBFB)->stack;
}

}  // namespace dsdn::dataplane
