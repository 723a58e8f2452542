#include "core/nsu.hpp"

#include <algorithm>
#include <limits>
#include <utility>

namespace dsdn::core {

NsuValidity validate_nsu(const NodeStateUpdate& nsu) {
  if (nsu.origin == topo::kInvalidNode) return NsuValidity::kBadOrigin;
  // Duplicate-link-advert detection without a per-NSU heap allocation:
  // this runs once per flooded NSU per receiving router. A real NSU
  // carries one advert per attached link -- a few dozen at WAN router
  // degree -- so a quadratic scan over the inline array beats building a
  // std::set; implausibly large advert lists fall back to one sorted
  // vector. Both paths report the same error the old element-at-a-time
  // loop did: the first (duplicate-before-capacity) violation in advert
  // order.
  const std::size_t n = nsu.links.size();
  constexpr std::size_t kQuadraticLimit = 64;
  if (n <= kQuadraticLimit) {
    for (std::size_t i = 0; i < n; ++i) {
      const LinkAdvert& l = nsu.links[i];
      for (std::size_t j = 0; j < i; ++j) {
        if (nsu.links[j].link == l.link)
          return NsuValidity::kDuplicateLinkAdvert;
      }
      if (l.capacity_gbps < 0) return NsuValidity::kNegativeCapacity;
    }
  } else {
    constexpr std::size_t kNone = std::numeric_limits<std::size_t>::max();
    std::size_t dup_at = kNone;      // index of a second occurrence
    std::size_t neg_cap_at = kNone;  // index of a negative capacity
    for (std::size_t i = 0; i < n && neg_cap_at == kNone; ++i) {
      if (nsu.links[i].capacity_gbps < 0) neg_cap_at = i;
    }
    std::vector<std::pair<topo::LinkId, std::size_t>> ids;
    ids.reserve(n);
    for (std::size_t i = 0; i < n; ++i) ids.emplace_back(nsu.links[i].link, i);
    std::sort(ids.begin(), ids.end());
    for (std::size_t k = 1; k < n; ++k) {
      if (ids[k].first == ids[k - 1].first)
        dup_at = std::min(dup_at, ids[k].second);
    }
    // At equal indices the duplicate check fires first (matching the
    // original scan order).
    if (dup_at <= neg_cap_at && dup_at != kNone)
      return NsuValidity::kDuplicateLinkAdvert;
    if (neg_cap_at != kNone) return NsuValidity::kNegativeCapacity;
  }
  for (const DemandAdvert& d : nsu.demands) {
    if (d.rate_gbps < 0) return NsuValidity::kNegativeDemand;
    if (d.egress == nsu.origin) return NsuValidity::kSelfDemand;
  }
  for (const topo::Prefix& p : nsu.prefixes) {
    if (p.len < 0 || p.len > 32) return NsuValidity::kBadPrefix;
  }
  return NsuValidity::kValid;
}

std::size_t nsu_wire_size(const NodeStateUpdate& nsu) {
  std::size_t bytes = 16;  // origin + seq + framing
  bytes += nsu.links.size() * 28;
  bytes += nsu.prefixes.size() * 5;
  bytes += nsu.demands.size() * 13;
  for (const OpaqueTlv& t : nsu.tlvs) bytes += 8 + t.value.size();
  return bytes;
}

}  // namespace dsdn::core
