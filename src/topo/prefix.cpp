#include "topo/prefix.hpp"

#include <algorithm>
#include <bit>
#include <sstream>
#include <stdexcept>

namespace dsdn::topo {
namespace {

std::uint32_t len_mask(int len) {
  return len == 0 ? 0 : ~std::uint32_t{0} << (32 - len);
}

}  // namespace

std::uint32_t Prefix::mask() const {
  if (len < 0 || len > 32) throw std::invalid_argument("prefix len");
  return len_mask(len);
}

bool Prefix::contains(std::uint32_t ip) const {
  return (ip & mask()) == (addr & mask());
}

std::string Prefix::to_string() const {
  return format_ipv4(addr & mask()) + "/" + std::to_string(len);
}

std::uint32_t parse_ipv4(const std::string& dotted) {
  std::uint32_t out = 0;
  std::istringstream is(dotted);
  for (int i = 0; i < 4; ++i) {
    int octet = -1;
    is >> octet;
    if (octet < 0 || octet > 255) throw std::invalid_argument("bad ipv4");
    out = (out << 8) | static_cast<std::uint32_t>(octet);
    if (i < 3) {
      char dot = 0;
      is >> dot;
      if (dot != '.') throw std::invalid_argument("bad ipv4");
    }
  }
  return out;
}

std::string format_ipv4(std::uint32_t ip) {
  std::ostringstream os;
  os << ((ip >> 24) & 255) << '.' << ((ip >> 16) & 255) << '.'
     << ((ip >> 8) & 255) << '.' << (ip & 255);
  return os.str();
}

std::size_t PrefixTable::Bucket::home(std::uint32_t key) const {
  // Fibonacci hashing: the product's high bits mix every key bit.
  const auto bits = static_cast<unsigned>(std::countr_zero(slots.size()));
  return static_cast<std::size_t>(
      (std::uint64_t{key} * 0x9E3779B97F4A7C15ULL) >> (64 - bits));
}

const PrefixTable::Slot* PrefixTable::Bucket::find(std::uint32_t key) const {
  if (size == 0) return nullptr;
  const std::size_t mask = slots.size() - 1;
  for (std::size_t i = home(key);; i = (i + 1) & mask) {
    const Slot& s = slots[i];
    if (!s.used) return nullptr;
    if (s.key == key) return &s;
  }
}

void PrefixTable::Bucket::insert(std::uint32_t key, NodeId egress) {
  if (2 * (size + 1) > slots.size()) {
    std::vector<Slot> old(std::max<std::size_t>(8, 2 * slots.size()));
    old.swap(slots);
    size = 0;
    for (const Slot& s : old) {
      if (s.used) insert(s.key, s.egress);
    }
  }
  const std::size_t mask = slots.size() - 1;
  for (std::size_t i = home(key);; i = (i + 1) & mask) {
    Slot& s = slots[i];
    if (s.used && s.key != key) continue;
    size += !s.used;
    s = Slot{key, egress, true};
    return;
  }
}

bool PrefixTable::Bucket::erase(std::uint32_t key) {
  const Slot* hit = find(key);
  if (!hit) return false;
  const std::size_t mask = slots.size() - 1;
  std::size_t hole = static_cast<std::size_t>(hit - slots.data());
  // Move back every later member of the run whose home does not lie
  // cyclically in (hole, j]: it probed past the hole on insert.
  for (std::size_t j = (hole + 1) & mask; slots[j].used; j = (j + 1) & mask) {
    const std::size_t h = home(slots[j].key);
    const bool stays = hole < j ? (hole < h && h <= j) : (hole < h || h <= j);
    if (stays) continue;
    slots[hole] = slots[j];
    hole = j;
  }
  slots[hole] = Slot{};
  --size;
  return true;
}

void PrefixTable::insert(const Prefix& p, NodeId egress) {
  const std::uint32_t mask = p.mask();  // throws on a bad length
  by_len_[p.len].insert(p.addr & mask, egress);
  lengths_ |= std::uint64_t{1} << p.len;
}

void PrefixTable::erase(const Prefix& p) {
  const std::uint32_t mask = p.mask();
  Bucket& bucket = by_len_[p.len];
  if (bucket.erase(p.addr & mask) && bucket.size == 0)
    lengths_ &= ~(std::uint64_t{1} << p.len);
}

void PrefixTable::clear() {
  for (Bucket& bucket : by_len_) {
    if (bucket.size == 0) continue;
    std::fill(bucket.slots.begin(), bucket.slots.end(), Slot{});
    bucket.size = 0;
  }
  lengths_ = 0;
}

std::size_t PrefixTable::size() const {
  std::size_t total = 0;
  for (const Bucket& bucket : by_len_) total += bucket.size;
  return total;
}

std::optional<NodeId> PrefixTable::lookup(std::uint32_t ip) const {
  for (std::uint64_t left = lengths_; left != 0;) {
    const int len = 63 - std::countl_zero(left);
    left &= ~(std::uint64_t{1} << len);
    if (const Slot* s = by_len_[len].find(ip & len_mask(len))) return s->egress;
  }
  return std::nullopt;
}

std::vector<Prefix> assign_router_prefixes(const Topology& topo) {
  std::vector<Prefix> out;
  out.reserve(topo.num_nodes());
  for (NodeId n = 0; n < topo.num_nodes(); ++n) {
    Prefix p;
    p.addr = (10u << 24) | ((n >> 8) << 16) | ((n & 255u) << 8);
    p.len = 24;
    out.push_back(p);
  }
  return out;
}

std::uint32_t host_in(const Prefix& p) { return (p.addr & p.mask()) | 7u; }

}  // namespace dsdn::topo
