#pragma once

// IP prefixes and the first stage of dSDN's two-stage ingress lookup
// (§3.2): destination IP -> egress router. Prefix origination is carried
// in NSUs; every headend builds this table from its NodeStateDB.

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "topo/topology.hpp"

namespace dsdn::topo {

struct Prefix {
  std::uint32_t addr = 0;  // network-order-agnostic host representation
  int len = 24;            // prefix length, 0..32

  std::uint32_t mask() const;
  bool contains(std::uint32_t ip) const;
  std::string to_string() const;

  bool operator==(const Prefix&) const = default;
};

// Parses "a.b.c.d" into the host-order representation used by Prefix.
std::uint32_t parse_ipv4(const std::string& dotted);
std::string format_ipv4(std::uint32_t ip);

// Longest-prefix-match table mapping prefixes to egress routers. Each
// prefix length has its own open-addressed (masked address -> egress)
// slot array, and a bitmask records which lengths hold entries, so a
// lookup probes only the lengths in use, longest first -- one probe for
// a fleet that originates only /24s.
class PrefixTable {
 public:
  // Inserting the same prefix again replaces the egress (latest NSU wins).
  void insert(const Prefix& p, NodeId egress);
  void erase(const Prefix& p);
  // Empties the table, keeping the slot arrays for the next fill.
  void clear();

  std::size_t size() const;

  // Longest-prefix match; nullopt when no covering prefix exists.
  std::optional<NodeId> lookup(std::uint32_t ip) const;

 private:
  struct Slot {
    std::uint32_t key = 0;  // masked address
    NodeId egress = kInvalidNode;
    bool used = false;
  };
  // Linear probing over a power-of-two array at most half full. Erase
  // shifts the rest of the probe run back, so there are no tombstones.
  struct Bucket {
    std::vector<Slot> slots;
    std::size_t size = 0;

    std::size_t home(std::uint32_t key) const;
    const Slot* find(std::uint32_t key) const;
    void insert(std::uint32_t key, NodeId egress);
    bool erase(std::uint32_t key);
  };

  Bucket by_len_[33];
  std::uint64_t lengths_ = 0;  // bit len set iff by_len_[len].size > 0
};

// Assigns every router a deterministic /24 under 10.0.0.0/8:
// router k gets 10.(k>>8).(k&255).0/24. Returns the per-router prefix.
std::vector<Prefix> assign_router_prefixes(const Topology& topo);

// A representative host address inside a prefix (the .7 host, as in the
// paper's 1.1.1.7 example).
std::uint32_t host_in(const Prefix& p);

}  // namespace dsdn::topo
