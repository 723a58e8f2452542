#pragma once

// Golden placements shared by the TE solver tests: an FNV-1a digest over
// a te::Solution, and the seeded corpus the digest tables pin.
//
// The corpus has one row per (load, seed) -- loads {0.6, 1.4} outer,
// gravity seeds 1..4 inner -- and one column per view: intact, one fiber
// cut, two fibers cut. Each digest covers two solves of the view: with
// full capacities, and with a residual_override at half capacity.

#include <gtest/gtest.h>

#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <functional>
#include <vector>

#include "te/types.hpp"
#include "topo/topology.hpp"
#include "traffic/gravity.hpp"
#include "util/rng.hpp"

namespace dsdn::golden {

// FNV-1a over 64-bit words, byte by byte (perfbench's solution_digest
// recipe); doubles enter by bit pattern.
struct Fnv {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  void add(std::uint64_t x) {
    for (int i = 0; i < 8; ++i) {
      h ^= (x >> (8 * i)) & 0xff;
      h *= 0x100000001b3ULL;
    }
  }
  void add(double d) { add(std::bit_cast<std::uint64_t>(d)); }
  void add(const te::Solution& s) {
    add(static_cast<std::uint64_t>(s.allocations.size()));
    for (const auto& a : s.allocations) {
      add(static_cast<std::uint64_t>(a.demand.src));
      add(static_cast<std::uint64_t>(a.demand.dst));
      add(a.allocated_gbps);
      add(static_cast<std::uint64_t>(a.paths.size()));
      for (const auto& wp : a.paths) {
        add(wp.weight);
        for (auto l : wp.path.links) add(static_cast<std::uint64_t>(l));
        for (auto n : wp.segments) add(static_cast<std::uint64_t>(n) << 32);
      }
    }
  }
};

using GoldenTable = std::array<std::array<std::uint64_t, 3>, 8>;

// One solve of `view` under `tm`; `residual` is the override (null = link
// capacities).
using SolveFn = std::function<te::Solution(
    const topo::Topology& view, const traffic::TrafficMatrix& tm,
    const std::vector<double>* residual)>;

// Solves every corpus case of `base` with `solve` and expects each case's
// digest to equal golden[row][cuts].
inline void expect_golden_digests(const topo::Topology& base,
                                  double pair_fraction,
                                  const GoldenTable& golden, const char* name,
                                  const SolveFn& solve) {
  std::vector<topo::LinkId> fibers;
  for (const topo::Link& l : base.links()) {
    if (l.reverse != topo::kInvalidLink && l.id < l.reverse)
      fibers.push_back(l.id);
  }
  std::vector<double> half(base.num_links());
  for (topo::LinkId l = 0; l < base.num_links(); ++l)
    half[l] = 0.5 * base.link(l).capacity_gbps;
  std::size_t row = 0;
  for (double load : {0.6, 1.4}) {
    for (std::uint64_t seed = 1; seed <= 4; ++seed, ++row) {
      traffic::GravityParams gp;
      gp.pair_fraction = pair_fraction;
      gp.target_max_utilization = load;
      gp.seed = seed;
      const auto tm = traffic::generate_gravity(base, gp).aggregated();
      const std::size_t first = util::splitmix64(seed) % fibers.size();
      std::size_t second = util::splitmix64(seed + 100) % fibers.size();
      if (second == first) second = (first + 1) % fibers.size();
      topo::Topology view = base;
      for (std::size_t cuts = 0; cuts < 3; ++cuts) {
        if (cuts == 1) view.set_duplex_up(fibers[first], false);
        if (cuts == 2) view.set_duplex_up(fibers[second], false);
        Fnv f;
        f.add(solve(view, tm, nullptr));
        f.add(solve(view, tm, &half));
        EXPECT_EQ(f.h, golden[row][cuts])
            << name << " load " << std::lround(load * 100) << "% seed "
            << seed << " cuts " << cuts << ": 0x" << std::hex << f.h;
      }
    }
  }
}

}  // namespace dsdn::golden
