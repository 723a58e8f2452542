#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <map>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "topo/builder.hpp"
#include "topo/prefix.hpp"
#include "topo/synthetic.hpp"
#include "topo/topology.hpp"
#include "topo/zoo.hpp"
#include "util/rng.hpp"

namespace dsdn::topo {
namespace {

TEST(Topology, AddNodesAndLinks) {
  Topology t;
  const NodeId a = t.add_node("a", "metro-a");
  const NodeId b = t.add_node("b");
  const LinkId l = t.add_link(a, b, 100.0, 2.0, 0.005);
  EXPECT_EQ(t.num_nodes(), 2u);
  EXPECT_EQ(t.num_links(), 1u);
  EXPECT_EQ(t.link(l).src, a);
  EXPECT_EQ(t.link(l).dst, b);
  EXPECT_EQ(t.node(b).metro, "b");  // metro defaults to name
  EXPECT_EQ(t.node(a).metro, "metro-a");
  t.validate();
}

TEST(Topology, RejectsBadLinks) {
  Topology t;
  const NodeId a = t.add_node("a");
  const NodeId b = t.add_node("b");
  EXPECT_THROW(t.add_link(a, a, 10), std::invalid_argument);
  EXPECT_THROW(t.add_link(a, 99, 10), std::out_of_range);
  EXPECT_THROW(t.add_link(a, b, 0.0), std::invalid_argument);
  // IGP metrics must be finite and positive: zero-cost cycles make the
  // shortest-path DAGs cyclic.
  for (double metric : {0.0, -1.0, std::numeric_limits<double>::quiet_NaN(),
                        std::numeric_limits<double>::infinity()}) {
    EXPECT_THROW(t.add_link(a, b, 10.0, metric), std::invalid_argument)
        << metric;
    EXPECT_THROW(t.add_duplex(a, b, 10.0, metric), std::invalid_argument)
        << metric;
  }
  EXPECT_EQ(t.num_links(), 0u);
  t.add_link(a, b, 10.0, 1e-3);
}

TEST(Topology, DuplexCrossReferences) {
  Topology t;
  const NodeId a = t.add_node("a");
  const NodeId b = t.add_node("b");
  const LinkId fwd = t.add_duplex(a, b, 10);
  const LinkId rev = t.link(fwd).reverse;
  ASSERT_NE(rev, kInvalidLink);
  EXPECT_EQ(t.link(rev).src, b);
  EXPECT_EQ(t.link(rev).reverse, fwd);
}

TEST(Topology, SetDuplexUpTogglesBothDirections) {
  Topology t = make_line(3);
  const LinkId l = t.find_link(0, 1);
  ASSERT_NE(l, kInvalidLink);
  t.set_duplex_up(l, false);
  EXPECT_FALSE(t.link(l).up);
  EXPECT_FALSE(t.link(t.link(l).reverse).up);
  EXPECT_EQ(t.find_link(0, 1), kInvalidLink);  // find_link skips down links
  t.set_duplex_up(l, true);
  EXPECT_NE(t.find_link(0, 1), kInvalidLink);
}

TEST(Topology, UpNeighborsReflectLinkState) {
  Topology t = make_ring(4);
  EXPECT_EQ(t.up_neighbors(0).size(), 2u);
  t.set_duplex_up(t.find_link(0, 1), false);
  EXPECT_EQ(t.up_neighbors(0).size(), 1u);
}

TEST(Builder, BuildsFromSpecsWithImplicitNodes) {
  Topology t = build_from_specs({{"x", "", 2.0}}, {{"x", "y", 40, 1, 3.0}});
  EXPECT_EQ(t.num_nodes(), 2u);
  EXPECT_EQ(t.num_links(), 2u);  // duplex
  EXPECT_DOUBLE_EQ(t.link(0).capacity_gbps, 40.0);
  EXPECT_NEAR(t.link(0).delay_s, 0.003, 1e-12);
}

TEST(Builder, RejectsDuplicateNames) {
  EXPECT_THROW(build_from_specs({{"x", "", 1.0}, {"x", "", 1.0}}, {}), std::invalid_argument);
}

TEST(Builder, Connectivity) {
  Topology line = make_line(5);
  EXPECT_TRUE(is_strongly_connected(line));
  line.set_duplex_up(line.find_link(1, 2), false);
  EXPECT_FALSE(is_strongly_connected(line));
}

// Up-link reachability on random graphs -- simplex and duplex links,
// some down, some excluded, isolated nodes -- against a brute-force
// transitive closure: every root in both directions, and strong
// connectivity.
TEST(Builder, ReachabilityMatchesTransitiveClosure) {
  util::Rng rng(0x5EAC4ULL);
  std::size_t strong = 0, weak = 0, with_isolated = 0;
  for (int trial = 0; trial < 300; ++trial) {
    Topology t;
    const auto n = static_cast<std::size_t>(rng.uniform_int(1, 8));
    for (std::size_t i = 0; i < n; ++i) t.add_node("n" + std::to_string(i));
    const auto links = rng.uniform_int(0, static_cast<std::int64_t>(2 * n));
    for (std::int64_t i = 0; i < links; ++i) {
      const auto a = static_cast<NodeId>(rng.uniform_int(0, n - 1));
      const auto b = static_cast<NodeId>(rng.uniform_int(0, n - 1));
      if (a == b) continue;
      const LinkId l = rng.bernoulli(0.5) ? t.add_link(a, b, 10.0)
                                          : t.add_duplex(a, b, 10.0);
      if (rng.bernoulli(0.2)) t.set_link_up(l, false);
    }
    std::vector<LinkId> excluded;
    for (const Link& l : t.links()) {
      if (rng.bernoulli(0.15)) excluded.push_back(l.id);
    }
    with_isolated += std::ranges::any_of(t.nodes(), [](const Node& v) {
      return v.out_links.empty() && v.in_links.empty();
    });

    for (const std::span<const LinkId> skip :
         {std::span<const LinkId>(), std::span<const LinkId>(excluded)}) {
      // closure[u][v]: v is reachable from u over up links not in skip.
      std::vector<std::vector<char>> closure(n, std::vector<char>(n, 0));
      for (std::size_t u = 0; u < n; ++u) closure[u][u] = 1;
      for (const Link& l : t.links()) {
        if (l.up && std::ranges::find(skip, l.id) == skip.end())
          closure[l.src][l.dst] = 1;
      }
      for (std::size_t k = 0; k < n; ++k)
        for (std::size_t u = 0; u < n; ++u)
          for (std::size_t v = 0; v < n; ++v)
            if (closure[u][k] && closure[k][v]) closure[u][v] = 1;

      for (NodeId root = 0; root < n; ++root) {
        const auto from =
            reachable_over_up_links(t, root, Reach::kForward, skip);
        const auto to =
            reachable_over_up_links(t, root, Reach::kBackward, skip);
        ASSERT_EQ(from.size(), n);
        ASSERT_EQ(to.size(), n);
        for (NodeId v = 0; v < n; ++v) {
          EXPECT_EQ(from[v], closure[root][v]) << "trial " << trial;
          EXPECT_EQ(to[v], closure[v][root]) << "trial " << trial;
        }
      }
      if (!skip.empty()) continue;
      bool all_pairs = true;
      for (const auto& row : closure)
        for (char reach : row) all_pairs = all_pairs && reach;
      EXPECT_EQ(is_strongly_connected(t), all_pairs) << "trial " << trial;
      ++(all_pairs ? strong : weak);
    }
  }
  // Both answers came up, and so did isolated nodes.
  EXPECT_GT(strong, 20u);
  EXPECT_GT(weak, 20u);
  EXPECT_GT(with_isolated, 20u);
}

TEST(Zoo, AbileneMatchesHistoricalShape) {
  const Topology t = make_abilene();
  EXPECT_EQ(t.num_nodes(), 11u);
  EXPECT_EQ(t.num_links(), 28u);  // 14 circuits, duplex
  EXPECT_TRUE(is_strongly_connected(t));
  t.validate();
}

TEST(Zoo, CatalogNodeCountsMatchPaper) {
  for (const auto& entry : zoo_catalog()) {
    const Topology t = entry.factory();
    EXPECT_EQ(t.num_nodes(), entry.expected_nodes) << entry.name;
    EXPECT_TRUE(is_strongly_connected(t)) << entry.name;
    t.validate();
  }
}

TEST(Synthetic, B4LikeScale) {
  const Topology t = make_b4_like();
  // O(100) nodes (§5.1.1).
  EXPECT_GE(t.num_nodes(), 80u);
  EXPECT_LE(t.num_nodes(), 150u);
  EXPECT_TRUE(is_strongly_connected(t));
  EXPECT_GT(t.metros().size(), 20u);
}

TEST(Synthetic, B2LargerThanB4PerPaper) {
  // §5.3: B2 has ~6x more nodes and ~10x more links than B4.
  const Topology b4 = make_b4_like();
  const Topology b2 = make_b2_like();
  const double node_ratio = static_cast<double>(b2.num_nodes()) /
                            static_cast<double>(b4.num_nodes());
  const double link_ratio = static_cast<double>(b2.num_links()) /
                            static_cast<double>(b4.num_links());
  EXPECT_GE(node_ratio, 4.0);
  EXPECT_LE(node_ratio, 12.0);
  EXPECT_GE(link_ratio, 4.0);
  EXPECT_TRUE(is_strongly_connected(b2));
}

TEST(Synthetic, GrowthSnapshotsGrow) {
  const auto snaps = b2_growth_snapshots(6, 0.5);
  ASSERT_EQ(snaps.size(), 6u);
  for (std::size_t i = 1; i < snaps.size(); ++i) {
    EXPECT_GT(snaps[i].topo.num_nodes(), snaps[i - 1].topo.num_nodes());
  }
}

TEST(Synthetic, GeneratorsAreDeterministic) {
  const Topology a = make_b4_like();
  const Topology b = make_b4_like();
  ASSERT_EQ(a.num_links(), b.num_links());
  for (std::size_t l = 0; l < a.num_links(); ++l) {
    EXPECT_EQ(a.link(static_cast<LinkId>(l)).src,
              b.link(static_cast<LinkId>(l)).src);
    EXPECT_EQ(a.link(static_cast<LinkId>(l)).dst,
              b.link(static_cast<LinkId>(l)).dst);
  }
}

TEST(Synthetic, Fig5HasParallelPaths) {
  const Topology t = make_fig5();
  EXPECT_EQ(t.num_nodes(), 3u);
  EXPECT_TRUE(is_strongly_connected(t));
  EXPECT_NE(t.find_link(0, 1), kInvalidLink);  // direct
  EXPECT_NE(t.find_link(0, 2), kInvalidLink);  // via R2
}

TEST(Prefix, ParseAndFormatRoundTrip) {
  EXPECT_EQ(format_ipv4(parse_ipv4("10.1.2.3")), "10.1.2.3");
  EXPECT_THROW(parse_ipv4("300.1.1.1"), std::invalid_argument);
}

TEST(Prefix, ContainsRespectsMask) {
  Prefix p{parse_ipv4("10.1.2.0"), 24};
  EXPECT_TRUE(p.contains(parse_ipv4("10.1.2.77")));
  EXPECT_FALSE(p.contains(parse_ipv4("10.1.3.77")));
  EXPECT_EQ(p.to_string(), "10.1.2.0/24");
}

TEST(Prefix, LongestPrefixMatchWins) {
  PrefixTable table;
  table.insert({parse_ipv4("10.0.0.0"), 8}, 1);
  table.insert({parse_ipv4("10.1.0.0"), 16}, 2);
  table.insert({parse_ipv4("10.1.2.0"), 24}, 3);
  EXPECT_EQ(table.lookup(parse_ipv4("10.1.2.9")).value(), 3u);
  EXPECT_EQ(table.lookup(parse_ipv4("10.1.9.9")).value(), 2u);
  EXPECT_EQ(table.lookup(parse_ipv4("10.9.9.9")).value(), 1u);
  EXPECT_FALSE(table.lookup(parse_ipv4("11.0.0.1")).has_value());
}

TEST(Prefix, InsertReplacesAndEraseRemoves) {
  PrefixTable table;
  Prefix p{parse_ipv4("10.1.2.0"), 24};
  table.insert(p, 1);
  table.insert(p, 2);
  EXPECT_EQ(table.size(), 1u);
  EXPECT_EQ(table.lookup(parse_ipv4("10.1.2.1")).value(), 2u);
  table.erase(p);
  EXPECT_FALSE(table.lookup(parse_ipv4("10.1.2.1")).has_value());
}

TEST(Prefix, RouterPrefixesAreUniqueAndCoverHosts) {
  const Topology t = make_b4_like();
  const auto prefixes = assign_router_prefixes(t);
  ASSERT_EQ(prefixes.size(), t.num_nodes());
  PrefixTable table;
  for (NodeId n = 0; n < t.num_nodes(); ++n) table.insert(prefixes[n], n);
  EXPECT_EQ(table.size(), t.num_nodes());  // no collisions
  for (NodeId n = 0; n < t.num_nodes(); ++n) {
    EXPECT_EQ(table.lookup(host_in(prefixes[n])).value(), n);
  }
}

// Reference LPM: every stored (length, masked address), probed longest
// length first through an ordered map.
struct ReferenceLpm {
  std::map<std::pair<int, std::uint32_t>, NodeId> entries;

  void insert(const Prefix& p, NodeId egress) {
    entries[{p.len, p.addr & p.mask()}] = egress;
  }
  void erase(const Prefix& p) { entries.erase({p.len, p.addr & p.mask()}); }
  std::optional<NodeId> lookup(std::uint32_t ip) const {
    for (int len = 32; len >= 0; --len) {
      const auto it = entries.find({len, ip & Prefix{0, len}.mask()});
      if (it != entries.end()) return it->second;
    }
    return std::nullopt;
  }
};

TEST(Prefix, TableMatchesBruteForceLpmUnderRandomEdits) {
  util::Rng rng(0x1F7AB1E);
  PrefixTable table;
  ReferenceLpm ref;
  std::vector<Prefix> inserted;
  // Addresses cluster in two /8s so prefixes of different lengths nest.
  const auto draw_ip = [&] {
    const std::uint32_t top = rng.bernoulli(0.5) ? 10u : 172u;
    return (top << 24) |
           static_cast<std::uint32_t>(rng.uniform_int(0, (1 << 24) - 1));
  };
  const auto check = [&](std::uint32_t ip) {
    ASSERT_EQ(table.lookup(ip), ref.lookup(ip)) << format_ipv4(ip);
  };
  for (int step = 0; step < 12000; ++step) {
    const std::int64_t op = rng.uniform_int(0, 99);
    if (step == 6000) {
      table.clear();
      ref.entries.clear();
      inserted.clear();
    } else if (op < 55) {
      // Lengths /0../32; /24 most often so one bucket grows through
      // several rehashes.
      const int len = rng.bernoulli(0.4)
                          ? 24
                          : static_cast<int>(rng.uniform_int(0, 32));
      const Prefix p{draw_ip(), len};
      const auto egress = static_cast<NodeId>(rng.uniform_int(0, 63));
      table.insert(p, egress);
      ref.insert(p, egress);
      inserted.push_back(p);
    } else if (op < 80 && !inserted.empty()) {
      const Prefix p = rng.pick(inserted);  // may already be gone
      table.erase(p);
      ref.erase(p);
    } else if (op < 85) {
      const Prefix p{draw_ip(), static_cast<int>(rng.uniform_int(0, 32))};
      table.erase(p);  // mostly absent
      ref.erase(p);
    }
    ASSERT_EQ(table.size(), ref.entries.size()) << "step " << step;
    check(draw_ip());
    check(static_cast<std::uint32_t>(rng.engine()()));
    if (!inserted.empty()) {
      const Prefix& p = rng.pick(inserted);
      check((p.addr & p.mask()) |
            (static_cast<std::uint32_t>(rng.engine()()) & ~p.mask()));
    }
  }
  EXPECT_GT(table.size(), 500u);  // the /24 bucket rehashed several times
  table.clear();
  EXPECT_EQ(table.size(), 0u);
  EXPECT_FALSE(table.lookup(parse_ipv4("10.1.2.3")).has_value());
}

}  // namespace
}  // namespace dsdn::topo
