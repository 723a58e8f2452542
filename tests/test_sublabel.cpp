#include <gtest/gtest.h>

#include <set>

#include "dataplane/sublabel.hpp"
#include "te/dijkstra.hpp"
#include "topo/builder.hpp"
#include "topo/synthetic.hpp"
#include "topo/zoo.hpp"
#include "util/rng.hpp"

namespace dsdn::dataplane {
namespace {

// Builds the per-router sublabel FIBs for a whole topology.
std::vector<SublabelFib> build_all_fibs(const topo::Topology& t,
                                        const SublabelAssignment& a) {
  std::vector<SublabelFib> fibs;
  fibs.reserve(t.num_nodes());
  for (topo::NodeId n = 0; n < t.num_nodes(); ++n) {
    fibs.push_back(SublabelFib::build(t, n, a));
  }
  return fibs;
}

TEST(Sublabel, PackUnpackRoundTrip) {
  const Label l = pack_sublabels(513, 7);
  EXPECT_EQ(unpack_sublabels(l), (std::pair<Sublabel, Sublabel>{513, 7}));
  EXPECT_THROW(pack_sublabels(1024, 0), std::invalid_argument);
}

TEST(Sublabel, AssignmentGivesEveryLinkANonNullSublabel) {
  const auto t = topo::make_b4_like();
  const auto a = assign_sublabels(t);
  ASSERT_EQ(a.link_sublabel.size(), t.num_links());
  for (Sublabel s : a.link_sublabel) {
    EXPECT_NE(s, kNullSublabel);
    EXPECT_LE(s, kMaxSublabel);
  }
}

TEST(Sublabel, LocalUniquenessAtEveryNode) {
  // Appendix A.2's requirement: at any node, the sublabels of its ingress
  // and egress links are mutually unique.
  const auto t = topo::make_cogentco();
  const auto a = assign_sublabels(t);
  for (const topo::Node& n : t.nodes()) {
    std::set<Sublabel> seen;
    for (topo::LinkId l : n.in_links) {
      EXPECT_TRUE(seen.insert(a.link_sublabel[l]).second)
          << "collision at node " << n.name;
    }
    for (topo::LinkId l : n.out_links) {
      EXPECT_TRUE(seen.insert(a.link_sublabel[l]).second)
          << "collision at node " << n.name;
    }
  }
}

TEST(Sublabel, SublabelCountWithinDegreeBound) {
  // Greedy fiber coloring uses O(k) values: the paper derives 2k for an
  // optimal coloring; greedy stays within 2*(2k-1).
  const auto t = topo::make_b2_like();
  const auto a = assign_sublabels(t);
  const std::size_t k = t.max_degree();
  EXPECT_LE(a.num_sublabels_used(), 2 * (2 * k - 1));
  // And comfortably inside 10 bits even at B2 scale.
  EXPECT_LE(a.num_sublabels_used(), static_cast<std::size_t>(kMaxSublabel));
}

TEST(Sublabel, TableSizeWithinTwoKSquared) {
  // Appendix A: per-router table <= ~2k^2 entries, independent of network
  // size.
  const auto t = topo::make_b4_like();
  const auto a = assign_sublabels(t);
  for (topo::NodeId n = 0; n < t.num_nodes(); ++n) {
    const auto fib = SublabelFib::build(t, n, a);
    const std::size_t k = std::max(t.node(n).out_links.size(),
                                   t.node(n).in_links.size());
    std::size_t neighbor_degree_sum = 0;
    for (topo::LinkId l : t.node(n).out_links) {
      neighbor_degree_sum += t.node(t.link(l).dst).out_links.size();
    }
    // k(k-1) row-1 entries + row-2 entries + k + k null rows.
    EXPECT_LE(fib.size(), k * k + k * neighbor_degree_sum + 2 * k);
  }
}

TEST(Sublabel, TableBuildDetectsNoAmbiguity) {
  // build() throws on ambiguous keys; it must succeed on every topology
  // we ship.
  for (const auto& entry : topo::zoo_catalog()) {
    const auto t = entry.factory();
    const auto a = assign_sublabels(t);
    EXPECT_NO_THROW(build_all_fibs(t, a)) << entry.name;
  }
}

TEST(Sublabel, EncodeHalvesLabelCount) {
  const auto t = topo::make_line(9);
  te::Path p;
  for (std::size_t i = 0; i + 1 < 9; ++i)
    p.links.push_back(t.find_link(static_cast<topo::NodeId>(i),
                                  static_cast<topo::NodeId>(i + 1)));
  const auto a = assign_sublabels(t);
  const LabelStack s = encode_sublabel_route(p, a);
  EXPECT_EQ(s.depth(), 4u);  // ceil(8/2)
}

TEST(Sublabel, ForwardsOddLengthPath) {
  const auto t = topo::make_line(4);  // 3 hops: odd
  const auto a = assign_sublabels(t);
  const auto fibs = build_all_fibs(t, a);
  te::Path p;
  p.links = {t.find_link(0, 1), t.find_link(1, 2), t.find_link(2, 3)};
  const auto r = forward_sublabel(t, fibs, 0, encode_sublabel_route(p, a));
  EXPECT_TRUE(r.delivered);
  EXPECT_EQ(r.final_node, 3u);
  EXPECT_EQ(r.trace, (std::vector<topo::NodeId>{0, 1, 2, 3}));
}

TEST(Sublabel, ForwardsEvenLengthPath) {
  const auto t = topo::make_line(5);  // 4 hops: even
  const auto a = assign_sublabels(t);
  const auto fibs = build_all_fibs(t, a);
  te::Path p;
  for (std::size_t i = 0; i + 1 < 5; ++i)
    p.links.push_back(t.find_link(static_cast<topo::NodeId>(i),
                                  static_cast<topo::NodeId>(i + 1)));
  const auto r = forward_sublabel(t, fibs, 0, encode_sublabel_route(p, a));
  EXPECT_TRUE(r.delivered);
  EXPECT_EQ(r.final_node, 4u);
}

TEST(Sublabel, SingleHopPath) {
  const auto t = topo::make_line(2);
  const auto a = assign_sublabels(t);
  const auto fibs = build_all_fibs(t, a);
  te::Path p;
  p.links = {t.find_link(0, 1)};
  const auto r = forward_sublabel(t, fibs, 0, encode_sublabel_route(p, a));
  EXPECT_TRUE(r.delivered);
  EXPECT_EQ(r.final_node, 1u);
}

TEST(Sublabel, LongPathBeyondTwelveLabelsWorks) {
  // The whole point of sublabels: a 20-hop path fits in 10 labels.
  const auto t = topo::make_line(21);
  const auto a = assign_sublabels(t);
  const auto fibs = build_all_fibs(t, a);
  te::Path p;
  for (std::size_t i = 0; i + 1 < 21; ++i)
    p.links.push_back(t.find_link(static_cast<topo::NodeId>(i),
                                  static_cast<topo::NodeId>(i + 1)));
  ASSERT_GT(p.hops(), kMaxLabelDepth);
  const LabelStack s = encode_sublabel_route(p, a);
  EXPECT_LE(s.depth(), kMaxLabelDepth);
  const auto r = forward_sublabel(t, fibs, 0, s);
  EXPECT_TRUE(r.delivered);
  EXPECT_EQ(r.final_node, 20u);
}

TEST(Sublabel, OutOfRangeNodeIsAMissNotAnOobRead) {
  // Regression: the walk indexed fibs[at] without a bounds check, so a
  // start node (or a mid-walk hop) outside the table set read out of
  // range. Both cases must report a clean non-delivery at the offending
  // node instead.
  const auto t = topo::make_line(4);
  const auto a = assign_sublabels(t);
  auto fibs = build_all_fibs(t, a);
  te::Path p;
  p.links = {t.find_link(0, 1), t.find_link(1, 2), t.find_link(2, 3)};
  const LabelStack stack = encode_sublabel_route(p, a);

  // Start node beyond the table set.
  const auto start_oob = forward_sublabel(t, fibs, 99, stack);
  EXPECT_FALSE(start_oob.delivered);
  EXPECT_EQ(start_oob.final_node, 99u);

  // Tables covering only a prefix of the topology: the walk leaves the
  // covered range mid-path and must stop at the first uncovered node.
  fibs.resize(2);
  const auto mid_oob = forward_sublabel(t, fibs, 0, stack);
  EXPECT_FALSE(mid_oob.delivered);
  EXPECT_EQ(mid_oob.final_node, 2u);
}

TEST(Sublabel, EncodeDecodeRoundtripProperty) {
  // Property sweep: 10k randomized sublabel sequences -- every length up
  // to the 2*kMaxLabelDepth a full stack can carry, boundary values 1
  // and kMaxSublabel mixed in -- pack into label stacks exactly the way
  // encode_sublabel_route does (null pad on odd lengths) and decode
  // back. The roundtrip must be lossless.
  util::Rng rng(0xD0C0DE);
  for (int trial = 0; trial < 10000; ++trial) {
    const auto len = static_cast<std::size_t>(
        rng.uniform_int(1, static_cast<std::int64_t>(2 * kMaxLabelDepth)));
    std::vector<Sublabel> seq(len);
    for (Sublabel& s : seq) {
      // ~10% boundary values, otherwise uniform over the valid range.
      const double roll = rng.uniform();
      if (roll < 0.05) {
        s = 1;
      } else if (roll < 0.10) {
        s = kMaxSublabel;
      } else {
        s = static_cast<Sublabel>(rng.uniform_int(1, kMaxSublabel));
      }
    }
    std::vector<Label> labels;
    labels.reserve((len + 1) / 2);
    for (std::size_t i = 0; i < len; i += 2) {
      const Sublabel s2 = i + 1 < len ? seq[i + 1] : kNullSublabel;
      labels.push_back(pack_sublabels(seq[i], s2));
    }
    const LabelStack stack(std::move(labels));
    EXPECT_EQ(decode_sublabel_route(stack), seq) << "trial " << trial;
  }
}

TEST(Sublabel, DecodeRejectsMalformedStacks) {
  // A null first sublabel can't come from any encoding.
  EXPECT_THROW(decode_sublabel_route(
                   LabelStack({pack_sublabels(kNullSublabel, 7)})),
               std::invalid_argument);
  // Nor can a null pad anywhere but the final label.
  EXPECT_THROW(decode_sublabel_route(LabelStack({
                   pack_sublabels(3, kNullSublabel),
                   pack_sublabels(5, 6),
               })),
               std::invalid_argument);
  // Empty stack decodes to the empty sequence.
  EXPECT_TRUE(decode_sublabel_route(LabelStack{}).empty());
}

TEST(Sublabel, DecodeInvertsEncodeOnRealPaths) {
  // End-to-end flavor of the property: encode real strict routes on a
  // real topology and check decode returns the path's sublabels.
  const auto t = topo::make_geant();
  const auto a = assign_sublabels(t);
  util::Rng rng(99);
  for (int trial = 0; trial < 200; ++trial) {
    const auto src = static_cast<topo::NodeId>(
        rng.uniform_int(0, static_cast<std::int64_t>(t.num_nodes()) - 1));
    const auto dst = static_cast<topo::NodeId>(
        rng.uniform_int(0, static_cast<std::int64_t>(t.num_nodes()) - 1));
    if (src == dst) continue;
    const auto p = te::shortest_path(t, src, dst);
    ASSERT_TRUE(p.has_value());
    std::vector<Sublabel> expected;
    for (topo::LinkId l : p->links) expected.push_back(a.link_sublabel[l]);
    EXPECT_EQ(decode_sublabel_route(encode_sublabel_route(*p, a)), expected);
  }
}

class SublabelRandomPathTest : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(SublabelRandomPathTest, RandomShortestPathsForwardCorrectly) {
  // Property: on a real topology, any strict route encodes and forwards
  // to exactly its intended egress through the sublabel data plane.
  const auto t = topo::make_geant();
  const auto a = assign_sublabels(t);
  const auto fibs = build_all_fibs(t, a);
  util::Rng rng(GetParam());
  for (int trial = 0; trial < 40; ++trial) {
    const auto src = static_cast<topo::NodeId>(
        rng.uniform_int(0, static_cast<std::int64_t>(t.num_nodes()) - 1));
    const auto dst = static_cast<topo::NodeId>(
        rng.uniform_int(0, static_cast<std::int64_t>(t.num_nodes()) - 1));
    if (src == dst) continue;
    const auto p = te::shortest_path(t, src, dst);
    ASSERT_TRUE(p.has_value());
    const auto r =
        forward_sublabel(t, fibs, src, encode_sublabel_route(*p, a));
    EXPECT_TRUE(r.delivered) << src << "->" << dst;
    EXPECT_EQ(r.final_node, dst);
    EXPECT_EQ(r.hops, p->hops());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SublabelRandomPathTest,
                         ::testing::Values(1, 2, 3, 4, 5));

TEST(Sublabel, CorruptedLabelsStayOnRealLinksAndTerminate) {
  // One label of every stack is garbled: the walk may deliver, miss or
  // wander, but each step must follow a real link, the walk must end
  // within the 4n+8 budget, and it must stop where its trace ends.
  const auto t = topo::make_abilene();
  const auto a = assign_sublabels(t);
  const auto fibs = build_all_fibs(t, a);
  const std::size_t budget = 4 * t.num_nodes() + 8;
  const auto n = static_cast<std::int64_t>(t.num_nodes());
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    util::Rng rng(util::splitmix64(seed));
    for (int trial = 0; trial < 64; ++trial) {
      const auto src = static_cast<topo::NodeId>(rng.uniform_int(0, n - 1));
      const auto dst = static_cast<topo::NodeId>(rng.uniform_int(0, n - 1));
      if (src == dst) continue;
      const auto p = te::shortest_path(t, src, dst);
      ASSERT_TRUE(p.has_value());
      std::vector<Label> labels = encode_sublabel_route(*p, a).labels();
      const auto idx = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(labels.size()) - 1));
      labels[idx] ^= static_cast<Label>(rng.uniform_int(1, kMaxLabelValue));
      labels[idx] &= kMaxLabelValue;
      const auto r =
          forward_sublabel(t, fibs, src, LabelStack(std::move(labels)));
      ASSERT_EQ(r.trace.front(), src);
      for (std::size_t i = 0; i + 1 < r.trace.size(); ++i) {
        EXPECT_NE(t.find_link(r.trace[i], r.trace[i + 1]), topo::kInvalidLink)
            << "seed " << seed << " trial " << trial << " step " << i;
      }
      EXPECT_LE(r.hops, budget);
      EXPECT_EQ(r.hops + 1, r.trace.size());
      EXPECT_EQ(r.final_node, r.trace.back());
    }
  }
}

TEST(Sublabel, DeadLinkMidPathStopsAtItsTail) {
  // Sublabel tables are static and the walk has no FRR: a packet whose
  // path crosses a dead link is dropped at that link's tail.
  const auto t0 = topo::make_abilene();
  const auto a = assign_sublabels(t0);
  const auto fibs = build_all_fibs(t0, a);
  std::size_t checked = 0;
  for (topo::NodeId src = 0; src < t0.num_nodes(); ++src) {
    for (topo::NodeId dst = 0; dst < t0.num_nodes(); ++dst) {
      if (src == dst) continue;
      const auto p = te::shortest_path(t0, src, dst);
      ASSERT_TRUE(p.has_value());
      if (p->hops() < 3) continue;
      const topo::LinkId cut = p->links[p->hops() / 2];
      auto t = t0;
      t.set_duplex_up(cut, false);
      const auto r =
          forward_sublabel(t, fibs, src, encode_sublabel_route(*p, a));
      EXPECT_FALSE(r.delivered) << src << "->" << dst;
      EXPECT_EQ(r.final_node, t.link(cut).src) << src << "->" << dst;
      EXPECT_EQ(r.hops, p->hops() / 2);
      ++checked;
    }
  }
  EXPECT_GT(checked, 0u);
}

TEST(Sublabel, StackDeeperThanSixtyFourLabelsDelivers) {
  // A 139-hop line path packs into 70 sublabel-pair labels.
  const auto t = topo::make_line(140);
  const auto a = assign_sublabels(t);
  const auto fibs = build_all_fibs(t, a);
  te::Path p;
  for (topo::NodeId i = 0; i + 1 < 140; ++i)
    p.links.push_back(t.find_link(i, i + 1));
  const LabelStack s = encode_sublabel_route(p, a);
  ASSERT_EQ(s.depth(), 70u);
  const auto r = forward_sublabel(t, fibs, 0, s);
  EXPECT_TRUE(r.delivered);
  EXPECT_EQ(r.final_node, 139u);
  EXPECT_EQ(r.hops, 139u);
  EXPECT_EQ(r.trace.size(), 140u);
}

}  // namespace
}  // namespace dsdn::dataplane
