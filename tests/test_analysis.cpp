#include "dfg/analysis.hpp"

#include <gtest/gtest.h>

#include "test_util.hpp"

namespace isex::dfg {
namespace {

TEST(Reachability, ChainReachesForwardOnly) {
  const Graph g = testing::make_chain(4);
  const Reachability r(g);
  EXPECT_TRUE(r.reaches(0, 3));
  EXPECT_TRUE(r.reaches(1, 2));
  EXPECT_FALSE(r.reaches(3, 0));
  EXPECT_FALSE(r.reaches(2, 2));  // strict
}

TEST(Reachability, AncestorsAndDescendants) {
  const Graph g = testing::make_diamond();
  const Reachability r(g);
  EXPECT_EQ(r.descendants(0).count(), 3u);
  EXPECT_EQ(r.ancestors(3).count(), 3u);
  EXPECT_EQ(r.descendants(3).count(), 0u);
  EXPECT_EQ(r.ancestors(0).count(), 0u);
  EXPECT_TRUE(r.descendants(0).contains(3));
  EXPECT_TRUE(r.ancestors(3).contains(1));
}

TEST(Reachability, DisconnectedPairs) {
  const Graph g = testing::make_parallel_pairs(3);
  const Reachability r(g);
  EXPECT_TRUE(r.reaches(0, 1));
  EXPECT_FALSE(r.reaches(0, 2));
  EXPECT_FALSE(r.reaches(2, 1));
}

TEST(Convexity, ChainSubsetsAreConvexIffContiguous) {
  const Graph g = testing::make_chain(5);
  const Reachability r(g);
  EXPECT_TRUE(is_convex(g, NodeSet::of(5, {1, 2, 3}), r));
  EXPECT_TRUE(is_convex(g, NodeSet::of(5, {0}), r));
  // 1 and 3 with 2 outside: path 1 -> 2 -> 3 leaves and re-enters.
  EXPECT_FALSE(is_convex(g, NodeSet::of(5, {1, 3}), r));
}

TEST(Convexity, DiamondShapes) {
  const Graph g = testing::make_diamond();
  const Reachability r(g);
  EXPECT_TRUE(is_convex(g, NodeSet::of(4, {0, 1, 2, 3}), r));
  EXPECT_TRUE(is_convex(g, NodeSet::of(4, {1, 3}), r));  // b -> d direct
  // {a, d} is non-convex: both b and c are intermediaries.
  EXPECT_FALSE(is_convex(g, NodeSet::of(4, {0, 3}), r));
}

TEST(Convexity, EmptyAndFullSetsAreConvex) {
  Rng rng(3);
  const Graph g = testing::make_random_dag(20, rng);
  const Reachability r(g);
  EXPECT_TRUE(is_convex(g, NodeSet(20), r));
  EXPECT_TRUE(is_convex(g, g.all_nodes(), r));
}

// Property: the word-level test — (∪desc(S) ∩ ∪anc(S)) \ S — agrees with
// the pairwise definition: w ∉ S breaks convexity iff some u, v in S have
// u →…→ w →…→ v.  convexity_violators must list exactly those w.
TEST(Convexity, WordLevelMatchesPairwiseDefinitionOnRandomSets) {
  Rng rng(77);
  int convex = 0;
  int non_convex = 0;
  for (int trial = 0; trial < 40; ++trial) {
    const Graph g = testing::make_random_dag(2 + rng.next_below(90), rng,
                                             0.3 + 0.6 * rng.next_double());
    const Reachability r(g);
    const std::size_t n = g.num_nodes();
    for (int draw = 0; draw < 10; ++draw) {
      const double density = 0.4 * rng.next_double();
      NodeSet s(n);
      for (NodeId v = 0; v < n; ++v)
        if (rng.next_double() < density) s.insert(v);
      const std::vector<NodeId> members = s.to_vector();
      NodeSet pairwise(n);
      for (NodeId w = 0; w < n; ++w) {
        if (s.contains(w)) continue;
        for (const NodeId u : members)
          for (const NodeId v : members)
            if (r.reaches(u, w) && r.reaches(w, v)) pairwise.insert(w);
      }
      EXPECT_EQ(convexity_violators(s, r), pairwise) << "trial " << trial;
      EXPECT_EQ(is_convex(g, s, r), pairwise.empty()) << "trial " << trial;
      ++(pairwise.empty() ? convex : non_convex);
    }
  }
  EXPECT_GT(convex, 50);
  EXPECT_GT(non_convex, 50);
}

TEST(InOutCounts, ChainInterior) {
  Graph g = testing::make_chain(5);
  // Node 0 has 2 extern inputs, node 4 is live-out.
  EXPECT_EQ(count_inputs(g, NodeSet::of(5, {1, 2, 3})), 1);   // from node 0
  EXPECT_EQ(count_outputs(g, NodeSet::of(5, {1, 2, 3})), 1);  // feeds node 4
  EXPECT_EQ(count_inputs(g, NodeSet::of(5, {0, 1})), 2);      // extern only
  EXPECT_EQ(count_outputs(g, NodeSet::of(5, {4})), 1);        // live-out
}

TEST(InOutCounts, SharedProducerCountsOnce) {
  Graph g;
  const auto p = g.add_node(isa::Opcode::kAddu, "p");
  const auto a = g.add_node(isa::Opcode::kXor, "a");
  const auto b = g.add_node(isa::Opcode::kAnd, "b");
  g.add_edge(p, a);
  g.add_edge(p, b);
  EXPECT_EQ(count_inputs(g, NodeSet::of(3, {a, b})), 1);
}

TEST(InOutCounts, MultiConsumerOutputCountsOnce) {
  Graph g;
  const auto a = g.add_node(isa::Opcode::kAddu, "a");
  const auto c1 = g.add_node(isa::Opcode::kXor, "c1");
  const auto c2 = g.add_node(isa::Opcode::kAnd, "c2");
  g.add_edge(a, c1);
  g.add_edge(a, c2);
  EXPECT_EQ(count_outputs(g, NodeSet::of(3, {a})), 1);
}

TEST(LongestPath, UnitLatencyChain) {
  const Graph g = testing::make_chain(4);
  const PathInfo p = longest_path(g, [](NodeId) { return 1.0; });
  EXPECT_DOUBLE_EQ(p.length, 4.0);
  EXPECT_DOUBLE_EQ(p.earliest[0], 0.0);
  EXPECT_DOUBLE_EQ(p.earliest[3], 3.0);
  EXPECT_EQ(p.critical.count(), 4u);  // whole chain critical
}

TEST(LongestPath, SlackOnShortBranch) {
  // a -> b -> d and a -> c -> d with c twice as slow: b has slack.
  Graph g;
  const auto a = g.add_node(isa::Opcode::kAddu, "a");
  const auto b = g.add_node(isa::Opcode::kXor, "b");
  const auto c = g.add_node(isa::Opcode::kMult, "c");
  const auto d = g.add_node(isa::Opcode::kAddu, "d");
  g.add_edge(a, b);
  g.add_edge(a, c);
  g.add_edge(b, d);
  g.add_edge(c, d);
  const PathInfo p = longest_path(g, [&](NodeId v) {
    return v == c ? 2.0 : 1.0;
  });
  EXPECT_DOUBLE_EQ(p.length, 4.0);
  EXPECT_TRUE(p.critical.contains(a));
  EXPECT_TRUE(p.critical.contains(c));
  EXPECT_TRUE(p.critical.contains(d));
  EXPECT_FALSE(p.critical.contains(b));
  EXPECT_DOUBLE_EQ(p.latest[b] - p.earliest[b], 1.0);
}

TEST(LongestPath, EmptyGraph) {
  Graph g;
  const PathInfo p = longest_path(g, [](NodeId) { return 1.0; });
  EXPECT_DOUBLE_EQ(p.length, 0.0);
}

TEST(ConnectedComponents, SplitsPairs) {
  const Graph g = testing::make_parallel_pairs(3);
  const auto comps = weakly_connected_components(g, g.all_nodes());
  EXPECT_EQ(comps.size(), 3u);
  for (const NodeSet& c : comps) EXPECT_EQ(c.count(), 2u);
}

TEST(ConnectedComponents, RespectsWithinMask) {
  const Graph g = testing::make_chain(5);
  // Mask {0, 1, 3, 4}: node 2 missing splits the chain.
  const auto comps =
      weakly_connected_components(g, NodeSet::of(5, {0, 1, 3, 4}));
  EXPECT_EQ(comps.size(), 2u);
}

TEST(ConnectedComponents, EmptyMask) {
  const Graph g = testing::make_chain(3);
  EXPECT_TRUE(weakly_connected_components(g, NodeSet(3)).empty());
}

TEST(InducedCriticalPath, IgnoresOutsideNodes) {
  const Graph g = testing::make_chain(5);
  const std::vector<NodeId> topo = g.topological_order();
  const auto latency = [](NodeId) { return 2.0; };
  EXPECT_DOUBLE_EQ(
      induced_critical_path(g, topo, NodeSet::of(5, {1, 2, 3}), latency), 6.0);
  // 1 and 3 only: the connection through 2 is outside, so two length-1 paths.
  EXPECT_DOUBLE_EQ(
      induced_critical_path(g, topo, NodeSet::of(5, {1, 3}), latency), 2.0);
}

TEST(InducedCriticalPath, EmptySetIsZero) {
  const Graph g = testing::make_chain(3);
  EXPECT_DOUBLE_EQ(induced_critical_path(g, g.topological_order(), NodeSet(3),
                                         [](NodeId) { return 1.0; }),
                   0.0);
}

// Property: for random DAGs, every convex set's collapse stays acyclic.
class ConvexCollapseProperty : public ::testing::TestWithParam<int> {};

TEST_P(ConvexCollapseProperty, ConvexSetsCollapseAcyclically) {
  Rng rng(static_cast<std::uint64_t>(GetParam()));
  const Graph g = testing::make_random_dag(24, rng);
  const Reachability r(g);
  for (int trial = 0; trial < 20; ++trial) {
    // Random contiguous topological window is always convex... not
    // necessarily; so sample random sets and filter by is_convex.
    NodeSet s(g.num_nodes());
    for (NodeId v = 0; v < g.num_nodes(); ++v)
      if (rng.next_double() < 0.3) s.insert(v);
    if (s.empty() || !is_convex(g, s, r)) continue;
    const Graph reduced = g.collapse(s, IseInfo{});
    EXPECT_TRUE(reduced.is_acyclic());
    EXPECT_EQ(reduced.num_nodes(), g.num_nodes() - s.count() + 1);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ConvexCollapseProperty,
                         ::testing::Range(1, 13));

}  // namespace
}  // namespace isex::dfg
// -- appended: live-in value identity ---------------------------------------
namespace isex::dfg {
namespace {

TEST(InOutCounts, SharedLiveInValueCountsOnce) {
  Graph g;
  const auto a = g.add_node(isa::Opcode::kSrl, "a");
  const auto b = g.add_node(isa::Opcode::kSll, "b");
  const auto c = g.add_node(isa::Opcode::kXor, "c");
  g.add_edge(a, c);
  g.add_edge(b, c);
  // Both a and b read the same live-in value (id 0).
  g.set_extern_input_ids(a, {0});
  g.set_extern_input_ids(b, {0});
  EXPECT_EQ(count_inputs(g, NodeSet::of(3, {a, b, c})), 1);
  // Distinct ids count separately.
  g.set_extern_input_ids(b, {1});
  EXPECT_EQ(count_inputs(g, NodeSet::of(3, {a, b, c})), 2);
}

TEST(InOutCounts, DefaultExternIdsAreUnique) {
  Graph g;
  const auto a = g.add_node(isa::Opcode::kAddu, "a");
  const auto b = g.add_node(isa::Opcode::kAddu, "b");
  g.set_extern_inputs(a, 2);
  g.set_extern_inputs(b, 2);
  EXPECT_EQ(count_inputs(g, NodeSet::of(2, {a, b})), 4);
}

TEST(InOutCounts, CollapseDeduplicatesSharedLiveIns) {
  Graph g;
  const auto a = g.add_node(isa::Opcode::kSrl, "a");
  const auto b = g.add_node(isa::Opcode::kSll, "b");
  const auto c = g.add_node(isa::Opcode::kXor, "c");
  g.add_edge(a, c);
  g.add_edge(b, c);
  g.set_extern_input_ids(a, {7});
  g.set_extern_input_ids(b, {7});
  g.set_live_out(c, true);
  const Graph reduced = g.collapse(NodeSet::of(3, {a, b, c}), IseInfo{});
  EXPECT_EQ(reduced.extern_inputs(0), 1);
}

}  // namespace
}  // namespace isex::dfg
