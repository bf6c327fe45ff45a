#include "flow/subgraph_match.hpp"

#include <gtest/gtest.h>

#include "flow/merging.hpp"
#include "flow/program.hpp"
#include "test_util.hpp"

namespace isex::flow {
namespace {

TEST(SubgraphMatch, IdenticalChains) {
  const dfg::Graph a = testing::make_chain(3, isa::Opcode::kXor);
  const dfg::Graph b = testing::make_chain(3, isa::Opcode::kXor);
  EXPECT_TRUE(is_subgraph_of(a, b));
  EXPECT_EQ(classify_merge(a, b), MergeRelation::kEqual);
}

TEST(SubgraphMatch, ShorterChainEmbedsInLonger) {
  const dfg::Graph small = testing::make_chain(2, isa::Opcode::kXor);
  const dfg::Graph big = testing::make_chain(5, isa::Opcode::kXor);
  EXPECT_TRUE(is_subgraph_of(small, big));
  EXPECT_FALSE(is_subgraph_of(big, small));
  EXPECT_NE(classify_merge(small, big), MergeRelation::kEqual);
}

TEST(SubgraphMatch, OpcodeLabelsMustMatch) {
  const dfg::Graph xors = testing::make_chain(3, isa::Opcode::kXor);
  const dfg::Graph ands = testing::make_chain(3, isa::Opcode::kAnd);
  EXPECT_FALSE(is_subgraph_of(xors, ands));
}

TEST(SubgraphMatch, EdgeDirectionMatters) {
  dfg::Graph fork;  // a -> b, a -> c
  const auto fa = fork.add_node(isa::Opcode::kXor, "a");
  fork.add_edge(fa, fork.add_node(isa::Opcode::kXor, "b"));
  fork.add_edge(fa, fork.add_node(isa::Opcode::kXor, "c"));

  dfg::Graph join;  // a -> c, b -> c
  const auto ja = join.add_node(isa::Opcode::kXor, "a");
  const auto jb = join.add_node(isa::Opcode::kXor, "b");
  const auto jc = join.add_node(isa::Opcode::kXor, "c");
  join.add_edge(ja, jc);
  join.add_edge(jb, jc);

  EXPECT_FALSE(is_subgraph_of(fork, join));
  EXPECT_FALSE(is_subgraph_of(join, fork));
}

TEST(SubgraphMatch, FindsAllOccurrences) {
  // A 2-chain occurs 4 times in a 5-chain.
  const dfg::Graph pattern = testing::make_chain(2, isa::Opcode::kXor);
  const dfg::Graph target = testing::make_chain(5, isa::Opcode::kXor);
  const auto matches = find_matches(pattern, target);
  EXPECT_EQ(matches.size(), 4u);
  for (const auto& m : matches) {
    ASSERT_EQ(m.size(), 2u);
    EXPECT_TRUE(target.has_edge(m[0], m[1]));
  }
}

TEST(SubgraphMatch, MaxMatchesCap) {
  const dfg::Graph pattern = testing::make_chain(2, isa::Opcode::kXor);
  const dfg::Graph target = testing::make_chain(9, isa::Opcode::kXor);
  MatchOptions opts;
  opts.max_matches = 3;
  EXPECT_EQ(find_matches(pattern, target, opts).size(), 3u);
}

TEST(SubgraphMatch, PatternLargerThanTargetFailsFast) {
  const dfg::Graph small = testing::make_chain(2);
  const dfg::Graph big = testing::make_chain(4);
  EXPECT_TRUE(find_matches(big, small).empty());
}

TEST(SubgraphMatch, EmptyPatternHasNoMatches) {
  dfg::Graph empty;
  const dfg::Graph target = testing::make_chain(3);
  EXPECT_TRUE(find_matches(empty, target).empty());
}

TEST(SubgraphMatch, DiamondInDiamond) {
  const dfg::Graph a = testing::make_diamond();
  const dfg::Graph b = testing::make_diamond();
  EXPECT_EQ(classify_merge(a, b), MergeRelation::kEqual);
}

TEST(SubgraphMatch, IseSupernodesMatchByLatency) {
  dfg::Graph a;
  dfg::IseInfo i1;
  i1.latency_cycles = 2;
  a.add_ise_node(i1, "A");
  dfg::Graph b;
  b.add_ise_node(i1, "B");
  EXPECT_EQ(classify_merge(a, b), MergeRelation::kEqual);
  dfg::Graph c;
  dfg::IseInfo i2;
  i2.latency_cycles = 3;
  c.add_ise_node(i2, "C");
  EXPECT_FALSE(is_subgraph_of(a, c));
}

TEST(SubgraphMatch, MixedOpcodePatternInRealKernel) {
  // srl -> andi shape appears in the CRC kernel twice per step.
  dfg::Graph pattern;
  const auto s = pattern.add_node(isa::Opcode::kSrl, "s");
  const auto m = pattern.add_node(isa::Opcode::kAndi, "m");
  pattern.add_edge(s, m);

  dfg::Graph target;
  const auto x = target.add_node(isa::Opcode::kSrl, "x");
  const auto y = target.add_node(isa::Opcode::kAndi, "y");
  const auto z = target.add_node(isa::Opcode::kXor, "z");
  target.add_edge(x, y);
  target.add_edge(y, z);
  EXPECT_TRUE(is_subgraph_of(pattern, target));
}

// Property: every induced subgraph of a graph matches back into it.
class MatchProperty : public ::testing::TestWithParam<int> {};

TEST_P(MatchProperty, InducedSubgraphAlwaysEmbeds) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 389);
  const dfg::Graph g = testing::make_random_dag(16, rng, 0.5);
  for (int trial = 0; trial < 8; ++trial) {
    dfg::NodeSet s(g.num_nodes());
    for (dfg::NodeId v = 0; v < g.num_nodes(); ++v)
      if (rng.next_double() < 0.4) s.insert(v);
    if (s.empty()) continue;
    const dfg::Graph pattern = induced_subgraph(g, s);
    EXPECT_TRUE(is_subgraph_of(pattern, g));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MatchProperty, ::testing::Range(1, 9));

}  // namespace
}  // namespace isex::flow
