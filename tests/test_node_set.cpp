#include "dfg/node_set.hpp"

#include <gtest/gtest.h>

namespace isex::dfg {
namespace {

TEST(NodeSet, StartsEmpty) {
  NodeSet s(100);
  EXPECT_TRUE(s.empty());
  EXPECT_EQ(s.count(), 0u);
  EXPECT_FALSE(s.contains(0));
}

TEST(NodeSet, InsertEraseContains) {
  NodeSet s(100);
  s.insert(5);
  s.insert(63);
  s.insert(64);  // word boundary
  s.insert(99);
  EXPECT_EQ(s.count(), 4u);
  EXPECT_TRUE(s.contains(5));
  EXPECT_TRUE(s.contains(63));
  EXPECT_TRUE(s.contains(64));
  EXPECT_TRUE(s.contains(99));
  s.erase(63);
  EXPECT_FALSE(s.contains(63));
  EXPECT_EQ(s.count(), 3u);
}

TEST(NodeSet, DoubleInsertIsIdempotent) {
  NodeSet s(10);
  s.insert(3);
  s.insert(3);
  EXPECT_EQ(s.count(), 1u);
}

TEST(NodeSet, ContainsOutOfUniverseIsFalse) {
  NodeSet s(10);
  EXPECT_FALSE(s.contains(10));
  EXPECT_FALSE(s.contains(kInvalidNode));
}

TEST(NodeSet, ClearResets) {
  NodeSet s = NodeSet::of(20, {1, 2, 3});
  s.clear();
  EXPECT_TRUE(s.empty());
  EXPECT_EQ(s.universe(), 20u);
}

TEST(NodeSet, UnionIntersectionDifference) {
  NodeSet a = NodeSet::of(10, {1, 2, 3});
  NodeSet b = NodeSet::of(10, {3, 4});
  NodeSet u = a;
  u |= b;
  EXPECT_EQ(u, NodeSet::of(10, {1, 2, 3, 4}));
  NodeSet i = a;
  i &= b;
  EXPECT_EQ(i, NodeSet::of(10, {3}));
  NodeSet d = a;
  d -= b;
  EXPECT_EQ(d, NodeSet::of(10, {1, 2}));
}

TEST(NodeSet, IntersectsAndSubset) {
  const NodeSet a = NodeSet::of(10, {1, 2});
  const NodeSet b = NodeSet::of(10, {2, 3});
  const NodeSet c = NodeSet::of(10, {4});
  EXPECT_TRUE(a.intersects(b));
  EXPECT_FALSE(a.intersects(c));
  EXPECT_TRUE(NodeSet::of(10, {2}).is_subset_of(a));
  EXPECT_FALSE(b.is_subset_of(a));
  EXPECT_TRUE(NodeSet(10).is_subset_of(a));  // empty set
}

TEST(NodeSet, ToVectorAscending) {
  const NodeSet s = NodeSet::of(200, {150, 3, 64, 127});
  const std::vector<NodeId> v = s.to_vector();
  ASSERT_EQ(v.size(), 4u);
  EXPECT_EQ(v[0], 3u);
  EXPECT_EQ(v[1], 64u);
  EXPECT_EQ(v[2], 127u);
  EXPECT_EQ(v[3], 150u);
}

TEST(NodeSet, ForEachVisitsAll) {
  const NodeSet s = NodeSet::of(70, {0, 69});
  std::size_t visits = 0;
  s.for_each([&](NodeId id) {
    EXPECT_TRUE(id == 0 || id == 69);
    ++visits;
  });
  EXPECT_EQ(visits, 2u);
}

TEST(NodeSet, EqualityIncludesUniverse) {
  EXPECT_EQ(NodeSet::of(10, {1}), NodeSet::of(10, {1}));
  EXPECT_NE(NodeSet::of(10, {1}), NodeSet::of(10, {2}));
}

TEST(NodeSet, EmptyUniverse) {
  NodeSet s(0);
  EXPECT_TRUE(s.empty());
  EXPECT_EQ(s.to_vector().size(), 0u);
}

TEST(NodeSet, EmptyTracksInsertAndErase) {
  NodeSet s(256);
  EXPECT_TRUE(s.empty());
  // A bit in the last word: empty() must scan far enough to see it.
  s.insert(255);
  EXPECT_FALSE(s.empty());
  s.erase(255);
  EXPECT_TRUE(s.empty());
  // A bit in the first word: empty() early-exits on the first nonzero word.
  s.insert(0);
  EXPECT_FALSE(s.empty());
  s.erase(0);
  EXPECT_TRUE(s.empty());
}

TEST(NodeSet, TestAndSetReportsNewBitsOnly) {
  NodeSet s(130);
  EXPECT_TRUE(s.test_and_set(5));
  EXPECT_FALSE(s.test_and_set(5));  // already present
  EXPECT_TRUE(s.test_and_set(64));  // word boundary
  EXPECT_TRUE(s.test_and_set(129));
  EXPECT_FALSE(s.test_and_set(129));
  EXPECT_EQ(s.count(), 3u);
  EXPECT_TRUE(s.contains(5));
  EXPECT_TRUE(s.contains(64));
  EXPECT_TRUE(s.contains(129));
}

TEST(NodeSet, InsertAllUnionsAndReportsGrowth) {
  NodeSet a = NodeSet::of(130, {1, 64});
  const NodeSet b = NodeSet::of(130, {64, 65, 129});
  EXPECT_TRUE(a.insert_all(b));  // 65 and 129 are new
  EXPECT_EQ(a, NodeSet::of(130, {1, 64, 65, 129}));
  EXPECT_FALSE(a.insert_all(b));  // already a superset: nothing new
  EXPECT_EQ(a.count(), 4u);
  NodeSet empty(130);
  EXPECT_FALSE(a.insert_all(empty));
}

TEST(NodeSet, WordsExposeThePackedBits) {
  const NodeSet s = NodeSet::of(130, {0, 63, 64, 129});
  const auto words = s.words();
  ASSERT_EQ(words.size(), 3u);  // ceil(130 / 64)
  EXPECT_EQ(words[0], (1ULL << 0) | (1ULL << 63));
  EXPECT_EQ(words[1], 1ULL << 0);
  EXPECT_EQ(words[2], 1ULL << 1);
}

TEST(NodeSet, FirstIsTheSmallestMemberInAnyWord) {
  NodeSet s(201);
  EXPECT_EQ(s.first(), kInvalidNode);
  s.insert(200);
  EXPECT_EQ(s.first(), 200u);
  s.insert(64);
  EXPECT_EQ(s.first(), 64u);
  s.insert(3);
  EXPECT_EQ(s.first(), 3u);
  EXPECT_EQ(NodeSet().first(), kInvalidNode);
}

TEST(NodeSet, EmptyAgreesWithCountOnEveryWord) {
  // One membered set per word of a multi-word universe; empty() and
  // count() == 0 must agree no matter which word holds the bit.
  for (NodeId bit : {0u, 63u, 64u, 127u, 128u, 200u}) {
    NodeSet s(201);
    s.insert(bit);
    EXPECT_FALSE(s.empty()) << "bit " << bit;
    EXPECT_EQ(s.count(), 1u);
    s.erase(bit);
    EXPECT_TRUE(s.empty()) << "bit " << bit;
    EXPECT_EQ(s.count(), 0u);
  }
}

}  // namespace
}  // namespace isex::dfg
