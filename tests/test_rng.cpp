#include "util/rng.hpp"

#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <vector>

namespace isex {
namespace {

TEST(Rng, SameSeedSameStream) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a.next_u32(), b.next_u32());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) same += (a.next_u32() == b.next_u32());
  EXPECT_LT(same, 3);
}

TEST(Rng, ReseedRestartsStream) {
  Rng a(42);
  const std::uint32_t first = a.next_u32();
  a.next_u32();
  a.reseed(42);
  EXPECT_EQ(a.next_u32(), first);
}

TEST(Rng, NextBelowRespectsBound) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const std::uint32_t v = rng.next_below(17);
    EXPECT_LT(v, 17u);
  }
}

TEST(Rng, NextBelowBoundOneIsAlwaysZero) {
  Rng rng(7);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(rng.next_below(1), 0u);
}

TEST(Rng, NextBelowCoversRange) {
  Rng rng(9);
  std::array<int, 8> histogram{};
  for (int i = 0; i < 8000; ++i) histogram[rng.next_below(8)]++;
  for (const int count : histogram) {
    EXPECT_GT(count, 700);  // roughly uniform
    EXPECT_LT(count, 1300);
  }
}

TEST(Rng, NextDoubleInUnitInterval) {
  Rng rng(11);
  double min = 1.0;
  double max = 0.0;
  for (int i = 0; i < 10000; ++i) {
    const double d = rng.next_double();
    ASSERT_GE(d, 0.0);
    ASSERT_LT(d, 1.0);
    min = std::min(min, d);
    max = std::max(max, d);
  }
  EXPECT_LT(min, 0.01);
  EXPECT_GT(max, 0.99);
}

TEST(Rng, WeightedPickHonorsWeights) {
  Rng rng(5);
  const std::vector<double> weights = {1.0, 0.0, 9.0};
  std::array<int, 3> histogram{};
  for (int i = 0; i < 10000; ++i) histogram[rng.weighted_pick(weights)]++;
  EXPECT_EQ(histogram[1], 0);
  EXPECT_GT(histogram[2], histogram[0] * 5);
}

TEST(Rng, WeightedPickZeroTotalFallsBackToUniform) {
  Rng rng(6);
  const std::vector<double> weights = {0.0, 0.0, 0.0, 0.0};
  std::array<int, 4> histogram{};
  for (int i = 0; i < 4000; ++i) histogram[rng.weighted_pick(weights)]++;
  for (const int count : histogram) EXPECT_GT(count, 500);
}

TEST(Rng, WeightedPickSingleEntry) {
  Rng rng(8);
  const std::vector<double> weights = {3.5};
  EXPECT_EQ(rng.weighted_pick(weights), 0u);
}

TEST(Rng, WeightedPickWithTotalMatchesSum) {
  // Given the left-to-right sum of the weights, the overload draws the same
  // index and leaves the generator where the summing overload does.
  Rng gen(12);
  std::vector<std::vector<double>> cases = {
      {0.0, 2.0, 0.0, 5.0, 0.0},  // zeros among positive weights
      {0.0, 0.0, 0.0},            // all zeros: the uniform fallback
      {4.25},                     // a single entry
  };
  for (int t = 0; t < 40; ++t) {
    // Weights spanning 1e-6 to 1e3, some exactly zero.
    std::vector<double> w(1 + gen.next_below(40));
    for (double& x : w)
      x = gen.next_below(6) == 0
              ? 0.0
              : std::pow(10.0, -6.0 + 9.0 * gen.next_double());
    cases.push_back(std::move(w));
  }
  for (std::size_t c = 0; c < cases.size(); ++c) {
    const std::vector<double>& w = cases[c];
    double total = 0.0;
    for (const double x : w) total += x;
    Rng summing(1000 + c);
    Rng given(1000 + c);
    for (int draw = 0; draw < 50; ++draw) {
      ASSERT_EQ(given.weighted_pick(w, total), summing.weighted_pick(w))
          << "case " << c << " draw " << draw;
      ASSERT_TRUE(given == summing) << "case " << c << " draw " << draw;
      EXPECT_EQ(given.next_u32(), summing.next_u32());
    }
  }
}

TEST(Rng, SplitProducesIndependentStream) {
  Rng parent(99);
  Rng child = parent.split();
  // The child stream should not mirror the parent's continuation.
  int same = 0;
  for (int i = 0; i < 100; ++i) same += (parent.next_u32() == child.next_u32());
  EXPECT_LT(same, 3);
}

TEST(Rng, SplitIsDeterministic) {
  Rng a(99);
  Rng b(99);
  Rng ca = a.split();
  Rng cb = b.split();
  for (int i = 0; i < 100; ++i) EXPECT_EQ(ca.next_u32(), cb.next_u32());
}

TEST(Splitmix, KnownSequenceIsStable) {
  std::uint64_t state = 0;
  const std::uint64_t v1 = splitmix64(state);
  const std::uint64_t v2 = splitmix64(state);
  EXPECT_NE(v1, v2);
  std::uint64_t state2 = 0;
  EXPECT_EQ(splitmix64(state2), v1);
}

}  // namespace
}  // namespace isex
