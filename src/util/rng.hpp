// Deterministic pseudo-random number generation for the ACO explorer.
//
// All stochastic components of the library draw from an injected Rng so that
// every experiment is exactly reproducible from its seed.  The generator is
// PCG32 (O'Neill, 2014): small state, good statistical quality, and stable
// output across platforms — unlike std::mt19937 + std::uniform_*_distribution,
// whose distributions are implementation-defined.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "util/assert.hpp"

namespace isex {

/// Permuted congruential generator (PCG-XSH-RR 64/32) with distribution
/// helpers whose output is identical on every platform.
class Rng {
 public:
  /// Seeds via SplitMix64 so that consecutive small seeds yield uncorrelated
  /// streams.
  explicit Rng(std::uint64_t seed = 0x853c49e6748fea9bULL) { reseed(seed); }

  void reseed(std::uint64_t seed);

  /// Uniform 32-bit value.
  std::uint32_t next_u32() {
    const std::uint64_t old = state_;
    state_ = old * 6364136223846793005ULL + inc_;
    const auto xorshifted =
        static_cast<std::uint32_t>(((old >> 18U) ^ old) >> 27U);
    const auto rot = static_cast<std::uint32_t>(old >> 59U);
    return (xorshifted >> rot) | (xorshifted << ((32U - rot) & 31U));
  }

  /// Uniform value in [0, bound). bound must be > 0.
  std::uint32_t next_below(std::uint32_t bound);

  /// Uniform double in [0, 1).
  double next_double() {
    // 53 random bits into [0, 1).
    const std::uint64_t hi = next_u32();
    const std::uint64_t lo = next_u32();
    const std::uint64_t bits = ((hi << 32U) | lo) >> 11U;
    return static_cast<double>(bits) * 0x1.0p-53;
  }

  /// Samples an index according to non-negative weights.  Zero-total weight
  /// falls back to uniform choice.  Empty spans are a precondition violation.
  std::size_t weighted_pick(std::span<const double> weights) {
    double total = 0.0;
    for (const double w : weights) {
      ISEX_ASSERT_MSG(w >= 0.0, "weights must be non-negative");
      total += w;
    }
    return weighted_pick(weights, total);
  }

  /// weighted_pick with the sum supplied by the caller, who keeps it as a
  /// running prefix sum.  `total` must be the left-to-right sum 0.0 + w_0 +
  /// w_1 + … of the (non-negative, caller-checked) weights; the draw and the
  /// generator's next state then match weighted_pick(weights) bit for bit.
  /// The scan subtracts weight by weight on purpose: `ticket − S_i` rounds
  /// differently, so a binary search over the prefix sums would not.
  std::size_t weighted_pick(std::span<const double> weights, double total) {
    ISEX_ASSERT_MSG(!weights.empty(),
                    "weighted_pick needs at least one weight");
    if (total <= 0.0)
      return next_below(static_cast<std::uint32_t>(weights.size()));
    double ticket = next_double() * total;
    for (std::size_t i = 0; i < weights.size(); ++i) {
      ticket -= weights[i];
      if (ticket < 0.0) return i;
    }
    return weights.size() - 1;  // guard against rounding at the top end
  }

  /// Derives an independent child stream (for per-repeat isolation).
  Rng split();

  /// Derives `n` child streams by `n` consecutive split() calls.  This is
  /// the determinism anchor of the parallel runtime: the fan-out layer
  /// derives every job's stream serially through this helper, then runs the
  /// jobs in any order — results match the serial loop bit for bit, and the
  /// parent ends in the same state either way.
  std::vector<Rng> split_n(std::size_t n);

  /// Equal generators produce equal streams from here on.
  bool operator==(const Rng&) const = default;

 private:
  std::uint64_t state_ = 0;
  std::uint64_t inc_ = 0;
};

/// SplitMix64 single-step mix; exposed for seed derivation in experiments.
std::uint64_t splitmix64(std::uint64_t& state);

}  // namespace isex
