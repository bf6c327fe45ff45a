#include "util/rng.hpp"

#include "util/assert.hpp"

namespace isex {

std::uint64_t splitmix64(std::uint64_t& state) {
  state += 0x9e3779b97f4a7c15ULL;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

void Rng::reseed(std::uint64_t seed) {
  std::uint64_t sm = seed;
  const std::uint64_t init_state = splitmix64(sm);
  const std::uint64_t init_seq = splitmix64(sm);
  state_ = 0;
  inc_ = (init_seq << 1U) | 1U;
  (void)next_u32();
  state_ += init_state;
  (void)next_u32();
}

std::uint32_t Rng::next_below(std::uint32_t bound) {
  ISEX_ASSERT(bound > 0);
  // Lemire-style rejection to avoid modulo bias.
  const std::uint32_t threshold = (0U - bound) % bound;
  for (;;) {
    const std::uint32_t r = next_u32();
    if (r >= threshold) return r % bound;
  }
}

Rng Rng::split() {
  const std::uint64_t hi = next_u32();
  const std::uint64_t lo = next_u32();
  return Rng((hi << 32U) | lo);
}

std::vector<Rng> Rng::split_n(std::size_t n) {
  std::vector<Rng> children;
  children.reserve(n);
  for (std::size_t i = 0; i < n; ++i) children.push_back(split());
  return children;
}

}  // namespace isex
