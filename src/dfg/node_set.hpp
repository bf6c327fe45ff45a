// Dense bitset keyed by DFG node id.
//
// ISE candidates, reachability rows, and critical-path markings are all sets
// of node ids over a fixed-size graph; a word-packed bitset makes the
// convexity and grouping checks (which dominate the inner loop) cheap.
#pragma once

#include <bit>
#include <cstdint>
#include <span>
#include <vector>

#include "util/assert.hpp"

namespace isex::dfg {

using NodeId = std::uint32_t;
inline constexpr NodeId kInvalidNode = static_cast<NodeId>(-1);

/// Fixed-universe bitset over node ids [0, size).
class NodeSet {
 public:
  NodeSet() = default;
  explicit NodeSet(std::size_t universe) { resize(universe); }

  void resize(std::size_t universe) {
    universe_ = universe;
    words_.assign((universe + 63) / 64, 0);
  }
  std::size_t universe() const { return universe_; }

  void insert(NodeId id) {
    ISEX_ASSERT(id < universe_);
    words_[id / 64] |= (1ULL << (id % 64));
  }
  void erase(NodeId id) {
    ISEX_ASSERT(id < universe_);
    words_[id / 64] &= ~(1ULL << (id % 64));
  }
  bool contains(NodeId id) const {
    if (id >= universe_) return false;
    return (words_[id / 64] >> (id % 64)) & 1ULL;
  }
  void clear();

  /// insert(id); returns true when the bit was newly set.  Lets fixpoint
  /// loops fold the contains/insert pair into one word access.
  bool test_and_set(NodeId id) {
    ISEX_ASSERT(id < universe_);
    std::uint64_t& word = words_[id / 64];
    const std::uint64_t bit = 1ULL << (id % 64);
    if ((word & bit) != 0) return false;
    word |= bit;
    return true;
  }

  /// In-place union (word-level `|=`); returns true when any bit was newly
  /// set.  Universes must match.
  bool insert_all(const NodeSet& other) {
    ISEX_ASSERT(universe_ == other.universe_);
    bool changed = false;
    for (std::size_t i = 0; i < words_.size(); ++i) {
      const std::uint64_t merged = words_[i] | other.words_[i];
      changed = changed || merged != words_[i];
      words_[i] = merged;
    }
    return changed;
  }

  /// Number of set bits.
  std::size_t count() const {
    std::size_t total = 0;
    for (const auto w : words_)
      total += static_cast<std::size_t>(std::popcount(w));
    return total;
  }
  /// True when no bit is set.  Early-exits on the first nonzero word rather
  /// than popcounting the whole set (empty() guards several hot loops).
  bool empty() const {
    for (const auto w : words_)
      if (w != 0) return false;
    return true;
  }

  /// In-place union / intersection / difference. Universes must match.
  NodeSet& operator|=(const NodeSet& other) {
    ISEX_ASSERT(universe_ == other.universe_);
    for (std::size_t i = 0; i < words_.size(); ++i)
      words_[i] |= other.words_[i];
    return *this;
  }
  NodeSet& operator&=(const NodeSet& other) {
    ISEX_ASSERT(universe_ == other.universe_);
    for (std::size_t i = 0; i < words_.size(); ++i)
      words_[i] &= other.words_[i];
    return *this;
  }
  NodeSet& operator-=(const NodeSet& other) {
    ISEX_ASSERT(universe_ == other.universe_);
    for (std::size_t i = 0; i < words_.size(); ++i)
      words_[i] &= ~other.words_[i];
    return *this;
  }

  bool intersects(const NodeSet& other) const {
    ISEX_ASSERT(universe_ == other.universe_);
    for (std::size_t i = 0; i < words_.size(); ++i) {
      if ((words_[i] & other.words_[i]) != 0) return true;
    }
    return false;
  }
  bool is_subset_of(const NodeSet& other) const;

  friend bool operator==(const NodeSet&, const NodeSet&) = default;

  /// Smallest member, or kInvalidNode when the set is empty.
  NodeId first() const;

  /// Ascending list of members.
  std::vector<NodeId> to_vector() const;

  /// Raw 64-bit words (bit i of word w = node w*64+i).  Exposed so
  /// fingerprints can hash a member set without enumerating bits.
  std::span<const std::uint64_t> words() const { return words_; }

  /// Calls `fn(NodeId)` for each member in ascending order.
  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (std::size_t w = 0; w < words_.size(); ++w) {
      std::uint64_t bits = words_[w];
      while (bits != 0) {
        const int b = count_trailing_zeros(bits);
        fn(static_cast<NodeId>(w * 64 + static_cast<std::size_t>(b)));
        bits &= bits - 1;
      }
    }
  }

  /// Builds a set from an explicit member list.
  static NodeSet of(std::size_t universe, std::initializer_list<NodeId> members);

 private:
  static int count_trailing_zeros(std::uint64_t v) {
    return std::countr_zero(v);
  }
  std::size_t universe_ = 0;
  std::vector<std::uint64_t> words_;
};

}  // namespace isex::dfg
