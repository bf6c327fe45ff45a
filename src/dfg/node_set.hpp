// Dense bitset keyed by DFG node id.
//
// ISE candidates, reachability rows, and critical-path markings are all sets
// of node ids over a fixed-size graph; a word-packed bitset makes the
// convexity and grouping checks (which dominate the inner loop) cheap.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

namespace isex::dfg {

using NodeId = std::uint32_t;
inline constexpr NodeId kInvalidNode = static_cast<NodeId>(-1);

/// Fixed-universe bitset over node ids [0, size).
class NodeSet {
 public:
  NodeSet() = default;
  explicit NodeSet(std::size_t universe) { resize(universe); }

  void resize(std::size_t universe);
  std::size_t universe() const { return universe_; }

  void insert(NodeId id);
  void erase(NodeId id);
  bool contains(NodeId id) const;
  void clear();

  /// insert(id); returns true when the bit was newly set.  Lets fixpoint
  /// loops fold the contains/insert pair into one word access.
  bool test_and_set(NodeId id);

  /// In-place union (word-level `|=`); returns true when any bit was newly
  /// set.  Universes must match.
  bool insert_all(const NodeSet& other);

  /// Number of set bits.
  std::size_t count() const;
  /// True when no bit is set.  Early-exits on the first nonzero word rather
  /// than popcounting the whole set (empty() guards several hot loops).
  bool empty() const;

  /// In-place union / intersection / difference. Universes must match.
  NodeSet& operator|=(const NodeSet& other);
  NodeSet& operator&=(const NodeSet& other);
  NodeSet& operator-=(const NodeSet& other);

  bool intersects(const NodeSet& other) const;
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
  static int count_trailing_zeros(std::uint64_t v);
  std::size_t universe_ = 0;
  std::vector<std::uint64_t> words_;
};

}  // namespace isex::dfg
