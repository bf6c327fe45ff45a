#include "dfg/node_set.hpp"

#include <bit>

#include "util/assert.hpp"

namespace isex::dfg {

void NodeSet::resize(std::size_t universe) {
  universe_ = universe;
  words_.assign((universe + 63) / 64, 0);
}

void NodeSet::insert(NodeId id) {
  ISEX_ASSERT(id < universe_);
  words_[id / 64] |= (1ULL << (id % 64));
}

void NodeSet::erase(NodeId id) {
  ISEX_ASSERT(id < universe_);
  words_[id / 64] &= ~(1ULL << (id % 64));
}

bool NodeSet::contains(NodeId id) const {
  if (id >= universe_) return false;
  return (words_[id / 64] >> (id % 64)) & 1ULL;
}

void NodeSet::clear() {
  for (auto& w : words_) w = 0;
}

bool NodeSet::test_and_set(NodeId id) {
  ISEX_ASSERT(id < universe_);
  std::uint64_t& word = words_[id / 64];
  const std::uint64_t bit = 1ULL << (id % 64);
  if ((word & bit) != 0) return false;
  word |= bit;
  return true;
}

bool NodeSet::insert_all(const NodeSet& other) {
  ISEX_ASSERT(universe_ == other.universe_);
  bool changed = false;
  for (std::size_t i = 0; i < words_.size(); ++i) {
    const std::uint64_t merged = words_[i] | other.words_[i];
    changed = changed || merged != words_[i];
    words_[i] = merged;
  }
  return changed;
}

std::size_t NodeSet::count() const {
  std::size_t total = 0;
  for (const auto w : words_) total += static_cast<std::size_t>(std::popcount(w));
  return total;
}

bool NodeSet::empty() const {
  for (const auto w : words_)
    if (w != 0) return false;
  return true;
}

NodeSet& NodeSet::operator|=(const NodeSet& other) {
  ISEX_ASSERT(universe_ == other.universe_);
  for (std::size_t i = 0; i < words_.size(); ++i) words_[i] |= other.words_[i];
  return *this;
}

NodeSet& NodeSet::operator&=(const NodeSet& other) {
  ISEX_ASSERT(universe_ == other.universe_);
  for (std::size_t i = 0; i < words_.size(); ++i) words_[i] &= other.words_[i];
  return *this;
}

NodeSet& NodeSet::operator-=(const NodeSet& other) {
  ISEX_ASSERT(universe_ == other.universe_);
  for (std::size_t i = 0; i < words_.size(); ++i) words_[i] &= ~other.words_[i];
  return *this;
}

bool NodeSet::intersects(const NodeSet& other) const {
  ISEX_ASSERT(universe_ == other.universe_);
  for (std::size_t i = 0; i < words_.size(); ++i) {
    if ((words_[i] & other.words_[i]) != 0) return true;
  }
  return false;
}

bool NodeSet::is_subset_of(const NodeSet& other) const {
  ISEX_ASSERT(universe_ == other.universe_);
  for (std::size_t i = 0; i < words_.size(); ++i) {
    if ((words_[i] & ~other.words_[i]) != 0) return false;
  }
  return true;
}

NodeId NodeSet::first() const {
  for (std::size_t w = 0; w < words_.size(); ++w) {
    if (words_[w] != 0)
      return static_cast<NodeId>(w * 64 + static_cast<std::size_t>(
                                              count_trailing_zeros(words_[w])));
  }
  return kInvalidNode;
}

std::vector<NodeId> NodeSet::to_vector() const {
  std::vector<NodeId> out;
  out.reserve(count());
  for_each([&](NodeId id) { out.push_back(id); });
  return out;
}

NodeSet NodeSet::of(std::size_t universe, std::initializer_list<NodeId> members) {
  NodeSet s(universe);
  for (const NodeId m : members) s.insert(m);
  return s;
}

int NodeSet::count_trailing_zeros(std::uint64_t v) {
  return std::countr_zero(v);
}

}  // namespace isex::dfg
