#include "dfg/node_set.hpp"

#include "util/assert.hpp"

namespace isex::dfg {

void NodeSet::clear() {
  for (auto& w : words_) w = 0;
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

}  // namespace isex::dfg
