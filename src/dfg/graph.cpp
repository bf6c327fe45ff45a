#include "dfg/graph.hpp"

#include <algorithm>

#include "util/assert.hpp"

namespace isex::dfg {
namespace {

/// Kahn's pass with a LIFO ready stack: calls `emit` on each node in
/// topological order and returns how many it emitted, fewer than the nodes
/// when a cycle holds the rest back.
template <typename Emit>
std::size_t kahn(const std::vector<std::vector<NodeId>>& preds,
                 const std::vector<std::vector<NodeId>>& succs, Emit emit) {
  std::vector<int> in_degree(preds.size());
  std::vector<NodeId> ready;
  ready.reserve(preds.size());
  for (NodeId v = 0; v < preds.size(); ++v) {
    in_degree[v] = static_cast<int>(preds[v].size());
    if (in_degree[v] == 0) ready.push_back(v);
  }
  std::size_t emitted = 0;
  while (!ready.empty()) {
    const NodeId v = ready.back();
    ready.pop_back();
    emit(v);
    ++emitted;
    for (const NodeId s : succs[v])
      if (--in_degree[s] == 0) ready.push_back(s);
  }
  return emitted;
}

}  // namespace

NodeId Graph::add_node(isa::Opcode opcode, std::string label) {
  const auto id = static_cast<NodeId>(nodes_.size());
  Node& node = nodes_.emplace_back();
  node.opcode = opcode;
  node.label = std::move(label);
  succs_.emplace_back();
  preds_.emplace_back();
  extern_input_ids_.emplace_back();
  live_out_.push_back(false);
  return id;
}

NodeId Graph::add_ise_node(IseInfo info, std::string label) {
  const auto id = add_node(isa::Opcode::kNop, std::move(label));
  nodes_[id].is_ise = true;
  nodes_[id].ise = std::move(info);
  return id;
}

void Graph::reserve(std::size_t n) {
  nodes_.reserve(n);
  succs_.reserve(n);
  preds_.reserve(n);
  extern_input_ids_.reserve(n);
  live_out_.reserve(n);
}

void Graph::add_edge(NodeId from, NodeId to) {
  ISEX_ASSERT(from < nodes_.size() && to < nodes_.size());
  ISEX_ASSERT_MSG(from != to, "self-edges are not allowed in a DFG");
  if (has_edge(from, to)) return;
  succs_[from].push_back(to);
  preds_[to].push_back(from);
  ++num_edges_;
}

void Graph::set_extern_inputs(NodeId id, int count) {
  ISEX_ASSERT(id < nodes_.size());
  ISEX_ASSERT(count >= 0);
  std::vector<int> ids(static_cast<std::size_t>(count));
  for (int& v : ids) v = next_unique_extern_id_++;
  extern_input_ids_[id] = std::move(ids);
}

void Graph::set_extern_input_ids(NodeId id, std::vector<int> value_ids) {
  ISEX_ASSERT(id < nodes_.size());
  extern_input_ids_[id] = std::move(value_ids);
  for (const int v : extern_input_ids_[id])
    next_unique_extern_id_ = std::max(next_unique_extern_id_, v + 1);
}

int Graph::extern_inputs(NodeId id) const {
  ISEX_ASSERT(id < nodes_.size());
  return static_cast<int>(extern_input_ids_[id].size());
}

void Graph::set_live_out(NodeId id, bool live) {
  ISEX_ASSERT(id < nodes_.size());
  live_out_[id] = live;
}

bool Graph::has_edge(NodeId from, NodeId to) const {
  ISEX_ASSERT(from < nodes_.size() && to < nodes_.size());
  const auto& s = succs_[from];
  return std::find(s.begin(), s.end(), to) != s.end();
}

std::vector<NodeId> Graph::topological_order() const {
  std::vector<NodeId> order;
  order.reserve(nodes_.size());
  kahn(preds_, succs_, [&order](NodeId v) { order.push_back(v); });
  ISEX_ASSERT_MSG(order.size() == nodes_.size(), "graph contains a cycle");
  return order;
}

bool Graph::is_acyclic() const {
  return kahn(preds_, succs_, [](NodeId) {}) == nodes_.size();
}

NodeSet Graph::all_nodes() const {
  NodeSet s(nodes_.size());
  for (NodeId v = 0; v < nodes_.size(); ++v) s.insert(v);
  return s;
}

Graph Graph::collapse(const NodeSet& members, IseInfo info,
                      std::vector<NodeId>* old_to_new) const {
  ISEX_ASSERT(members.universe() == nodes_.size());
  ISEX_ASSERT_MSG(!members.empty(), "cannot collapse an empty member set");

  Graph reduced;
  std::vector<NodeId> remap(nodes_.size(), kInvalidNode);

  // Record member labels for reporting before they disappear.
  members.for_each([&](NodeId m) {
    const Node& n = nodes_[m];
    info.member_labels.push_back(n.label.empty()
                                     ? std::string(isa::mnemonic(n.opcode))
                                     : n.label);
  });

  // Keep surviving nodes in original order; splice in the supernode at the
  // position of the first member so schedules stay intuitive.
  NodeId super = kInvalidNode;
  for (NodeId v = 0; v < nodes_.size(); ++v) {
    if (members.contains(v)) {
      if (super == kInvalidNode)
        super = reduced.add_ise_node(info, "ISE");
      remap[v] = super;
    } else {
      const Node& n = nodes_[v];
      const NodeId nv = n.is_ise ? reduced.add_ise_node(n.ise, n.label)
                                 : reduced.add_node(n.opcode, n.label);
      reduced.node(nv).mem_latency = n.mem_latency;
      remap[v] = nv;
    }
  }

  // Rebuild edges, dropping intra-member edges (they dedupe to nothing) and
  // merging parallel edges at the supernode boundary.
  for (NodeId u = 0; u < nodes_.size(); ++u) {
    for (const NodeId v : succs_[u]) {
      const NodeId nu = remap[u];
      const NodeId nv = remap[v];
      if (nu == nv) continue;  // edge internal to the ISE
      reduced.add_edge(nu, nv);
    }
  }

  // Aggregate extern value ids (deduplicated) and live-out flags.
  std::vector<int> super_extern;
  bool super_live_out = false;
  for (NodeId v = 0; v < nodes_.size(); ++v) {
    if (members.contains(v)) {
      for (const int value_id : extern_input_ids_[v]) {
        if (std::find(super_extern.begin(), super_extern.end(), value_id) ==
            super_extern.end())
          super_extern.push_back(value_id);
      }
      super_live_out = super_live_out || live_out_[v];
    } else {
      reduced.set_extern_input_ids(remap[v],
                                   std::vector<int>(extern_input_ids_[v]));
      reduced.set_live_out(remap[v], live_out_[v]);
    }
  }
  reduced.set_extern_input_ids(super, std::move(super_extern));
  reduced.set_live_out(super, super_live_out);

  ISEX_ASSERT_MSG(reduced.is_acyclic(),
                  "collapsing a non-convex member set created a cycle");
  if (old_to_new != nullptr) *old_to_new = std::move(remap);
  return reduced;
}

}  // namespace isex::dfg
