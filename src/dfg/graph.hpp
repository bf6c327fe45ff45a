// Data-flow graph (DFG) of one basic block.
//
// G(V, E): every vertex is one assembly-level operation, every edge (u, v)
// means v consumes the value produced by u (§4.0).  The graph additionally
// tracks, per node, how many of its operands are live-in to the block
// (produced outside) and whether its result is live-out — both are needed to
// evaluate the IN(S)/OUT(S) port constraints of an ISE candidate.
//
// After an ISE candidate is committed, the member operations collapse into a
// single *supernode* carrying the ASFU latency and area; subsequent
// exploration rounds run on the reduced graph (§4.0 Fig 4.0.2).
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "dfg/node_set.hpp"
#include "isa/opcode.hpp"
#include "util/assert.hpp"

namespace isex::dfg {

/// Payload a collapsed ISE supernode carries.
struct IseInfo {
  /// ASFU latency in processor cycles (≥ 1).
  int latency_cycles = 1;
  /// Extra silicon area of the ASFU datapath, µm².
  double area = 0.0;
  /// IN(S) / OUT(S) of the original candidate; the scheduler charges this
  /// many register read/write ports when the ISE issues.
  int num_inputs = 1;
  int num_outputs = 1;
  /// Labels of the original member operations (for reporting).
  std::vector<std::string> member_labels;
};

struct Node {
  isa::Opcode opcode = isa::Opcode::kNop;
  /// Human-readable label, typically the destination variable name.
  std::string label;
  /// True for a collapsed ISE supernode; `ise` is then meaningful and
  /// `opcode` is ignored by scheduling/exploration.
  bool is_ise = false;
  /// Effective load/store latency in cycles stamped by the memory-hierarchy
  /// model (mem::annotate_graph); 0 means unannotated — the scheduler then
  /// charges the legacy one-cycle latency.  Preserved across collapse().
  int mem_latency = 0;
  IseInfo ise;
};

class Graph {
 public:
  NodeId add_node(isa::Opcode opcode, std::string label = {});
  NodeId add_ise_node(IseInfo info, std::string label = {});
  /// Reserves room for `n` nodes, so building a graph of known size does
  /// not regrow the per-node arrays.
  void reserve(std::size_t n);

  /// Adds a data edge u -> v.  Duplicate edges are ignored (one producer
  /// feeding the same consumer twice carries one value).  Self-edges are a
  /// precondition violation.
  void add_edge(NodeId from, NodeId to);

  std::size_t num_nodes() const { return nodes_.size(); }
  std::size_t num_edges() const { return num_edges_; }
  bool empty() const { return nodes_.empty(); }

  const Node& node(NodeId id) const {
    ISEX_ASSERT(id < nodes_.size());
    return nodes_[id];
  }
  Node& node(NodeId id) {
    ISEX_ASSERT(id < nodes_.size());
    return nodes_[id];
  }

  std::span<const NodeId> succs(NodeId id) const {
    ISEX_ASSERT(id < nodes_.size());
    return succs_[id];
  }
  std::span<const NodeId> preds(NodeId id) const {
    ISEX_ASSERT(id < nodes_.size());
    return preds_[id];
  }

  /// Operands of `id` produced outside the block (live-in values).  Each
  /// live-in operand carries a *value id*: operands with equal ids name the
  /// same live-in value (IN(S) counts them once).  This overload assigns
  /// fresh unique ids — the conservative default.
  void set_extern_inputs(NodeId id, int count);
  /// Explicit live-in value ids (the TAC frontend passes one per variable,
  /// shared across its uses).
  void set_extern_input_ids(NodeId id, std::vector<int> value_ids);
  int extern_inputs(NodeId id) const;
  std::span<const int> extern_input_ids(NodeId id) const {
    ISEX_ASSERT(id < nodes_.size());
    return extern_input_ids_[id];
  }

  /// Marks the value of `id` as consumed after the block ends.
  void set_live_out(NodeId id, bool live);
  bool live_out(NodeId id) const {
    ISEX_ASSERT(id < nodes_.size());
    return live_out_[id];
  }

  bool has_edge(NodeId from, NodeId to) const;

  /// Topological order (Kahn).  Asserts the graph is acyclic.
  std::vector<NodeId> topological_order() const;

  /// True when no directed cycle exists.
  bool is_acyclic() const;

  /// All-node set convenience.
  NodeSet all_nodes() const;

  /// Collapses `members` into one ISE supernode.  Returns the reduced graph;
  /// `old_to_new` (if non-null) receives, per old node id, the new id of the
  /// node that now represents it (members all map to the supernode).
  ///
  /// Preconditions: members non-empty and convex (otherwise the reduced
  /// graph would contain a cycle, which is asserted).
  Graph collapse(const NodeSet& members, IseInfo info,
                 std::vector<NodeId>* old_to_new = nullptr) const;

 private:
  std::vector<Node> nodes_;
  std::vector<std::vector<NodeId>> succs_;
  std::vector<std::vector<NodeId>> preds_;
  std::vector<std::vector<int>> extern_input_ids_;
  std::vector<bool> live_out_;
  std::size_t num_edges_ = 0;
  int next_unique_extern_id_ = 0;
};

}  // namespace isex::dfg
