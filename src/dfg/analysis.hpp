// Graph analyses the exploration relies on:
//   * reachability (ancestors/descendants) — Hardware-Grouping grows virtual
//     ISE candidates over *reachable* hardware-chosen neighbours (§4.3);
//   * convexity — §4.2 constraint 3;
//   * IN(S)/OUT(S) — §4.2 constraints 1 and 2;
//   * dependence-critical path and ASAP/ALAP levels — merit case 1 locality
//     and the Max_AEC slack bound (Fig 4.3.8);
//   * weakly-connected components — an ISE is a *connected* set of taken
//     hardware operations.
#pragma once

#include <functional>
#include <span>
#include <vector>

#include "dfg/graph.hpp"
#include "dfg/node_set.hpp"
#include "util/assert.hpp"

namespace isex::dfg {

/// Precomputed transitive reachability.  O(V·E/64) to build; queries O(1).
class Reachability {
 public:
  explicit Reachability(const Graph& graph);

  /// True when a non-empty directed path from -> to exists.
  bool reaches(NodeId from, NodeId to) const {
    ISEX_ASSERT(from < desc_.size() && to < desc_.size());
    return desc_[from].contains(to);
  }

  /// Strict descendants (excludes the node itself).
  const NodeSet& descendants(NodeId id) const {
    ISEX_ASSERT(id < desc_.size());
    return desc_[id];
  }
  /// Strict ancestors (excludes the node itself).
  const NodeSet& ancestors(NodeId id) const {
    ISEX_ASSERT(id < anc_.size());
    return anc_[id];
  }

 private:
  std::vector<NodeSet> desc_;
  std::vector<NodeSet> anc_;
};

/// Nodes outside S that lie on a path between two members:
/// (∪desc(S) ∩ ∪anc(S)) \ S, built from whole reachability rows with
/// word-level unions — O(|S|·V/64).
NodeSet convexity_violators(const NodeSet& s, const Reachability& reach);

/// Convexity (§4.2): S is convex iff no path leaves S and re-enters it, i.e.
/// for every u, v in S, every intermediate node on any u→…→v path is in S —
/// equivalently, convexity_violators(S) is empty.
bool is_convex(const Graph& graph, const NodeSet& s, const Reachability& reach);

/// IN(S): number of input values consumed by S from outside — distinct
/// in-block producers feeding S, plus the members' live-in operand counts.
/// (Live-in operands of different members are conservatively counted as
/// distinct values; the TAC frontend folds shared variables into shared
/// producer nodes, so the approximation only affects block-boundary values.)
int count_inputs(const Graph& graph, const NodeSet& s);

/// OUT(S): number of members whose value escapes S (an out-edge to a
/// non-member, or live-out of the block).
int count_outputs(const Graph& graph, const NodeSet& s);

/// Latency callback: execution weight of a node for path computations.
using LatencyFn = std::function<double(NodeId)>;

/// Dependence-only longest-path data (infinite-resource model).
struct PathInfo {
  /// ASAP start level per node.
  std::vector<double> earliest;
  /// ALAP start level per node (same overall length).
  std::vector<double> latest;
  /// Total dependence-critical path length.
  double length = 0.0;
  /// Nodes with zero slack (earliest == latest).
  NodeSet critical;
};

PathInfo longest_path(const Graph& graph, const LatencyFn& latency);

/// Weakly-connected components of the subgraph induced by `within`.
std::vector<NodeSet> weakly_connected_components(const Graph& graph,
                                                 const NodeSet& within);

/// Longest path length (by `latency`) restricted to the induced subgraph of
/// `s` — the combinational depth of an ISE candidate's datapath.  `topo` is
/// a topological order of the graph (hw::GPlus keeps one per round), so
/// repeated queries over one graph never re-sort it.
double induced_critical_path(const Graph& graph, std::span<const NodeId> topo,
                             const NodeSet& s, const LatencyFn& latency);

}  // namespace isex::dfg
