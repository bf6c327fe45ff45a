#include "core/make_convex.hpp"

#include <algorithm>

#include "util/assert.hpp"

namespace isex::core {
namespace {

void split_recursive(const dfg::Graph& graph, dfg::NodeSet piece,
                     const dfg::Reachability& reach,
                     std::vector<dfg::NodeSet>& out) {
  if (piece.empty()) return;
  // Lowest-id outside node on a member-to-member path.
  const dfg::NodeId w = dfg::convexity_violators(piece, reach).first();
  if (w == dfg::kInvalidNode) {
    // Convex; emit connected pieces.
    for (auto& comp : dfg::weakly_connected_components(graph, piece))
      out.push_back(std::move(comp));
    return;
  }
  // Cut the piece at the violator: members that reach w stay above, the rest
  // go below.  Both halves are strictly smaller (w connects at least one
  // member on each side), so recursion terminates.
  dfg::NodeSet above(piece.universe());
  dfg::NodeSet below(piece.universe());
  piece.for_each([&](dfg::NodeId m) {
    if (reach.reaches(m, w)) {
      above.insert(m);
    } else {
      below.insert(m);
    }
  });
  ISEX_ASSERT(!above.empty() && !below.empty());
  split_recursive(graph, std::move(above), reach, out);
  split_recursive(graph, std::move(below), reach, out);
}

}  // namespace

std::vector<dfg::NodeSet> make_convex(const dfg::Graph& graph,
                                      const dfg::NodeSet& cluster,
                                      const dfg::Reachability& reach) {
  std::vector<dfg::NodeSet> out;
  split_recursive(graph, cluster, reach, out);
  return out;
}

std::vector<dfg::NodeSet> legalize_ports(const dfg::Graph& graph,
                                         const dfg::NodeSet& piece,
                                         const isa::IsaFormat& format,
                                         const dfg::Reachability& reach) {
  dfg::NodeSet current = piece;
  auto violation = [&](const dfg::NodeSet& s) {
    const int in_over =
        std::max(0, dfg::count_inputs(graph, s) - format.max_ise_inputs());
    const int out_over =
        std::max(0, dfg::count_outputs(graph, s) - format.max_ise_outputs());
    return in_over + out_over;
  };

  while (violation(current) > 0 && current.count() > 1) {
    // Drop the member whose removal shrinks the violation the most; ties go
    // to the higher node id (later operations are cheaper to re-discover in
    // the next round).
    dfg::NodeId best = dfg::kInvalidNode;
    int best_violation = violation(current);
    current.for_each([&](dfg::NodeId m) {
      dfg::NodeSet without = current;
      without.erase(m);
      const int v = violation(without);
      if (best == dfg::kInvalidNode || v <= best_violation) {
        best = m;
        best_violation = v;
      }
    });
    ISEX_ASSERT(best != dfg::kInvalidNode);
    current.erase(best);
  }

  if (current.empty()) return {};
  // Removal may have broken connectivity or convexity: re-split, then filter
  // any piece that still violates ports (possible when a split re-exposes
  // interior values as outputs).
  std::vector<dfg::NodeSet> pieces = make_convex(graph, current, reach);
  std::vector<dfg::NodeSet> legal;
  for (auto& p : pieces) {
    if (dfg::count_inputs(graph, p) <= format.max_ise_inputs() &&
        dfg::count_outputs(graph, p) <= format.max_ise_outputs()) {
      legal.push_back(std::move(p));
    }
  }
  return legal;
}

}  // namespace isex::core
