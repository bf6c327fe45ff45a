// Labeled subgraph matching (VF2-style backtracking).
//
// Used by three flow stages: ISE merging ("ISE B is a subgraph of ISE A"),
// hardware sharing (two selected ISEs with identical datapaths share one
// ASFU), and ISE replacement (find occurrences of a selected pattern in
// other blocks).  Nodes are labeled by opcode; a match maps every pattern
// node to a distinct target node of the same opcode such that every pattern
// edge maps to a target edge (monomorphism — the target may have extra
// edges among matched nodes; replacement re-validates candidates anyway).
#pragma once

#include <cstdint>
#include <vector>

#include "dfg/graph.hpp"
#include "dfg/node_set.hpp"

namespace isex::flow {

struct MatchOptions {
  /// Stop after this many matches (0 = just test existence).
  std::size_t max_matches = 16;
  /// Backtracking budget; prevents pathological blowup on dense blocks.
  std::size_t max_steps = 200000;
};

/// All (up to max_matches) mappings of `pattern` into `target`;
/// result[k][p] = target node matched to pattern node p.
std::vector<std::vector<dfg::NodeId>> find_matches(const dfg::Graph& pattern,
                                                   const dfg::Graph& target,
                                                   const MatchOptions& options = {});

/// True when at least one match exists.
bool is_subgraph_of(const dfg::Graph& pattern, const dfg::Graph& target);

}  // namespace isex::flow
