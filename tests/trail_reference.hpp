// Reference trail update (Fig 4.3.5): the per-entry form the flat
// core::PheromoneState::update_trails replaced, kept as the oracle
// PheromoneTest.TrailUpdateMatchesReferenceBitForBit checks it against.
//
// The caller precomputes one reorder flag per node; every (node, option)
// entry tests `improved` and `chosen` on its own and is written back through
// the clamping set_trail.
#pragma once

#include <span>
#include <vector>

#include "core/explorer_params.hpp"
#include "core/pheromone.hpp"

namespace isex::testing {

/// reordered[v]: v ran earlier in the pick order than in the previous
/// iteration (prev_order[v] >= 0 and order[v] < prev_order[v]).
inline std::vector<bool> reference_reordered(std::span<const int> order,
                                             std::span<const int> prev_order) {
  std::vector<bool> reordered(order.size(), false);
  for (std::size_t v = 0; v < order.size(); ++v)
    reordered[v] = prev_order[v] >= 0 && order[v] < prev_order[v];
  return reordered;
}

inline void reference_update_trails(core::PheromoneState& state,
                                    const core::ExplorerParams& p,
                                    std::span<const int> chosen,
                                    const std::vector<bool>& reordered,
                                    bool improved) {
  for (dfg::NodeId v = 0; v < state.num_nodes(); ++v) {
    for (std::size_t o = 0; o < state.num_options(v); ++o) {
      double t = state.trail(v, o);
      const bool was_chosen = chosen[v] == static_cast<int>(o);
      if (improved) {
        t += was_chosen ? p.rho1 : -p.rho2;
      } else {
        t += was_chosen ? -p.rho3 : p.rho4;
        if (reordered[v]) t -= p.rho5;
      }
      state.set_trail(v, o, t);
    }
  }
}

}  // namespace isex::testing
