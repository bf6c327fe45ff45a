// Merit function (§4.3, Fig 4.3.7).
//
// After every iteration each implementation option's merit is recomputed
// from the neighbourhood the previous iteration left behind:
//   software options: merit ×= software execution time (Eq. "3", software part);
//   hardware options, four cases:
//     1. operation on the critical path           → boost (÷ βCP)
//     2. vS_x is a singleton                      → decay (× βSize)
//     3. vS_x violates I/O or convexity           → decay (× βIO / × βConvex)
//     4. legal and useful                         → × cycle saving, then an
//        area-aware adjustment: on the critical path the fastest option wins
//        (smaller area breaking ties); off it, any option fitting inside the
//        Max_AEC slack window wins with the smallest area.
// Finally the node's merits are renormalized (paper step 8).
//
// One update groups once per iteration, not once per node: the
// hardware-chosen nodes are labelled into components and each component is
// analysed once (HardwareGrouping::label_components); every operation's vS_x
// is then its component, or its adjacent components joined around it, and
// only x's own option evaluations are computed per operation.
#pragma once

#include <span>

#include "core/explorer_params.hpp"
#include "core/hardware_grouping.hpp"
#include "core/pheromone.hpp"
#include "dfg/analysis.hpp"
#include "hwlib/gplus.hpp"
#include "isa/register_file.hpp"

namespace isex::core {

/// Everything the merit update reads from the last iteration.
struct MeritInputs {
  /// Option each node chose in the iteration just finished.
  std::span<const int> chosen;
  /// Nodes on the schedule's critical path.
  const dfg::NodeSet* critical = nullptr;
  /// Dependence ASAP/ALAP levels with software latencies (for Max_AEC).
  const dfg::PathInfo* path = nullptr;
  /// Total execution time of the iteration's schedule, cycles.
  int tet = 0;
};

class MeritEngine {
 public:
  /// Binds one round; `reach` is the round graph's reachability and, like
  /// `gplus` and `params`, must outlive the engine.
  MeritEngine(const hw::GPlus& gplus, const isa::IsaFormat& format,
              const ExplorerParams& params, const dfg::Reachability& reach,
              hw::ClockSpec clock = {});

  /// Recomputes merits for every node/option in place.  `scratch` holds the
  /// grouping's per-iteration state (one per colony).
  void update(PheromoneState& pheromone, const MeritInputs& inputs,
              GroupingScratch& scratch) const;

  /// Max_AEC (Fig 4.3.8): the execution window, in cycles, available to the
  /// candidate without stretching the schedule — from the members' earliest
  /// possible start to their latest allowed finish within `tet` cycles.
  static double max_allowable_cycles(const dfg::Graph& graph,
                                     const dfg::NodeSet& members,
                                     const dfg::PathInfo& path, int tet);

 private:
  const hw::GPlus* gplus_;
  const ExplorerParams* params_;
  HardwareGrouping grouping_;
};

}  // namespace isex::core
