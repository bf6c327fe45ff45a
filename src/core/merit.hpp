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
// One update does each component's work once and each operation's only
// what differs for it.  HardwareGrouping::label_components analyses every
// component of hardware-chosen nodes with one forward pass over all of
// them; the update then computes each component's critical flag and Max_AEC
// window once.  Per operation x:
//   * vS_x = {x} (x touches no other hardware-chosen node): cases 1 and 2
//     only, with no grouping at all;
//   * x chose hardware: its component's analysis and terms, plus the depth
//     and area of any hardware option x did not choose;
//   * x chose software: its adjacent components joined around x's own
//     edges, with their terms combined with x's.
// Case 3 without a pipestage cap reads no option evaluation, so none is
// made for it.
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
  /// The ISA caps an ISE's latency, so case 3 can come from timing alone.
  bool timing_capped_;
};

}  // namespace isex::core
