// Hardware-Grouping (§4.3, Fig 4.3.6).
//
// For an operation x, the virtual ISE candidate vS_x is x together with
// every node reachable from it through nodes that chose a *hardware*
// implementation option in the previous iteration.  For each hardware option
// j of x, vS_{x,HW-j} is evaluated: combinational depth (critical path of the
// grouped cells), ASFU cycles, silicon area, and the legality signals the
// merit function consumes (I/O ports, convexity).
//
// vS_x depends on x only through which hardware cluster it touches, so the
// grouping works per component, and each operation pays only for what
// differs for it (docs/PERFORMANCE.md, "Anatomy of one merit update"):
//   * label_components() splits the hardware-chosen nodes into their
//     weakly-connected components and analyses each once: members in
//     topological order, IN/OUT, convexity, software time, and one forward
//     max-plus pass over all hardware-chosen nodes, whose per-component
//     depth and area are the evaluation of every member at its chosen
//     option;
//   * for a hardware-chosen x, vS_x is its component; an option x did not
//     choose re-runs the pass over x and x's descendants only;
//   * for any other x, vS_x is {x} ∪ the components adjacent to x.  No edge
//     joins two components, so x's own edges are all that change: members,
//     reachability unions, producers and live-in values join word-level, IN
//     and OUT are the components' counts corrected at x, and x's options
//     re-run the pass over x's descendants only.
// join() builds vS_x's members and legality; evaluate() adds x's option
// evaluations and the software time, which the merit function reads only
// for some candidates.  Edges, option entries and live-in values are read
// from the round's flat G+ layout (hw::GPlus), whose dense live-in ids make
// a component's live-in set a bitset.  Every figure is bit-identical to a per-node search:
// depths are maxima of the same per-node start + delay sums, area and
// software-time sums run in ascending member order, and IN/OUT and the flags
// are integers and booleans.
#pragma once

#include <span>
#include <vector>

#include "dfg/analysis.hpp"
#include "dfg/node_set.hpp"
#include "hwlib/gplus.hpp"
#include "isa/register_file.hpp"

namespace isex::core {

struct VirtualCandidate {
  dfg::NodeSet members;
  int in_count = 0;
  int out_count = 0;
  bool io_violation = false;
  bool convex_violation = false;
  /// True when even the fastest option mix exceeds the ISA's pipestage
  /// timing cap (IsaFormat::max_ise_latency_cycles).
  bool timing_violation = false;
  /// Single-issue software execution time: Σ member software cycles.
  double sw_seq_cycles = 0.0;

  /// Evaluation of vS_{x,HW-j}; indexed like x's IO table (software slots
  /// unused).
  struct OptionEval {
    bool valid = false;
    double depth_ns = 0.0;
    int cycles = 1;
    double area = 0.0;
  };
  std::vector<OptionEval> per_option;

  std::size_t size() const { return members.count(); }
};

/// Per-iteration state of HardwareGrouping: component labels, the shared
/// per-component analyses, and the buffers join() and evaluate() fill.  One
/// per colony (MultiIssueExplorer keeps it next to the colony's
/// WalkScratch); buffers keep their high-water capacity across iterations
/// and rounds, so a warmed-up merit update allocates nothing.
class GroupingScratch {
 private:
  friend class HardwareGrouping;
  friend class MeritEngine;

  /// One weakly-connected component of hardware-chosen nodes.
  struct Component {
    /// Members and shared analysis; per_option and timing_violation are
    /// rewritten by each join() and evaluate() for one of its members.
    VirtualCandidate cand;
    /// Members in topological order.
    std::vector<dfg::NodeId> order;
    /// ∪ descendants and ∪ ancestors of the members.
    dfg::NodeSet below;
    dfg::NodeSet above;
    /// Producers outside the component feeding a member, and the members'
    /// live-in values (dense ids): IN = |producers| + |live_ins|.
    dfg::NodeSet producers;
    dfg::NodeSet live_ins;
    /// Every member on its chosen option: the largest finish of the
    /// forward pass, and the area summed in ascending id order.
    double depth = 0.0;
    double area = 0.0;
    /// MeritEngine's terms for the iteration, rewritten by every update:
    /// whether a member is on the critical set, and the members' dependence
    /// window (Max_AEC, Fig 4.3.8).  They live here, not in the engine,
    /// because colonies share one engine.
    bool critical = false;
    double earliest = 0.0;
    double latest_finish = 0.0;
  };

  /// Component index per node; -1 when its option is not hardware.
  std::vector<int> label;
  /// Components [0, num_components) are live; the rest keep their capacity.
  std::vector<Component> components;
  std::size_t num_components = 0;
  /// Option, delay and area each hardware-chosen node chose.
  std::vector<int> option;
  std::vector<double> delay;
  std::vector<double> area;
  /// Finish times of the forward pass with every hardware-chosen node on its
  /// chosen option.  Components are disjoint and no edge joins two, so one
  /// array serves them all.
  std::vector<double> finish;
  /// Finish times of x and its descendants with x on another option.
  std::vector<double> alt_finish;
  /// Per hardware-chosen node: its consumers outside its component.
  std::vector<int> outside_consumers;
  std::vector<dfg::NodeId> stack;
  /// vS_x for the x outside every component that join() last built (only
  /// its candidate and sets are used), and the labels of the components
  /// adjacent to it.
  Component joined;
  dfg::NodeId joined_x = dfg::kInvalidNode;
  std::vector<int> adjacent;
};

class HardwareGrouping {
 public:
  /// Binds one round: G+ (whose layout and topological order it uses) and
  /// the graph's reachability, both of which must outlive the grouping.
  HardwareGrouping(const hw::GPlus& gplus, const isa::IsaFormat& format,
                   const dfg::Reachability& reach, hw::ClockSpec clock = {});

  /// Starts an iteration: `chosen[u]` is the option each node picked in the
  /// iteration just finished (-1 before the first).  Labels the components
  /// of hardware-chosen nodes into `scratch` and analyses each one.
  void label_components(std::span<const int> chosen,
                        GroupingScratch& scratch) const;

  /// True when vS_x is {x} alone: x chose hardware but no neighbour did, or
  /// x chose software (or nothing) and touches no hardware-chosen node.
  bool isolated(dfg::NodeId x, const GroupingScratch& scratch) const;

  /// Builds vS_x for the iteration last labelled into `scratch`: its
  /// members, IN/OUT and the I/O and convexity flags; x itself is always a
  /// member.  timing_violation reads false, and per_option and
  /// sw_seq_cycles are not yet x's, until evaluate(x).  The result lives in
  /// `scratch` and stays valid until its next join() or label_components().
  const VirtualCandidate& join(dfg::NodeId x, GroupingScratch& scratch) const;

  /// Completes the candidate join(x) last built: x's per-option depth,
  /// cycles and area, the timing flag, and the software time.
  const VirtualCandidate& evaluate(dfg::NodeId x,
                                   GroupingScratch& scratch) const;

  /// join(x) then evaluate(x).
  const VirtualCandidate& group(dfg::NodeId x, GroupingScratch& scratch) const;

 private:
  /// IN/OUT, convexity, software time and base area of one component,
  /// given its member order and reachability unions.
  void analyse(GroupingScratch::Component& comp,
               GroupingScratch& scratch) const;
  /// Fills cand.per_option and cand.timing_violation for x's hardware
  /// options, where vS_x spans x and the components `comps`.
  void fill_options(dfg::NodeId x, VirtualCandidate& cand,
                    std::span<const int> comps,
                    GroupingScratch& scratch) const;
  /// Depth of vS_x with x's delay set to `x_delay`: x and its descendants
  /// re-run the max-plus pass, and every other member keeps its base finish.
  double depth_with(dfg::NodeId x, double x_delay, std::span<const int> comps,
                    GroupingScratch& scratch) const;

  const hw::GPlus* gplus_;
  isa::IsaFormat format_;
  const dfg::Reachability* reach_;
  hw::ClockSpec clock_;
};

}  // namespace isex::core
