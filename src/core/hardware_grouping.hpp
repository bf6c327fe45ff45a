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
// grouping works per iteration, not per node (docs/PERFORMANCE.md, "Anatomy
// of one merit update"):
//   * label_components() splits the hardware-chosen nodes into their
//     weakly-connected components once and analyses each once: members in
//     topological order, IN/OUT, convexity, software time;
//   * group(x) for a hardware-chosen x is its component — only x's own
//     option evaluations are new;
//   * group(x) for any other x is {x} ∪ the components adjacent to x, built
//     as word-level unions of the components' member and reachability sets.
// Each hardware option of x is then one forward max-plus pass over the
// members in topological order.  Every figure is bit-identical to a per-node
// search: depths are max/+ over the same paths, and area and software-time
// sums run in ascending member order.
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
/// per-component analyses, and the buffers group() evaluates into.  One per
/// colony (MultiIssueExplorer keeps it next to the colony's WalkScratch);
/// buffers keep their high-water capacity across iterations and rounds, so
/// a warmed-up merit update allocates nothing.
class GroupingScratch {
 private:
  friend class HardwareGrouping;

  /// One weakly-connected component of hardware-chosen nodes.
  struct Component {
    /// Members and shared analysis; per_option and timing_violation are
    /// rewritten by each group() call for one of its members.
    VirtualCandidate cand;
    /// Members in topological order.
    std::vector<dfg::NodeId> order;
    /// ∪ descendants and ∪ ancestors of the members.
    dfg::NodeSet below;
    dfg::NodeSet above;
  };

  /// Component index per node; -1 when its option is not hardware.
  std::vector<int> label;
  /// Components [0, num_components) are live; the rest keep their capacity.
  std::vector<Component> components;
  std::size_t num_components = 0;
  /// Delay and area of each hardware-chosen node's chosen option.
  std::vector<double> delay;
  std::vector<double> area;
  /// Forward-pass finish times, indexed by node.
  std::vector<double> finish;
  std::vector<dfg::NodeId> stack;
  /// vS_x for x outside every component, with its members in topological
  /// order and its reachability unions.
  Component merged;
  /// Component labels adjacent to x.
  std::vector<int> adjacent;
  /// count_inputs working sets.
  dfg::NodeSet producers;
  std::vector<int> extern_ids;
};

class HardwareGrouping {
 public:
  /// Binds one round: G+ (whose graph and topological order it uses) and the
  /// graph's reachability, both of which must outlive the grouping.
  HardwareGrouping(const hw::GPlus& gplus, const isa::IsaFormat& format,
                   const dfg::Reachability& reach, hw::ClockSpec clock = {});

  /// Starts an iteration: `chosen[u]` is the option each node picked in the
  /// iteration just finished (-1 before the first).  Labels the components
  /// of hardware-chosen nodes into `scratch` and analyses each one.
  void label_components(std::span<const int> chosen,
                        GroupingScratch& scratch) const;

  /// Builds and evaluates vS_x for the iteration last labelled into
  /// `scratch`; x itself is always a member.  The result lives in `scratch`
  /// and stays valid until its next group() or label_components() call.
  const VirtualCandidate& group(dfg::NodeId x, GroupingScratch& scratch) const;

 private:
  /// IN/OUT, convexity and software time of `comp.cand.members`, given its
  /// reachability unions.
  void analyse(GroupingScratch::Component& comp,
               GroupingScratch& scratch) const;
  /// Fills cand.per_option and cand.timing_violation for x's hardware
  /// options over `order` (the members, topologically sorted).
  void evaluate_options(dfg::NodeId x, VirtualCandidate& cand,
                        std::span<const dfg::NodeId> order,
                        GroupingScratch& scratch) const;

  const hw::GPlus* gplus_;
  isa::IsaFormat format_;
  const dfg::Reachability* reach_;
  hw::ClockSpec clock_;
  /// Position of each node in gplus_->topological_order().
  std::vector<int> topo_rank_;
};

}  // namespace isex::core
