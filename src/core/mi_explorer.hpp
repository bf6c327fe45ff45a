// MultiIssueExplorer — the paper's contribution (Ch. 3–4).
//
// Round loop over one basic block's DFG:
//   1. run ACO iterations (AntWalk → trail update → Hardware-Grouping +
//      merit update) until every operation's selected probability exceeds
//      P_END or the iteration cap is hit;
//   2. extract legal ISE candidates from the taken options (Make-Convex +
//      port legalization);
//   3. commit the candidate whose collapse shortens the *scheduled* block
//      the most (ties: smaller ASFU area); stop when no candidate wins a
//      cycle — packing off-critical-path operations never commits.
// The critical path is re-identified every iteration by scheduling, so it
// may move between rounds exactly as §1.4 requires.
#pragma once

#include <string>
#include <utility>
#include <vector>

#include "core/explorer_params.hpp"
#include "dfg/graph.hpp"
#include "dfg/node_set.hpp"
#include "hwlib/asfu.hpp"
#include "hwlib/hw_library.hpp"
#include "isa/register_file.hpp"
#include "sched/machine_config.hpp"
#include "trace/telemetry.hpp"
#include "util/rng.hpp"

namespace isex::core {

/// One committed ISE, reported in the coordinates of the *original* block.
struct ExploredIse {
  /// Members as node ids of the graph passed to explore().
  dfg::NodeSet original_nodes;
  hw::AsfuEvaluation eval;
  int in_count = 0;
  int out_count = 0;
  /// Scheduled-cycle reduction this ISE bought when committed (given the
  /// ISEs committed before it).
  int gain_cycles = 0;
  std::vector<std::string> member_labels;
};

/// The supernode payload of an ISE: ASFU latency and area, IN/OUT ports.
/// `Ise` is any record with `eval`, `in_count` and `out_count`.
template <class Ise>
dfg::IseInfo ise_info(const Ise& ise) {
  return {ise.eval.latency_cycles, ise.eval.area, ise.in_count, ise.out_count,
          {}};
}

/// A block with ISEs collapsed into it one after another, in commit order,
/// and per node of graph() the original nodes it stands for.  Explorers
/// commit() candidates named in graph()'s coordinates; replays collapse()
/// ExploredIses named in the original block's.  After the ISEs of an
/// ExplorationResult, graph() is the block `final_cycles` was scheduled on.
class RewrittenBlock {
 public:
  explicit RewrittenBlock(const dfg::Graph& block);

  const dfg::Graph& graph() const { return graph_; }
  dfg::Graph take() { return std::move(graph_); }

  /// Collapses `cand` (an IseCandidate or an exact candidate) and returns
  /// it as an ExploredIse in the original block's coordinates.
  template <class Candidate>
  ExploredIse commit(const Candidate& cand, int gain_cycles) {
    const dfg::NodeId super = apply(cand.members, ise_info(cand));
    return ExploredIse{origin_[super], cand.eval, cand.in_count,
                       cand.out_count, gain_cycles,
                       graph_.node(super).ise.member_labels};
  }
  void collapse(const ExploredIse& ise);

 private:
  /// Collapses `members` of graph_; returns the supernode.
  dfg::NodeId apply(const dfg::NodeSet& members, const dfg::IseInfo& info);

  dfg::Graph graph_;
  std::size_t block_nodes_;
  std::vector<dfg::NodeSet> origin_;  ///< per node of graph_
};

/// One ACO iteration's vital signs (collected when
/// ExplorerParams::collect_trace is set) — the telemetry layer's
/// convergence record: TET against the round's best/mean/worst, pheromone
/// decision entropy, and the binding max-option-probability vs P_END.
using IterationTrace = trace::ConvergencePoint;

/// Commit rule for a round's candidates (§4.0 step 3), exposed so the
/// parallel reduction and its pinning test share one definition: a candidate
/// beats the incumbent when its scheduled gain is higher, or the gain ties
/// and its ASFU area is strictly smaller.  An area tie at equal gain keeps
/// the incumbent — the reduction scans candidates in ascending index order,
/// so full ties deterministically resolve to the lowest candidate index at
/// any --jobs width.
constexpr bool better_candidate(int gain, double area, int best_gain,
                                double best_area) {
  return gain > best_gain || (gain == best_gain && area < best_area);
}

struct ExplorationResult {
  std::vector<ExploredIse> ises;
  /// Scheduled block cycles with no ISE.
  int base_cycles = 0;
  /// Scheduled block cycles with every committed ISE.
  int final_cycles = 0;
  int rounds = 0;
  int total_iterations = 0;
  /// Per-iteration diagnostics; empty unless params.collect_trace.
  std::vector<IterationTrace> trace;

  double total_area() const;
  int total_gain() const { return base_cycles - final_cycles; }
};

class MultiIssueExplorer {
 public:
  MultiIssueExplorer(sched::MachineConfig machine, isa::IsaFormat format,
                     const hw::HwLibrary& library, ExplorerParams params = {},
                     hw::ClockSpec clock = {});

  /// Explores one basic block.  Deterministic given `rng`'s state.
  /// With ExplorerParams::colonies == 1 (default) this is the paper's serial
  /// ACO loop.  With K >= 2 each round's ant budget is sharded across K
  /// colonies walking concurrently on the runtime pool, synchronized by a
  /// deterministic index-ordered pheromone merge every merge_interval
  /// iterations (docs/PERFORMANCE.md).  Either way the result is a pure
  /// function of (rng state, colonies, merge_interval) — never of the
  /// thread count.
  ExplorationResult explore(const dfg::Graph& block, Rng& rng) const;

  /// Paper §5.1: repeat the exploration `repeats` times and keep the best
  /// result (fewest final cycles, then least area).  Repeats run
  /// concurrently on runtime::ThreadPool::default_pool() with serially
  /// pre-split RNG streams, so the result is bit-identical to a serial loop
  /// at any thread count (see docs/RUNTIME.md).
  ExplorationResult explore_best_of(const dfg::Graph& block, int repeats,
                                    Rng& rng) const;

  /// Best-of reduction over attempts in repeat order: fewest final cycles,
  /// ties by least area, earliest attempt wins further ties.  Exposed so the
  /// design flow can fan (block × repeat) jobs out flat and reduce itself.
  static ExplorationResult pick_best(std::vector<ExplorationResult> attempts);

  const sched::MachineConfig& machine() const { return machine_; }
  const isa::IsaFormat& format() const { return format_; }
  const ExplorerParams& params() const { return params_; }

 private:
  sched::MachineConfig machine_;
  isa::IsaFormat format_;
  hw::HwLibrary library_;  // owned copy: callers may pass temporaries
  ExplorerParams params_;
  hw::ClockSpec clock_;
};

}  // namespace isex::core
