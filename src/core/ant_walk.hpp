// One ACO iteration: an ant constructs a complete solution — an
// implementation option *and* a time slot for every operation — by walking
// the search tree level by level (§3.2).
//
// At each step the Ready-Matrix holds every implementation option of every
// ready operation (Fig 4.3.2); one entry is drawn with the chosen
// probability of Eq. 1, and the operation is placed by Operation-Scheduling:
// software options list-schedule under issue/FU/port limits (Fig 4.3.3),
// hardware options pack into a parent's virtual ISE group in the same slot
// when legal, else open a new group (Fig 4.3.4).  Virtual groups accumulate
// combinational depth; a group occupies ⌈depth/clock⌉ cycles and its results
// become visible when the whole group finishes.
//
// Hot-path structure (see docs/PERFORMANCE.md): a step pays only for what
// its own pick changes.
//  * Per round, a walk reads the round's flat G+ layout (hw::GPlus): its
//    (operation, option) entries, CSR edges and dense live-in ids.  AntWalk's
//    constructor adds only the per-node terms that belong to the walk:
//    software ports, FU class, a fresh group's IN/OUT, and live-out.
//  * Per walk, trail and merit are const, so the Eq. 1 numerator of every
//    (node, option) pair is built into one flat table up front, indexed by
//    G+'s entry offsets.
//  * Per step, the Ready-Matrix is maintained incrementally: entries append
//    when a node becomes ready and the picked node's block, which starts at
//    pick − option, is compacted out in place, keeping the enumeration order
//    (and therefore the RNG draw sequence) identical to a per-step rebuild.
//    A running prefix sum of the live weights supplies the draw's total and
//    is recomputed only from the removed position onward.
// All working storage lives in a reusable WalkScratch, so a warmed-up walk
// performs no heap allocation.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <type_traits>
#include <utility>
#include <vector>

#include "core/explorer_params.hpp"
#include "core/pheromone.hpp"
#include "dfg/node_set.hpp"
#include "hwlib/gplus.hpp"
#include "sched/machine_config.hpp"
#include "trace/metrics.hpp"
#include "util/assert.hpp"
#include "util/rng.hpp"

namespace isex::core {

/// A virtual ISE group growing during the walk.
struct GroupState {
  dfg::NodeSet members;
  int start = 0;          ///< issue cycle
  double depth_ns = 0.0;  ///< combinational critical path inside the group
  int cycles = 1;         ///< ⌈depth/clock⌉
  int reads = 0;          ///< IN(members)
  int writes = 0;         ///< OUT(members)
};

struct WalkResult {
  /// Implementation option chosen per node (IO-table index).
  std::vector<int> chosen;
  /// Issue cycle per node.
  std::vector<int> slot;
  /// Position of the node in the ant's pick sequence.
  std::vector<int> order;
  /// Virtual group membership, -1 for software-scheduled nodes.
  std::vector<int> group_id;
  std::vector<GroupState> groups;
  /// Total execution time of the constructed schedule, cycles.
  int tet = 0;

  /// Cycle at which the node's result becomes available: a software node's
  /// issue cycle plus its latency, a grouped node's group start plus the
  /// group's cycles.  Written for every node when the walk ends.
  int finish_of(dfg::NodeId v) const {
    ISEX_ASSERT(v < finish_.size());
    return finish_[v];
  }

 private:
  friend class AntWalk;
  std::vector<int> finish_;
};

/// Critical operations of an ant-walk schedule, written into `critical`
/// (resized to the graph): least fixpoint over (a) nodes finishing at the
/// makespan, (b) tight producers (finish == consumer's start), and (c) whole
/// virtual groups once any member is critical — a group issues as one
/// instruction.  One pass: each node is expanded once, from `worklist`.
/// Both buffers are filled in place, so reusing them across iterations
/// allocates nothing once warmed up.
void walk_critical_nodes(const dfg::Graph& graph, const WalkResult& walk,
                         dfg::NodeSet& critical,
                         std::vector<dfg::NodeId>& worklist);

/// One per-cycle resource row of the walk's scheduling ledger.
struct LedgerRow {
  int issue = 0;
  int reads = 0;
  int writes = 0;
  std::array<int, sched::kNumFuClasses> fu{};
};

/// Reusable working storage for AntWalk::run.  Each colony of an
/// exploration owns one (in MultiIssueExplorer's per-colony ColonyScratch)
/// and passes it to every walk, which removes all per-walk heap allocation
/// after the first few walks warm the buffers up to their high-water sizes.
class WalkScratch {
 public:
  WalkScratch() = default;
  WalkScratch(const WalkScratch&) = delete;
  WalkScratch& operator=(const WalkScratch&) = delete;
  WalkScratch(WalkScratch&&) = default;
  WalkScratch& operator=(WalkScratch&&) = default;

  /// The last walk written by run(); valid until the next run() call.
  WalkResult result;

  // --- incremental Ready-Matrix diagnostics, reset by every run() ---
  /// Picks taken (== nodes scheduled).
  std::uint64_t steps = 0;
  /// Ready-Matrix entries moved by order-preserving compaction.  Bounded by
  /// Σ_step |tail after the scheduled node| — 0 for a chain, where the
  /// ready set never holds more than one node.
  std::uint64_t entry_shifts = 0;
  /// Peak number of live (node, option) entries.
  std::uint64_t max_entries = 0;

 private:
  friend class AntWalk;
  /// One live Ready-Matrix entry.  Trivially copyable, so compaction is a
  /// memmove.
  struct ReadyEntry {
    dfg::NodeId node;
    std::int32_t option;
  };
  static_assert(std::is_trivially_copyable_v<ReadyEntry>);
  // Scheduling ledger rows, zero-filled (not deallocated) between walks.
  std::vector<LedgerRow> ledger_rows;
  // Per-node combinational depth accumulated inside its group.
  std::vector<double> hw_depth;
  std::vector<int> unresolved;
  // Flattened per-(node, option) Eq. 1 numerator + λ·SP, built once per
  // walk and indexed by hw::GPlus::offset.
  std::vector<double> base_weight;
  // Flattened Ready-Matrix: live (node, option) entries, their weights, and
  // the left-to-right running sum of those weights.
  std::vector<ReadyEntry> entries;
  std::vector<double> weights;
  std::vector<double> prefix;
  // Distinct live-in values (G+'s dense ids) consumed by each open group
  // (for the incremental IN(S) delta of try_join); index parallels
  // result.groups.
  std::vector<std::vector<std::uint32_t>> group_extern_ids;
  // Retired GroupStates whose NodeSet capacity is recycled between walks.
  std::vector<GroupState> group_stash;
};

class AntWalk {
 public:
  /// Binds one round's G+, which must outlive the walker.
  AntWalk(const hw::GPlus& gplus, const sched::MachineConfig& machine,
          const ExplorerParams& params, hw::ClockSpec clock = {});

  /// Runs one iteration into `scratch` and returns `scratch.result`.
  /// `sp_score[v]` is the scheduling-priority term of Eq. 1, pre-scaled to
  /// the merit scale.  `pheromone` must be laid out over the walker's G+.
  /// Allocation-free once the scratch is warmed up.
  const WalkResult& run(const PheromoneState& pheromone,
                        std::span<const double> sp_score, Rng& rng,
                        WalkScratch& scratch) const;

  /// Convenience overload with a throwaway scratch (tests, one-off walks).
  WalkResult run(const PheromoneState& pheromone,
                 std::span<const double> sp_score, Rng& rng) const;

 private:
  /// What a walk places a node by, beyond G+'s layout.  Derived once per
  /// round by the constructor and never written after: every colony of a
  /// round walks through one shared AntWalk.
  struct NodeTerms {
    /// Register ports of a software issue (sched::read/write_ports_used).
    int sw_reads = 0;
    int sw_writes = 0;
    /// Functional-unit class, -1 for an ISE supernode (no FU limit).
    int fu_class = -1;
    /// IN({v}) and OUT({v}) of a fresh single-member group.
    int solo_reads = 0;
    int solo_writes = 0;
    bool live_out = false;
  };

  const hw::GPlus* gplus_;
  std::vector<NodeTerms> nodes_;
  sched::MachineConfig machine_;
  const ExplorerParams* params_;
  hw::ClockSpec clock_;
  /// Resolved once per round (the walker's lifetime) so each walk pays one
  /// atomic add + histogram observe, not a registry lookup.
  trace::Counter* walks_metric_;
  trace::Histogram* tet_metric_;
};

}  // namespace isex::core
