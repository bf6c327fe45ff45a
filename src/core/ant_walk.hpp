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
// Hot-path structure (see docs/PERFORMANCE.md): trail and merit are const
// for the duration of one walk, so the Eq. 1 numerator of every (node,
// option) pair is flattened into a per-walk weight table up front, and the
// Ready-Matrix is maintained *incrementally* — entries append when a node
// becomes ready and are compacted out in place when it schedules, keeping
// the enumeration order (and therefore the RNG draw sequence) identical to
// a per-step rebuild.  All working storage lives in a reusable WalkScratch,
// so a warmed-up walk performs no heap allocation.
#pragma once

#include <array>
#include <cstdint>
#include <utility>
#include <vector>

#include "core/explorer_params.hpp"
#include "core/pheromone.hpp"
#include "dfg/node_set.hpp"
#include "hwlib/gplus.hpp"
#include "sched/machine_config.hpp"
#include "trace/metrics.hpp"
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

  /// Cycle at which the node's result becomes available.
  int finish_of(dfg::NodeId v) const;

 private:
  friend class AntWalk;
  std::vector<int> finish_;
};

/// Critical operations of an ant-walk schedule, written into `critical`
/// (resized to the graph): fixpoint over (a) nodes finishing at the
/// makespan, (b) tight producers (finish == consumer's start), and (c) whole
/// virtual groups once any member is critical — a group issues as one
/// instruction.  Filled in place, so a set reused across iterations
/// allocates nothing once warmed up.
void walk_critical_nodes(const dfg::Graph& graph, const WalkResult& walk,
                         dfg::NodeSet& critical);

/// One per-cycle resource row of the walk's scheduling ledger.
struct LedgerRow {
  int issue = 0;
  int reads = 0;
  int writes = 0;
  std::array<int, sched::kNumFuClasses> fu{};
};

/// Reusable working storage for AntWalk::run.  Holding one scratch per
/// thread (MIExplorer keeps one per explore job) and passing it to every
/// walk removes all per-walk heap allocation after the first few walks warm
/// the buffers up to their high-water sizes.
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
  // Scheduling ledger rows, zero-filled (not deallocated) between walks.
  std::vector<LedgerRow> ledger_rows;
  // Per-node combinational depth accumulated inside its group.
  std::vector<double> hw_depth;
  std::vector<int> unresolved;
  // Flattened per-(node, option) Eq. 1 numerator + λ·SP, built once per walk.
  std::vector<double> base_weight;
  std::vector<std::int32_t> weight_offset;
  // Flattened Ready-Matrix: live (node, option) entries and their weights,
  // plus each ready node's first-entry index (-1 when not ready).
  std::vector<std::pair<dfg::NodeId, int>> entries;
  std::vector<double> weights;
  std::vector<std::int32_t> entry_pos;
  // (finish, gid) candidates for Fig 4.3.4's latest-parent preference.
  std::vector<std::pair<int, int>> parent_groups;
  // Distinct live-in value ids consumed by each open group (for the
  // incremental IN(S) delta of try_join); index parallels result.groups.
  std::vector<std::vector<int>> group_extern_ids;
  // Retired GroupStates whose NodeSet capacity is recycled between walks.
  std::vector<GroupState> group_stash;
};

class AntWalk {
 public:
  AntWalk(const hw::GPlus& gplus, const sched::MachineConfig& machine,
          const ExplorerParams& params, hw::ClockSpec clock = {});

  /// Runs one iteration into `scratch` and returns `scratch.result`.
  /// `sp_score[v]` is the scheduling-priority term of Eq. 1, pre-scaled to
  /// the merit scale.  Allocation-free once the scratch is warmed up.
  const WalkResult& run(const PheromoneState& pheromone,
                        std::span<const double> sp_score, Rng& rng,
                        WalkScratch& scratch) const;

  /// Convenience overload with a throwaway scratch (tests, one-off walks).
  WalkResult run(const PheromoneState& pheromone,
                 std::span<const double> sp_score, Rng& rng) const;

 private:
  const hw::GPlus* gplus_;
  sched::MachineConfig machine_;
  const ExplorerParams* params_;
  hw::ClockSpec clock_;
  /// Resolved once per round (the walker's lifetime) so each walk pays one
  /// atomic add + histogram observe, not a registry lookup.
  trace::Counter* walks_metric_;
  trace::Histogram* tet_metric_;
};

}  // namespace isex::core
