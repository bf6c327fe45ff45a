// Parameters of the ACO ISE exploration (§5.1 lists the paper's values).
#pragma once

#include <cstdint>

#include "sched/priority.hpp"

namespace isex::runtime {
class EvalCache;
}

namespace isex::core {

struct ExplorerParams {
  // The paper's constants first: no caller sets them.
  // --- probability mixing (Eqs. 1 and 3) ---
  /// Relative influence of trail vs merit: p ∝ α·trail + (1−α)·merit + λ·SP.
  static constexpr double alpha = 0.25;
  /// Relative influence of the scheduling priority (SP) term.  The paper
  /// lists λ as a parameter without publishing its value; 0.3 with SP
  /// normalized to [0, merit_scale] reproduces the reported behaviour.
  static constexpr double lambda = 0.3;

  // --- trail update (Fig 4.3.5 evaporating factors) ---
  static constexpr double rho1 = 4.0;  ///< chosen option's reward, improved
  static constexpr double rho2 = 2.0;  ///< other options' decay, improved
  static constexpr double rho3 = 2.0;  ///< chosen option's penalty, regressed
  static constexpr double rho4 = 2.0;  ///< other options' reward, regressed
  static constexpr double rho5 = 0.4;  ///< extra penalty, reordered, regressed

  // --- merit function constants (Fig 4.3.7) ---
  static constexpr double beta_cp = 0.9;  ///< critical-path divisor (case 1)
  static constexpr double beta_size = 0.7;  ///< singleton decay (case 2)
  static constexpr double beta_io = 0.8;  ///< I/O-violation decay (case 3)
  static constexpr double beta_convex = 0.4;  ///< convexity decay (case 3)
  static constexpr double beta_timing = 0.6;  ///< pipestage decay (case 3)

  // --- initial values / scales ---
  static constexpr double initial_merit_software = 100.0;
  static constexpr double initial_merit_hardware = 200.0;
  /// Per-node merits are renormalized so the best option carries this value.
  static constexpr double merit_scale = 200.0;
  static constexpr double initial_trail = 0.0;
  /// Trail values are clamped into [0, trail_max].
  static constexpr double trail_max = 1000.0;

  // --- convergence ---
  /// P_END: a round converges when every operation has an option whose
  /// selected probability (Eq. 3) exceeds this.
  static constexpr double p_end = 0.99;
  /// Hard cap on iterations per round (safety net for the heuristic).
  int max_iterations = 250;
  /// Hard cap on rounds (ISEs explored per basic block).
  static constexpr int max_rounds = 64;

  // --- multi-colony parallel search (docs/PERFORMANCE.md) ---
  /// Number of ant colonies a round's ant budget is sharded across.  1 (the
  /// default) is the paper's serial loop, byte-identical to every release
  /// before the knob existed.  K >= 2 splits max_iterations across K
  /// colonies, each owning a private PheromoneState and RNG stream derived
  /// from the deterministic split fan-out; colonies walk concurrently on
  /// the runtime pool and synchronize at merge barriers.  A *search*
  /// parameter like the seed: results depend on (seed, colonies,
  /// merge_interval) but never on the thread count.  Effective colony count
  /// is min(colonies, max_iterations) so every colony walks at least once.
  int colonies = 1;
  /// Iterations each colony runs between merge barriers.  At a barrier the
  /// colonies' pheromone states reduce — in ascending colony-index order —
  /// into an evaporation-weighted mean plus a best-ant deposit, the merged
  /// state is broadcast back, and convergence (P_END) is tested on it.
  /// Inert when colonies == 1.
  int merge_interval = 8;
  /// Fraction of the merged (mean) trail evaporated at each barrier before
  /// the best-ant deposit lands; the deposit quantum is rho1.  Inert when
  /// colonies == 1.
  static constexpr double merge_evaporation = 0.1;

  /// When false, the merit function treats every operation as if it were on
  /// the critical path and skips the Max_AEC area-saving branch — this is
  /// exactly the single-issue (legality-only) behaviour of the prior art
  /// baseline [Wu et al., HiPEAC'07].
  bool locality_aware = true;

  /// Scheduling-priority (SP) function for Eq. 1's λ·SP term.  The paper
  /// uses the child count and names mobility-based priorities as future
  /// work (Ch. 6); both are available here.
  sched::PriorityKind sp_priority = sched::PriorityKind::kChildCount;

  /// Record per-iteration diagnostics (TET curve, convergence fraction) in
  /// ExplorationResult::trace.  Off by default: the trace grows with
  /// iterations × rounds.
  bool collect_trace = false;

  /// Cache that memoizes list-scheduler evaluations (base cycles and
  /// candidate collapse scoring).  Set, the explorer memoizes through it;
  /// null (the default), it schedules every evaluation directly.  Repeats
  /// and rounds re-score identical graphs, so a cache saves work, and it
  /// never changes results: every cache is a pure-function memo.  The
  /// design flow resolves a null here to a private per-run cache
  /// (flow::FlowConfig::params), so every flow memoizes.
  runtime::EvalCache* eval_cache = nullptr;
};

}  // namespace isex::core
