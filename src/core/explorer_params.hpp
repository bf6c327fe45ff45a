// Tunables of the ACO ISE exploration (§5.1 lists the paper's values).
#pragma once

#include <cstdint>

#include "sched/priority.hpp"

namespace isex::runtime {
class EvalCache;
}

namespace isex::core {

struct ExplorerParams {
  // --- probability mixing (Eqs. 1 and 3) ---
  /// Relative influence of trail vs merit: p ∝ α·trail + (1−α)·merit + λ·SP.
  double alpha = 0.25;
  /// Relative influence of the scheduling priority (SP) term.  The paper
  /// lists λ as a parameter without publishing its value; 0.3 with SP
  /// normalized to [0, merit_scale] reproduces the reported behaviour.
  double lambda = 0.3;

  // --- trail update (Fig 4.3.5 evaporating factors) ---
  double rho1 = 4.0;  ///< reward for the chosen option on improvement
  double rho2 = 2.0;  ///< decay for unchosen options on improvement
  double rho3 = 2.0;  ///< penalty for the chosen option on regression
  double rho4 = 2.0;  ///< reward for unchosen options on regression
  double rho5 = 0.4;  ///< extra penalty for reordered operations on regression

  // --- merit function constants (Fig 4.3.7) ---
  double beta_cp = 0.9;      ///< critical-path boost divisor (case 1)
  double beta_size = 0.7;    ///< singleton-candidate decay (case 2)
  double beta_io = 0.8;      ///< I/O-constraint-violation decay (case 3)
  double beta_convex = 0.4;  ///< convexity-violation decay (case 3)
  double beta_timing = 0.6;  ///< pipestage-timing-violation decay (case 3)

  // --- initial values / scales ---
  double initial_merit_software = 100.0;
  double initial_merit_hardware = 200.0;
  /// Per-node merits are renormalized so the best option carries this value.
  double merit_scale = 200.0;
  double initial_trail = 0.0;
  /// Trail values are clamped into [0, trail_max].
  double trail_max = 1000.0;

  // --- convergence ---
  /// A round converges when every operation has an option whose selected
  /// probability (Eq. 3) exceeds this.
  double p_end = 0.99;
  /// Hard cap on iterations per round (safety net for the heuristic).
  int max_iterations = 250;
  /// Hard cap on rounds (ISEs explored per basic block).
  int max_rounds = 64;

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
  double merge_evaporation = 0.1;

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

  /// Memoize list-scheduler evaluations (base cycles + candidate collapse
  /// scoring) in the cache `eval_cache` selects below: the one passed in
  /// (the design flow always passes one, private per run unless its caller
  /// supplies one) or, when null, the process-wide runtime::schedule_cache().
  /// Repeats and sweeps re-score identical graphs constantly, so this is a
  /// large win; results are unchanged — the cache is a pure-function memo.
  /// Exposed so bench/perf_runtime can A/B it.
  bool use_eval_cache = true;

  /// Cache instance the memoization above goes through.  Null (the default)
  /// makes an explorer use the process-wide runtime::schedule_cache().  The
  /// design flow never passes null down: it resolves a null here to a
  /// private per-run cache (flow::FlowConfig::params), so its hit rate is
  /// attributable to the run.  The choice of instance never changes
  /// results — every cache is a pure memo.
  runtime::EvalCache* eval_cache = nullptr;
};

}  // namespace isex::core
