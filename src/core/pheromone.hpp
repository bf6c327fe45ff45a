// Trail (pheromone) and merit state of one exploration round.
//
// Both are (node × implementation-option) matrices over the round's G+.
// Trail counts *valid* choices — how often an option was picked in
// iterations that did not regress total execution time (Fig 4.3.5).  Merit
// is the domain heuristic recomputed each iteration (Fig 4.3.7).  The
// selected probability sp (Eq. 3) mixes the two per operation; convergence
// is "every operation has an option with sp > P_END".
//
// Storage follows the G+ layout: one flat trail and one flat merit array
// over G+'s (operation, option) entries, so node v's option o lives at
// gplus.offset(v) + o.  The state refers to its G+, which must outlive it.
// The ant walk builds its whole weight table in one flat pass over them
// (weights_into(out)) and indexes it by the same offsets.
#pragma once

#include <span>
#include <vector>

#include "core/explorer_params.hpp"
#include "dfg/node_set.hpp"
#include "hwlib/gplus.hpp"
#include "util/assert.hpp"

namespace isex::core {

class PheromoneState {
 public:
  PheromoneState(const hw::GPlus& gplus, const ExplorerParams& params);

  /// The G+ whose (operation, option) entries the state is laid out over.
  const hw::GPlus& gplus() const { return *gplus_; }
  std::size_t num_nodes() const { return gplus_->num_nodes(); }
  std::size_t num_options(dfg::NodeId v) const {
    return gplus_->num_options(v);
  }

  double trail(dfg::NodeId v, std::size_t option) const {
    return trail_[index(v, option)];
  }
  double merit(dfg::NodeId v, std::size_t option) const {
    return merit_[index(v, option)];
  }

  /// Overwrites a trail entry, clamped into [0, params.trail_max] like
  /// update_trails does (used by the multi-colony merge reduction).
  void set_trail(dfg::NodeId v, std::size_t option, double value);
  void set_merit(dfg::NodeId v, std::size_t option, double value);
  void scale_merit(dfg::NodeId v, std::size_t option, double factor) {
    ISEX_ASSERT(factor >= 0.0);
    merit_[index(v, option)] *= factor;
  }

  /// Renormalizes node v's merits so its best option carries
  /// params.merit_scale (paper step 8's normalization); preserves ratios.
  void normalize_merit(dfg::NodeId v);

  /// Trail update after an iteration (Fig 4.3.5).
  /// `chosen[v]` is the option each node used; `reordered[v]` is true when v
  /// ran earlier in the pick order than in the previous iteration.
  void update_trails(std::span<const int> chosen,
                     const std::vector<bool>& reordered, bool improved);

  /// Selected probability of `option` at node v (Eq. 3).
  double selected_probability(dfg::NodeId v, std::size_t option) const;

  /// Option with maximal sp at node v (the *taken* option once converged).
  std::size_t best_option(dfg::NodeId v) const;

  /// True when every node has an option with sp > params.p_end.
  bool converged() const;

  /// Fraction of nodes whose best option already exceeds P_END (1.0 at
  /// convergence; diagnostic for the trace).
  double converged_fraction() const;

  /// Mean over nodes of the normalized Shannon entropy of the selected-
  /// probability distribution: 1.0 = every decision still uniform, 0.0 =
  /// every decision collapsed onto one option (telemetry diagnostic).
  double decision_entropy() const;

  /// The binding convergence quantity: min over multi-option nodes of the
  /// best option's selected probability.  converged() iff this > p_end;
  /// 1.0 when every node has a single option.
  double min_best_probability() const;

  /// Raw chosen-probability numerator (Eq. 1 numerator, without SP):
  /// α·trail + (1−α)·merit.
  double weight(dfg::NodeId v, std::size_t option) const {
    const ExplorerParams& p = *params_;
    return p.alpha * trail(v, option) + (1.0 - p.alpha) * merit(v, option);
  }

  /// Writes the whole weight table into `out` in one flat pass: weight(v, o)
  /// lands at out[gplus().offset(v) + o] (out.size() must equal
  /// gplus().num_entries()).
  /// The ant walk builds its per-walk table with this — trail and merit are
  /// const during a walk — instead of calling weight() per ready entry.
  void weights_into(std::span<double> out) const;

 private:
  std::size_t index(dfg::NodeId v, std::size_t option) const {
    const std::size_t first = gplus_->offset(v);
    ISEX_ASSERT(first + option < gplus_->offset(v + 1));
    return first + option;
  }

  const hw::GPlus* gplus_;
  const ExplorerParams* params_;
  std::vector<double> trail_;
  std::vector<double> merit_;
};

/// Deterministic reduction of K colonies' pheromone states at a merge
/// barrier (multi-colony search, docs/PERFORMANCE.md).
///
/// Colonies submit in *any* completion order — the accumulator stores each
/// contribution in its colony's slot and finalize_into() walks the slots in
/// ascending colony-index order, so the merged state is a pure function of
/// the indexed contributions and bit-identical at any thread count or
/// arrival permutation (pinned by PheromoneMergerTest).
///
/// Merge semantics per (node, option):
///   trail' = clamp((1 - merge_evaporation) * mean_c(trail_c), 0, trail_max)
///            + rho1 deposited on the winning colony's best-ant option
///            (winner = lowest best-TET, ties to the lowest colony index);
///   merit' = mean_c(merit_c), renormalized per node to merit_scale.
class PheromoneMerger {
 public:
  PheromoneMerger(std::size_t num_colonies, const ExplorerParams& params);

  /// Registers colony `colony`'s contribution.  `state` and `best_chosen`
  /// must stay alive until finalize_into(); `best_chosen[v]` is the option
  /// the colony's best ant (TET `best_tet`) chose at node v.
  void submit(std::size_t colony, const PheromoneState& state, int best_tet,
              std::span<const int> best_chosen);

  /// Colony index winning the best-ant deposit.  All slots must be filled.
  std::size_t winner() const;

  /// Index-ordered reduction into `out`, which must be laid out over the
  /// sources' G+.
  void finalize_into(PheromoneState& out) const;

 private:
  struct Slot {
    const PheromoneState* state = nullptr;
    int best_tet = 0;
    std::span<const int> best_chosen;
  };
  const ExplorerParams* params_;
  std::vector<Slot> slots_;
};

}  // namespace isex::core
