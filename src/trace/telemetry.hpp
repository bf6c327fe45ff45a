// ExplorationTelemetry — per-iteration convergence records of the ACO loop.
//
// The explorer converges when every operation's best option probability
// exceeds P_END (Eq. 3); tuning that loop needs the per-iteration curve,
// not the final answer.  A ConvergencePoint captures one iteration's vital
// signs: the ant's schedule length (TET) against the best/mean/worst of
// its round, the pheromone state's decision entropy and binding
// max-option-probability vs P_END, and the schedule-cache hit rate.
// MultiIssueExplorer fills these when ExplorerParams::collect_trace is set
// (its IterationTrace *is* this struct); the writers here render the
// canonical CSV / JSONL convergence-curve files the CLI, benches, and
// tools/validate_trace.py all share.
#pragma once

#include <iosfwd>
#include <span>

namespace isex::trace {

struct ConvergencePoint {
  int round = 0;
  /// Colony that walked this iteration (0 in single-colony search; see
  /// ExplorerParams::colonies).  Entropy / max_option_probability below are
  /// the *colony's own* pheromone state — per-colony convergence telemetry —
  /// while the round ends on the merged state.
  int colony = 0;
  int iteration = 0;
  /// Total execution time of this iteration's ant schedule, cycles.
  int tet = 0;
  /// Best TET seen so far in the round.
  int best_tet = 0;
  /// Worst TET seen so far in the round.
  int worst_tet = 0;
  /// Mean TET over the round's iterations so far.
  double mean_tet = 0.0;
  /// Fraction of operations whose best option already exceeds P_END.
  double converged_fraction = 0.0;
  /// Mean normalized decision entropy over operations (1 = undecided,
  /// 0 = fully converged).
  double entropy = 0.0;
  /// The binding convergence constraint: min over operations of the best
  /// option's selected probability.  The round ends when this passes p_end.
  double max_option_probability = 0.0;
  double p_end = 0.0;
  /// Ant walks evaluated in the round so far (== iteration + 1).
  int ants = 0;
  /// Hit rate of the explorer's schedule-evaluation cache at this point
  /// (ExplorerParams::eval_cache; 0 when it explores without one).
  double cache_hit_rate = 0.0;
};

/// The canonical convergence-curve file writers.
class ExplorationTelemetry {
 public:
  /// Header of the CSV written by write_csv (no newline).
  static const char* csv_header();
  static void write_csv(std::ostream& out,
                        std::span<const ConvergencePoint> points);
  static void write_jsonl(std::ostream& out,
                          std::span<const ConvergencePoint> points);
};

}  // namespace isex::trace
