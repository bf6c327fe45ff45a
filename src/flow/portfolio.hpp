// The design flow over a weighted manifest: one ISE set for N programs under
// a shared area budget (multi-application ASIP mode, Ragel et al. in
// PAPERS.md).  It is the flow's only pipeline — run_design_flow is the
// one-row case at weight 1.0 — and runs these stages, each timed by a
// trace::StageTimer (a `stage:<name>` span and the
// isex_stage_seconds_total{stage="<name>"} counter):
//
//   * validation — each entry point's own checks of its inputs
//     (flow::validate); a rejected input never reaches a later stage;
//   * cache_model — with FlowConfig::cache set, every program is annotated
//     with modelled load/store latencies before anything reads it;
//   * profiling — per program, hot blocks by profiled cost;
//   * exploration — every program's (hot block × repeat) jobs flattened into
//     ONE batch on runtime::ThreadPool::default_pool() (pool-profile
//     section `flow.explore_hot_blocks`), dispatched largest block first
//     (largest_first), so a program with a few small blocks never
//     serializes the tail behind a big one.  Each program's RNG streams are
//     pre-split from a fresh Rng(seed), so per-program results are
//     bit-identical to a one-row run at any --jobs width.  Jobs whose (within-program job index, exact
//     block digest) pair repeats across programs have identical inputs AND
//     identical streams, so they are explored once and the result is copied.
//     Below that, every evaluation memoizes through one EvalCache:
//     FlowConfig::params.eval_cache when set (the server passes its own,
//     warm-started from its log), else a private per-run cache, which keeps
//     the reported hit-rate attributable to this run.  Canonically
//     isomorphic-but-renumbered blocks/candidates are *detected*
//     (canonical_graph_digest telemetry) but never share cached makespans:
//     the list scheduler breaks ties by node id, so only exact keys may
//     carry values (docs/PORTFOLIO.md);
//   * selection — the per-program catalogs merge into the one weighted
//     greedy (select_greedy, selection.hpp) under the shared constraints:
//     rank by benefit × weight, share ASFUs across programs via
//     classify_merge, break ties by (weighted benefit desc, area asc,
//     program/block/position asc) — serial and index-ordered, bit-identical
//     at any thread count;
//   * replacement — per program, under its slice of the shared selection.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "flow/design_flow.hpp"
#include "runtime/eval_cache.hpp"

namespace isex::flow {

/// One manifest row: a profiled program plus its execution-frequency weight
/// (relative share of deployed runtime; scales every block benefit in the
/// shared selection).
struct PortfolioEntry {
  ProfiledProgram program;
  double weight = 1.0;
};

struct PortfolioConfig {
  /// Shared per-program flow settings (machine, explorer params and eval
  /// cache, repeats, seed, hot-block policy) and the *shared* selection
  /// constraints: the area budget / type budget apply to the whole
  /// portfolio, not per program.
  FlowConfig base;
};

/// One selected ISE in portfolio coordinates.
struct PortfolioSelectedIse {
  std::size_t program_index = 0;
  IseCatalogEntry entry;
  /// ASFU equivalence class, global across the portfolio.
  int type_id = 0;
  /// True when this selection reuses an ASFU selected earlier — possibly by
  /// a *different* program (cross-program hardware sharing).
  bool hardware_shared = false;
  double weighted_benefit = 0.0;
};

struct PortfolioSelection {
  std::vector<PortfolioSelectedIse> selected;
  double total_area = 0.0;
  int num_types = 0;
};

/// Per-program slice of the portfolio outcome.
struct PortfolioProgramResult {
  std::string name;
  double weight = 1.0;
  std::vector<std::size_t> hot_blocks;
  /// Best-of-repeats exploration per hot block — bit-identical to what an
  /// independent run_design_flow(seed) produces for this program.
  std::vector<core::ExplorationResult> explorations;
  /// This program's slice of the shared selection (type ids stay global).
  SelectionResult selection;
  ReplacementResult replacement;

  std::uint64_t base_time() const { return replacement.base_time; }
  std::uint64_t final_time() const { return replacement.final_time; }
  double reduction() const { return replacement.reduction(); }
  /// Raw cycles saved, before weighting.
  std::uint64_t cycles_saved() const {
    return replacement.base_time - replacement.final_time;
  }
  double weighted_benefit() const {
    return static_cast<double>(cycles_saved()) * weight;
  }
};

struct PortfolioResult {
  std::vector<PortfolioProgramResult> programs;
  PortfolioSelection selection;

  // --- batch-level telemetry ---
  /// Candidate/schedule evaluation dedup over the run's eval cache (the
  /// delta over this run when base.params.eval_cache was supplied).
  runtime::CacheStats eval_cache_stats;
  /// (hot block × repeat) jobs in the flat batch, before job-level dedup.
  std::uint64_t total_jobs = 0;
  /// Jobs skipped because an identical (index, block-digest) job already
  /// ran for an earlier program; their results were copied.
  std::uint64_t deduped_jobs = 0;
  /// Hot blocks that are canonically isomorphic to another portfolio hot
  /// block under node renumbering (detection only; exact keys differ).
  std::uint64_t isomorphic_hot_blocks = 0;
  /// Explored candidates whose pattern is canonically isomorphic to another
  /// program's candidate pattern.
  std::uint64_t isomorphic_candidates = 0;
  /// Memory-hierarchy model telemetry (FlowConfig::cache on base): true when
  /// the batch ran with annotated load/store latencies, plus the aggregate
  /// simulation counters across every program.
  bool cache_modeled = false;
  mem::CacheStats cache_stats;

  double total_area() const { return selection.total_area; }
  int num_ise_types() const { return selection.num_types; }
  double total_weighted_benefit() const {
    double sum = 0.0;
    for (const PortfolioProgramResult& p : programs)
      sum += p.weighted_benefit();
    return sum;
  }
};

/// Merged weighted catalog entry (exposed for tests).
struct PortfolioCatalogEntry {
  std::size_t program_index = 0;
  double weight = 1.0;
  IseCatalogEntry entry;
  /// entry.benefit × weight.
  double weighted_benefit = 0.0;
};

/// select_greedy (selection.hpp) over a merged weighted catalog, with
/// cross-program ASFU sharing.  Catalog entries must be grouped per
/// (program, block) in commit-position order (build order guarantees it).
PortfolioSelection select_portfolio_ises(
    const std::vector<PortfolioCatalogEntry>& catalog,
    const SelectionConstraints& constraints);

/// Dispatch order of an exploration batch: the indices of `jobs` by block
/// node count, largest first, equal sizes in index (first-seen) order.  The
/// pool claims a batch's indices in ascending order, so run in this order
/// the longest explorations start first and the batch ends on short ones.
std::vector<std::size_t> largest_first(
    const std::vector<const dfg::Graph*>& jobs);

/// A manifest row by reference: the stages read the caller's program in
/// place.
struct ProgramRow {
  const ProfiledProgram* program = nullptr;
  double weight = 1.0;
};

/// The flow's stages over `rows`.  The first, `validation`, runs
/// `validate_inputs` — each entry point checks its own inputs, with its own
/// messages — and returns its first error before any other stage touches
/// the rows.  run_design_flow_checked and run_portfolio_flow_checked are
/// this function with their validators.
Expected<PortfolioResult> run_flow_stages(
    const std::vector<ProgramRow>& rows, const hw::HwLibrary& library,
    const FlowConfig& config,
    const std::function<ValidationReport()>& validate_inputs);

/// Runs the portfolio flow.  Deterministic in config.base.seed; results are
/// never a function of the thread count.  Throws isex::ValidationException
/// on rejected input.
PortfolioResult run_portfolio_flow(const std::vector<PortfolioEntry>& entries,
                                   const hw::HwLibrary& library,
                                   const PortfolioConfig& config);

/// Non-throwing boundary (service and CLI callers).  The only emitter of the
/// isex_portfolio_* metrics, so a one-program run_design_flow never bumps
/// them.
Expected<PortfolioResult> run_portfolio_flow_checked(
    const std::vector<PortfolioEntry>& entries, const hw::HwLibrary& library,
    const PortfolioConfig& config);

}  // namespace isex::flow
