// End-to-end ISE design flow (Fig 3.1.1): profiling → basic-block selection
// → ISE exploration (MI, the paper's algorithm, or SI, the legality-only
// baseline) → merging + selection with hardware sharing → replacement and
// final scheduling.
//
// FlowConfig is the one description of a run: the flow, `isex` and the
// `isex_serve` wire protocol all fill it, and make_explorer builds the
// explorer it names.
//
// run_design_flow is the portfolio pipeline (portfolio.hpp) on one program
// at weight 1.0: it runs the shared stages — timed as `validation` (of this
// program and config), `cache_model`, `profiling`, `exploration`,
// `selection`, `replacement` — and unpacks the one program's result.
//
// Every run explores on runtime::ThreadPool::default_pool(), which the
// process sizes once (--jobs, ISEX_JOBS or ThreadPool::set_default_jobs).
// Results are identical at any width — see docs/RUNTIME.md.
#pragma once

#include <cstdint>
#include <optional>

#include "core/mi_explorer.hpp"
#include "flow/profiling.hpp"
#include "flow/program.hpp"
#include "flow/replacement.hpp"
#include "flow/selection.hpp"
#include "hwlib/hw_library.hpp"
#include "mem/cache_model.hpp"
#include "mem/mem_stream.hpp"
#include "sched/machine_config.hpp"

namespace isex::flow {

enum class Algorithm {
  kMultiIssue,   ///< the paper's schedule-aware exploration ("MI")
  kSingleIssue,  ///< legality-only prior art ("SI", Wu et al. [8])
};

struct FlowConfig {
  sched::MachineConfig machine = sched::MachineConfig::make(2, {4, 2});
  /// Pipestage timing constraint: hard cap on an ISE's ASFU latency in
  /// cycles (0 = none).  §5.1: both explorers honour it.
  int max_ise_latency_cycles = 0;
  /// Explorer tunables.  params.eval_cache is the run's one cache knob: set,
  /// every evaluation memoizes through that cache (the server passes its
  /// own, warm-started from its log); null, the run memoizes through a
  /// private cache that lives for the run only.
  core::ExplorerParams params{};
  SelectionConstraints constraints{};
  ReplacementOptions replacement{};
  Algorithm algorithm = Algorithm::kMultiIssue;
  int repeats = 5;  ///< §5.1: best of 5 explorations per block
  std::uint64_t seed = 1;
  /// Hot blocks: the shortest descending-time prefix of the blocks covering
  /// this share of program time, capped at max_hot_blocks.
  static constexpr double hot_coverage = 0.95;
  static constexpr std::size_t max_hot_blocks = 8;
  /// Memory-hierarchy cost model (docs/MEMORY.md).  When set, every block
  /// is annotated with simulated L1/L2 load/store latencies before
  /// profiling, so all downstream stages — exploration merit, selection,
  /// replacement — price memory behavior.  Unset (the null model) keeps the
  /// legacy one-cycle latencies and all historic digests.
  std::optional<mem::CacheConfig> cache;
};

/// The run both front-ends start from, `isex` flags and `isex_serve`
/// request fields alike: a 2-issue machine with 6/3 register ports over
/// every other FlowConfig default.
FlowConfig front_end_defaults();

/// The explorer `config` names, on `library`:
///   * kMultiIssue — the paper's schedule-aware explorer on config.machine;
///   * kSingleIssue — the prior-art baseline ("SI", Wu et al., HiPEAC 2007
///     [8]): the same ACO machinery with two deliberate blind spots (§1.4).
///     Its internal machine is single-issue (config.machine's register
///     file, one issue slot), so execution time is effectively sequential
///     and *every* operation looks critical — it never asks where an
///     operation sits in a wide schedule.  Its merit ignores operation
///     location (ExplorerParams::locality_aware = false): cycle saving is
///     measured against the sequential software time, and the Max_AEC
///     area-saving branch for off-critical-path candidates never fires.
///     The flow deploys its candidates on config.machine, exactly like the
///     paper's "SI" bars.
/// Either way the ISE format is config.machine's register file (its ports
/// bound IN/OUT) with the pipestage cap config.max_ise_latency_cycles.
core::MultiIssueExplorer make_explorer(const FlowConfig& config,
                                       const hw::HwLibrary& library);

struct FlowResult {
  ReplacementResult replacement;
  SelectionResult selection;
  /// Blocks exploration actually ran on.
  std::vector<std::size_t> hot_blocks;
  /// Best-of-repeats exploration result per hot block (parallel to
  /// hot_blocks).
  std::vector<core::ExplorationResult> explorations;
  /// True when FlowConfig::cache drove the run; `cache_stats` then holds the
  /// aggregate hit/miss counters of the per-block annotation simulations.
  bool cache_modeled = false;
  mem::CacheStats cache_stats;

  std::uint64_t base_time() const { return replacement.base_time; }
  std::uint64_t final_time() const { return replacement.final_time; }
  double reduction() const { return replacement.reduction(); }
  double total_area() const { return selection.total_area; }
  int num_ise_types() const { return selection.num_types; }
};

/// Stamps the cache model's load/store latencies onto every block of
/// `program` (mem::annotate_graph per block) and records the aggregate
/// counters into the `isex_cache_*` metrics.  Each block is a fresh
/// simulation, so the result is independent of block order and job count.
mem::CacheStats annotate_program(ProfiledProgram& program,
                                 const mem::CacheConfig& config);

/// Runs the complete flow on `program`.  Deterministic in config.seed.
/// Validates the program and config first (flow::validate) and throws
/// isex::ValidationException on rejected input — malformed kernels never
/// reach the explorer.
FlowResult run_design_flow(const ProfiledProgram& program,
                           const hw::HwLibrary& library,
                           const FlowConfig& config);

/// Non-throwing boundary: validates `program` and `config` up front and
/// returns the first defect as a structured Error instead of throwing.
/// Service and CLI callers should prefer this entry point.
Expected<FlowResult> run_design_flow_checked(const ProfiledProgram& program,
                                             const hw::HwLibrary& library,
                                             const FlowConfig& config);

}  // namespace isex::flow
