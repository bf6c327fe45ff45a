// End-to-end ISE design flow (Fig 3.1.1): profiling → basic-block selection
// → ISE exploration (MI, the paper's algorithm, or SI, the legality-only
// baseline) → merging + selection with hardware sharing → replacement and
// final scheduling.
//
// run_design_flow is the portfolio pipeline (portfolio.hpp) on one program
// at weight 1.0: it runs the shared stages — timed as `validation` (of this
// program and config), `cache_model`, `profiling`, `exploration`,
// `selection`, `replacement` — and unpacks the one program's result.
#pragma once

#include <cstdint>
#include <optional>

#include "baseline/si_explorer.hpp"
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
  /// Explorer tunables.  params.eval_cache is the run's one cache knob: set,
  /// every evaluation memoizes through that cache (the server passes its
  /// warm-started, persisted runtime::schedule_cache()); null, the run
  /// memoizes through a private cache that lives for the run only.
  core::ExplorerParams params{};
  SelectionConstraints constraints{};
  ReplacementOptions replacement{};
  Algorithm algorithm = Algorithm::kMultiIssue;
  int repeats = 5;  ///< §5.1: best of 5 explorations per block
  std::uint64_t seed = 1;
  double hot_coverage = 0.95;
  std::size_t max_hot_blocks = 8;
  /// Worker threads for the (block × repeat) exploration fan-out.  0 uses
  /// runtime::ThreadPool::default_pool() (hardware_concurrency, or the
  /// --jobs / ISEX_JOBS override); N > 0 runs on a private N-thread pool.
  /// Either way the explorations' own fan-outs (candidate evaluation,
  /// colonies) run inline inside the batch's tasks, so N > 0 bounds
  /// exploration to N workers plus the helping caller and runs no task on
  /// the default pool.  (A batch of one job runs inline on the caller, and
  /// that exploration fans out onto the default pool.)  Results are
  /// identical at any value — see docs/RUNTIME.md.
  int jobs = 0;
  /// Memory-hierarchy cost model (docs/MEMORY.md).  When set, every block
  /// is annotated with simulated L1/L2 load/store latencies before
  /// profiling, so all downstream stages — exploration merit, selection,
  /// replacement — price memory behavior.  Unset (the null model) keeps the
  /// legacy one-cycle latencies and all historic digests.
  std::optional<mem::CacheConfig> cache;
};

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
