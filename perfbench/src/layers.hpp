// Per-layer measurement for the traced run: the design flow composed from
// its public stage functions with a span around each call, and probes that
// time one layer's public entry point on the workload's own blocks.
#pragma once

#include <cstdint>
#include <string_view>
#include <vector>

#include "common.hpp"
#include "flow/design_flow.hpp"
#include "runtime/thread_pool.hpp"
#include "spans.hpp"

namespace perfbench {

/// Exact counts summed over every (block × repeat) exploration.
struct CoreCounts {
  std::uint64_t rounds = 0;
  std::uint64_t iterations = 0;

  void add(const CoreCounts& other) {
    rounds += other.rounds;
    iterations += other.iterations;
  }
};

/// run_design_flow re-composed from validate / profile_blocks /
/// select_hot_blocks / MultiIssueExplorer::explore / build_catalog /
/// select_ises / apply_selection, with spans flow.job >
/// flow.{validate,annotate,profile,explore,select,replace} and core.explore
/// per (block × repeat).  The exploration fan-out copies the one private to
/// design_flow.cpp, so the flow.* figures time this copy, not the program's
/// own stages.  Produces the same FlowResult as run_design_flow for an MI
/// config (checked by digest).  `explorations` receives the best-of result
/// per hot block.
isex::flow::FlowResult traced_design_flow(
    const isex::flow::ProfiledProgram& program,
    const isex::hw::HwLibrary& library, const isex::flow::FlowConfig& config,
    SpanLog& log, std::uint64_t job, CoreCounts& counts,
    std::vector<isex::core::ExplorationResult>* explorations = nullptr);

/// Median microseconds of one isa::parse_tac_checked call per source.
double probe_parse_us(const std::vector<std::string_view>& sources);

struct WalkProbe {
  double ns_per_node = 0.0;
  /// Heap allocations per warmed-up walk (counting operator new).
  double allocs_per_walk = 0.0;
};
/// AntWalk::run on each block with a reused scratch, after warm-up.
WalkProbe probe_walk(const std::vector<const isex::dfg::Graph*>& blocks,
                     const isex::sched::MachineConfig& machine,
                     std::uint64_t seed);

/// ListScheduler::cycles(graph, scratch) nanoseconds per node.
double probe_schedule_ns_per_node(
    const std::vector<const isex::dfg::Graph*>& blocks,
    const isex::sched::MachineConfig& machine);

/// One committed ISE, scored again as CollapsedView::assign + cycles.
struct CommittedSet {
  const isex::dfg::Graph* block = nullptr;
  const isex::core::ExploredIse* ise = nullptr;
};
std::vector<CommittedSet> committed_sets(
    const std::vector<const isex::dfg::Graph*>& blocks,
    const std::vector<isex::core::ExplorationResult>& explorations);
/// Nanoseconds per candidate evaluation; 0 when `sets` is empty.
double probe_candidate_eval_ns(const std::vector<CommittedSet>& sets,
                               const isex::sched::MachineConfig& machine);

/// Pool counters over a phase of the run.
class PoolWindow {
 public:
  explicit PoolWindow(const isex::runtime::ThreadPool& pool);
  /// Busy share of the pool workers' profiled time since construction.
  double busy_frac() const;
  std::uint64_t tasks() const;
  std::uint64_t steals() const;

 private:
  const isex::runtime::ThreadPool& pool_;
  isex::runtime::PoolStats stats0_;
  std::vector<isex::runtime::WorkerOccupancy> occ0_;
};

/// Adds the core.* and flow.* metrics derived from a traced phase.
/// `units` is the number of jobs the counts are per (counts are divided).
void add_flow_layer_metrics(Report& report, const std::vector<Span>& spans,
                            const CoreCounts& counts, double units);

/// Adds every per-layer metric as 0, so metrics a workload bypasses are
/// still present; later report.metric calls with the same name win.
void add_zero_layer_metrics(Report& report);

/// Traced vs untraced throughput of the same jobs.
void add_trace_overhead(Report& report, double untraced_jobs_per_s,
                        double traced_jobs_per_s);

}  // namespace perfbench
