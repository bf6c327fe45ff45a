#include "flow/design_flow.hpp"

#include <utility>

#include "flow/portfolio.hpp"
#include "flow/validate.hpp"
#include "trace/metrics.hpp"

namespace isex::flow {

FlowConfig front_end_defaults() {
  FlowConfig config;
  config.machine = sched::MachineConfig::make(2, {6, 3});
  return config;
}

core::MultiIssueExplorer make_explorer(const FlowConfig& config,
                                       const hw::HwLibrary& library) {
  isa::IsaFormat format;
  format.reg_file = config.machine.reg_file;
  format.max_ises = config.constraints.max_ises;
  format.max_ise_latency_cycles = config.max_ise_latency_cycles;
  if (config.algorithm == Algorithm::kMultiIssue)
    return core::MultiIssueExplorer(config.machine, format, library,
                                    config.params);
  core::ExplorerParams legality_only = config.params;
  legality_only.locality_aware = false;
  return core::MultiIssueExplorer(
      sched::MachineConfig::make(1, format.reg_file), format, library,
      legality_only);
}

mem::CacheStats annotate_program(ProfiledProgram& program,
                                 const mem::CacheConfig& config) {
  mem::CacheStats stats;
  for (ProfiledBlock& block : program.blocks)
    stats.merge(mem::annotate_graph(block.graph, config));
  trace::MetricsRegistry& registry = trace::MetricsRegistry::global();
  registry.counter("isex_cache_accesses_total")
      .inc(static_cast<double>(stats.accesses));
  registry.counter("isex_cache_hits_total", {{"level", "l1"}})
      .inc(static_cast<double>(stats.l1_hits));
  registry.counter("isex_cache_hits_total", {{"level", "l2"}})
      .inc(static_cast<double>(stats.l2_hits));
  registry.counter("isex_cache_mem_accesses_total")
      .inc(static_cast<double>(stats.mem_accesses));
  registry.counter("isex_cache_annotated_nodes_total")
      .inc(static_cast<double>(stats.annotated_nodes));
  registry.gauge("isex_cache_last_l1_hit_rate").set(stats.l1_hit_rate());
  return stats;
}

FlowResult run_design_flow(const ProfiledProgram& program,
                           const hw::HwLibrary& library,
                           const FlowConfig& config) {
  Expected<FlowResult> result = run_design_flow_checked(program, library, config);
  if (!result) throw ValidationException(result.error());
  return std::move(result).value();
}

Expected<FlowResult> run_design_flow_checked(const ProfiledProgram& program,
                                             const hw::HwLibrary& library,
                                             const FlowConfig& config) {
  // The single-program flow is the portfolio pipeline on one row at
  // weight 1.0; the program is read in place.
  Expected<PortfolioResult> batch = run_flow_stages(
      {ProgramRow{&program, 1.0}}, library, config, [&] {
        ValidationReport report = validate(config);
        report.merge(validate(program));
        return report;
      });
  if (!batch) return batch.error();
  PortfolioProgramResult& only = batch->programs.front();
  FlowResult result;
  result.replacement = std::move(only.replacement);
  result.selection = std::move(only.selection);
  result.hot_blocks = std::move(only.hot_blocks);
  result.explorations = std::move(only.explorations);
  result.cache_modeled = batch->cache_modeled;
  result.cache_stats = batch->cache_stats;
  return result;
}

}  // namespace isex::flow
