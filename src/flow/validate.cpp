#include "flow/validate.hpp"

#include <cmath>
#include <string>

#include "dfg/validate.hpp"

namespace isex::flow {

ValidationReport validate(const ProfiledProgram& program) {
  ValidationReport report;
  if (program.blocks.empty()) {
    report.add(ErrorCode::kProgramEmpty,
               "program '" + program.name + "' has no basic blocks");
    return report;
  }
  for (std::size_t b = 0; b < program.blocks.size(); ++b) {
    const ProfiledBlock& block = program.blocks[b];
    const std::string who = "block " + std::to_string(b) +
                            (block.name.empty() ? "" : " ('" + block.name + "')");
    if (block.exec_count == 0)
      report.add(ErrorCode::kProgramExecCount,
                 who + " has execution count 0; profiling data is truncated");
    // Re-report the block's DFG defects with the block named, keeping the
    // underlying codes so callers can still dispatch on them.  The report
    // must outlive the loop: issues() references its storage.
    const ValidationReport block_report = dfg::validate(block.graph);
    for (const Error& e : block_report.issues())
      report.add(e.code(), who + ": " + e.message(), e.loc(), e.severity());
  }
  return report;
}

ValidationReport validate(const FlowConfig& config) {
  ValidationReport report = sched::validate(config.machine);
  auto param_error = [&](const std::string& message) {
    report.add(ErrorCode::kFlowParamsInvalid, message);
  };
  if (config.repeats < 1)
    param_error("repeats " + std::to_string(config.repeats) +
                " is invalid (must be >= 1)");
  static_assert(FlowConfig::hot_coverage > 0.0 &&
                FlowConfig::hot_coverage <= 1.0);
  static_assert(FlowConfig::max_hot_blocks >= 1);
  if (config.constraints.max_ises < 0)
    param_error("constraints.max_ises must be >= 0");
  if (!(config.constraints.area_budget >= 0.0))  // also rejects NaN
    param_error("constraints.area_budget must be >= 0");
  const core::ExplorerParams& p = config.params;
  static_assert(core::ExplorerParams::max_rounds >= 1);
  static_assert(core::ExplorerParams::p_end > 0.0 &&
                core::ExplorerParams::p_end <= 1.0);
  if (p.max_iterations < 1)
    param_error("ACO cap max_iterations must be >= 1");
  if (p.colonies < 1)
    param_error("colonies " + std::to_string(p.colonies) +
                " is invalid (must be >= 1)");
  if (p.merge_interval < 1)
    param_error("merge_interval " + std::to_string(p.merge_interval) +
                " is invalid (must be >= 1)");
  if (config.cache) report.merge(mem::validate(*config.cache));
  return report;
}

ValidationReport validate(const std::vector<PortfolioEntry>& entries) {
  ValidationReport report;
  if (entries.empty()) {
    report.add(ErrorCode::kProgramEmpty, "portfolio manifest has no programs");
    return report;
  }
  for (std::size_t p = 0; p < entries.size(); ++p) {
    const PortfolioEntry& entry = entries[p];
    const std::string who =
        "program " + std::to_string(p) +
        (entry.program.name.empty() ? "" : " ('" + entry.program.name + "')");
    if (!std::isfinite(entry.weight) || !(entry.weight > 0.0))
      report.add(ErrorCode::kFlowParamsInvalid,
                 who + " weight " + std::to_string(entry.weight) +
                     " is invalid (must be finite and > 0)");
    const ValidationReport program_report = validate(entry.program);
    for (const Error& e : program_report.issues())
      report.add(e.code(), who + ": " + e.message(), e.loc(), e.severity());
  }
  return report;
}

}  // namespace isex::flow
