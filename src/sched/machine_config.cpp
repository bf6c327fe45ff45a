#include "sched/machine_config.hpp"

#include "util/assert.hpp"

namespace isex::sched {

MachineConfig MachineConfig::make(int issue_width,
                                  isa::RegisterFileConfig reg_file) {
  ISEX_ASSERT(issue_width >= 1);
  MachineConfig cfg;
  cfg.issue_width = issue_width;
  cfg.reg_file = reg_file;
  cfg.fu_counts = {issue_width, 1, 1, 1, 1};
  return cfg;
}

std::string MachineConfig::label() const {
  std::string text = "(";
  text += reg_file.label();
  text += ", ";
  text += std::to_string(issue_width);
  text += "IS)";
  return text;
}

ValidationReport validate(const MachineConfig& config) {
  ValidationReport report;
  if (config.issue_width < 1)
    report.add(ErrorCode::kConfigIssueWidth,
               "issue width " + std::to_string(config.issue_width) +
                   " is invalid (must be >= 1)");
  else if (config.issue_width > 4)
    report.add(ErrorCode::kConfigOutsidePaperSweep,
               "issue width " + std::to_string(config.issue_width) +
                   " is outside the paper's 2-4 evaluation range",
               {}, Severity::kWarning);

  const isa::RegisterFileConfig& rf = config.reg_file;
  if (rf.read_ports < 1 || rf.write_ports < 1)
    report.add(ErrorCode::kConfigPorts,
               "register file " + rf.label() +
                   " is invalid (read and write ports must be >= 1)");
  else if (rf.read_ports < 4 || rf.read_ports > 10 || rf.write_ports < 2 ||
           rf.write_ports > 5)
    report.add(ErrorCode::kConfigOutsidePaperSweep,
               "register file " + rf.label() +
                   " is outside the paper's 4/2-10/5 port sweep",
               {}, Severity::kWarning);

  for (std::size_t cls = 0; cls < kNumFuClasses; ++cls) {
    if (config.fu_counts[cls] < 0)
      report.add(ErrorCode::kConfigFuCounts,
                 "functional-unit class " + std::to_string(cls) +
                     " has negative count " +
                     std::to_string(config.fu_counts[cls]));
  }
  if (config.fu_count(isa::FuClass::kAlu) < 1)
    report.add(ErrorCode::kConfigFuCounts,
               "machine has no ALU; nothing can issue");
  return report;
}

}  // namespace isex::sched
