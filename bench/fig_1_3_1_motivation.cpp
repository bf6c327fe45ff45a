// Regenerates Figure 1.3.1's argument: on a dependence-bound DFG,
// (a) widening issue alone hits the dependence wall,
// (b) an ISE cuts through it,
// (c) exploring ISEs *for* the wide machine beats reusing the single-issue
//     exploration result (§1.4's case-1 vs case-2 comparison).
#include <iostream>

#include "baseline/si_explorer.hpp"
#include "core/mi_explorer.hpp"
#include "flow/program.hpp"
#include "flow/replacement.hpp"
#include "flow/selection.hpp"
#include "isa/tac_parser.hpp"
#include "sched/list_scheduler.hpp"
#include "util/table_printer.hpp"

namespace {

// A dependence-chain DFG with plenty of side parallelism, in the spirit of
// the introduction's example: the t-chain is the 2-issue critical path; the
// u/v side chains fit into its slack on a 2-issue machine, so packing them
// into ISEs only wastes area there — yet a sequential (single-issue) view
// sees them as profitable.
constexpr const char* kExample = R"(
  t1 = addu a, b
  t2 = xor t1, c
  t3 = and t2, d
  t4 = srl t3, 2
  u1 = addu e, f
  u2 = or u1, g
  u3 = and u2, p
  v1 = subu h, k
  v2 = xor v1, q
  v3 = or v2, s
  t5 = addu t4, u3
  t6 = xor t5, v3
  live_out t6
)";

int deploy_cycles(const isex::dfg::Graph& block,
                  const isex::core::ExplorationResult& explored,
                  const isex::sched::MachineConfig& machine) {
  using namespace isex;
  // Collapse the explored ISEs into the block and schedule on `machine`.
  core::RewrittenBlock deployed(block);
  for (const auto& ise : explored.ises) deployed.collapse(ise);
  return sched::ListScheduler(machine).cycles(deployed.graph());
}

}  // namespace

int main() {
  using namespace isex;

  const isa::ParsedBlock block = isa::parse_tac(kExample);
  const hw::HwLibrary lib = hw::HwLibrary::paper_default();

  const auto one_issue = sched::MachineConfig::make(1, {4, 2});
  const auto two_issue = sched::MachineConfig::make(2, {6, 3});

  std::cout << "Figure 1.3.1: ISE exploring results for different "
               "architectures (12-op example DFG)\n\n";

  TablePrinter table;
  table.set_header({"architecture", "cycles", "ASFU area (um^2)"});
  table.add_row({"single-issue, no ISE",
                 std::to_string(sched::ListScheduler(one_issue).cycles(block.graph)),
                 "0"});
  table.add_row({"2-issue, no ISE",
                 std::to_string(sched::ListScheduler(two_issue).cycles(block.graph)),
                 "0"});

  // Single-issue exploration, deployed on 1-issue and (case 1) on 2-issue.
  isa::IsaFormat format;
  format.reg_file = two_issue.reg_file;
  const baseline::SingleIssueExplorer si(format, lib);
  Rng rng_si(11);
  const auto si_result = si.explore_best_of(block.graph, 5, rng_si);
  table.add_row({"single-issue with ISE",
                 std::to_string(si_result.final_cycles),
                 TablePrinter::fmt(si_result.total_area(), 1)});
  table.add_row({"case 1: SI exploration on 2-issue",
                 std::to_string(deploy_cycles(block.graph, si_result, two_issue)),
                 TablePrinter::fmt(si_result.total_area(), 1)});

  // Multi-issue exploration (case 2).
  const core::MultiIssueExplorer mi(two_issue, format, lib);
  Rng rng_mi(11);
  const auto mi_result = mi.explore_best_of(block.graph, 5, rng_mi);
  table.add_row({"case 2: MI exploration on 2-issue",
                 std::to_string(mi_result.final_cycles),
                 TablePrinter::fmt(mi_result.total_area(), 1)});

  table.print(std::cout);
  std::cout << "\nExpected shape: case 2 needs no more cycles than case 1 "
               "and no more area.\n";
  return 0;
}
