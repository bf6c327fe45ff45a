// Design-flow input validation.
//
// run_design_flow consumes two external artifacts — a ProfiledProgram (per
// basic block: a DFG plus an execution count) and a FlowConfig (machine
// model + exploration tunables).  Both arrive from outside the library (TAC
// files, CLI flags, service requests), so their legality is checked here
// once, up front, and a rejected input never reaches the explorer.
//
//   * validate(ProfiledProgram) — at least one block; every block's DFG
//     passes dfg::validate (issues are re-reported with the block name
//     prefixed) and executes at least once;
//   * validate(FlowConfig)      — machine model sane (sched::validate),
//     repeats, constraints, the ACO iteration cap and the colony settings
//     inside their domains (the hot-block coverage, P_END and the round
//     cap are constants, checked at compile time).
//
// run_design_flow_checked (design_flow.hpp) runs both and returns the first
// defects as an Expected error instead of crashing mid-flow.
#pragma once

#include <vector>

#include "flow/design_flow.hpp"
#include "flow/portfolio.hpp"
#include "flow/program.hpp"
#include "util/error.hpp"

namespace isex::flow {

ValidationReport validate(const ProfiledProgram& program);
ValidationReport validate(const FlowConfig& config);

/// Portfolio manifest: at least one entry; every program passes
/// validate(ProfiledProgram) (issues re-reported with the program named);
/// every weight is finite and > 0.  A portfolio's config is its base
/// FlowConfig.
ValidationReport validate(const std::vector<PortfolioEntry>& entries);

}  // namespace isex::flow
