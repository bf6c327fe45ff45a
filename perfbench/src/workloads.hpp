// The three workloads (README.md says why each was chosen).  Each times its
// set-up in bursts spread over the run, runs an untimed warm-up, then a
// fixed amount of work sized from --seconds, checks
// every job's output, and fills `report` with the end-to-end metrics
// (opts.trace == false) or the per-layer metrics of a traced run.
#pragma once

#include "common.hpp"

namespace perfbench {

void run_paper_sweep(const Options& opts, Report& report);
void run_portfolio_mem(const Options& opts, Report& report);
void run_serve_mix(const Options& opts, Report& report);

}  // namespace perfbench
