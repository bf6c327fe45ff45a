// Diagnostic: ACO convergence behaviour on one hot block.
//
// Emits the canonical per-iteration convergence curve for the CRC32 O3
// kernel — TET against the round's best/mean/worst, pheromone decision
// entropy, and the binding max-option-probability vs P_END — the classic
// "ant colony converges" curve, and a window into the trail/merit dynamics
// of §4.3.
//
// The records and the CSV come straight from the trace layer's
// ExplorationTelemetry (the explorer's IterationTrace *is* its
// ConvergencePoint), so this harness, `isex --convergence-out`, and
// tools/validate_trace.py all share one format.  A condensed table is
// printed for eyeballing; set ISEX_CONVERGENCE_OUT=file.csv to write the
// full curve (docs/OBSERVABILITY.md shows how to plot it).
#include <cstdlib>
#include <fstream>
#include <iostream>

#include "bench_suite/kernels.hpp"
#include "core/mi_explorer.hpp"
#include "runtime/eval_cache.hpp"
#include "trace/telemetry.hpp"
#include "util/table_printer.hpp"

int main() {
  using namespace isex;

  const auto machine = sched::MachineConfig::make(2, {6, 3});
  isa::IsaFormat format;
  format.reg_file = machine.reg_file;
  // The run's memo: its hit rate is the curve's cache_hit_rate column.
  runtime::EvalCache cache;
  core::ExplorerParams params;
  params.eval_cache = &cache;
  params.collect_trace = true;
  const core::MultiIssueExplorer explorer(machine, format,
                                          hw::HwLibrary::paper_default(),
                                          params);

  const auto program = bench_suite::make_program(
      bench_suite::Benchmark::kCrc32, bench_suite::OptLevel::kO3);
  const dfg::Graph& block = program.blocks[0].graph;

  Rng rng(17);
  const core::ExplorationResult result = explorer.explore(block, rng);

  std::cout << "ACO convergence on CRC32/O3 hot block (" << block.num_nodes()
            << " ops, machine " << machine.label() << ")\n"
            << "base " << result.base_cycles << " cycles -> final "
            << result.final_cycles << " cycles in " << result.rounds
            << " round(s)\n\n";

  // Condensed view: a round's first iterations, then every fifth.
  TablePrinter table;
  table.set_header({"round", "iter", "TET", "best TET", "mean TET",
                    "entropy", "max prob", "converged ops"});
  int last_round = -1;
  for (const core::IterationTrace& t : result.trace) {
    const bool new_round = t.round != last_round;
    if (!new_round && t.iteration % 5 != 0) continue;
    last_round = t.round;
    table.add_row({std::to_string(t.round + 1), std::to_string(t.iteration + 1),
                   std::to_string(t.tet), std::to_string(t.best_tet),
                   TablePrinter::fmt(t.mean_tet, 2),
                   TablePrinter::fmt(t.entropy, 3),
                   TablePrinter::fmt(t.max_option_probability, 3),
                   TablePrinter::pct(t.converged_fraction, 0)});
  }
  table.print(std::cout);
  std::cout << "\nExpected shape: TET noise narrows onto the best schedule, "
               "entropy decays toward 0, and max prob climbs past P_END="
            << params.p_end << " within each round.\n";

  if (const char* path = std::getenv("ISEX_CONVERGENCE_OUT")) {
    std::ofstream out(path);
    if (!out) {
      std::cerr << "cannot write " << path << "\n";
      return 1;
    }
    trace::ExplorationTelemetry::write_csv(out, result.trace);
    std::cout << "wrote full curve to " << path << " ("
              << result.trace.size() << " points)\n";
  }
  return 0;
}
