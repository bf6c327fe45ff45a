// Candidate-evaluation microbench: evaluations/sec and heap allocations per
// evaluation of the copy-free pipeline (dfg::CollapsedView overlay scheduled
// into a reusable sched::SchedulerScratch) against the pre-optimization
// reference (materialize Graph::collapse, schedule the copy with fresh
// buffers).  Both score the identical candidate stream, and every makespan
// is cross-checked, so the bench doubles as an equivalence test.
//
// Candidates are convex by construction: a window of consecutive positions
// in a topological order can never be left and re-entered (edges only go
// forward in topo position).  Windows of size 2..8 slide over the hottest
// O3 block of each suite benchmark plus a few random DAGs.
//
// Results land in BENCH_candidates.json.  Flags:
//   --quick       fewer evaluation passes (CI smoke)
//   --evals N     evaluation passes per case (default 120, quick 25)
//   --floor E     exit 1 if optimized evals/sec < 0.7 × E, or if the
//                 speedup over the reference drops below 2× (the tentpole's
//                 headline claim; the floor flag arms both gates)
// Exit is also nonzero when any view makespan diverges from the collapsed
// graph's or the warmed-up optimized path performs any heap allocation.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "bench_suite/kernels.hpp"
#include "counting_allocator.hpp"
#include "dfg/analysis.hpp"
#include "dfg/collapsed_view.hpp"
#include "dfg/graph.hpp"
#include "gate_report.hpp"
#include "test_util.hpp"
#include "sched/list_scheduler.hpp"
#include "sched/machine_config.hpp"
#include "util/rng.hpp"

namespace {

using namespace isex;

struct Candidate {
  dfg::NodeSet members;
  dfg::IseInfo info;
};

sched::MachineConfig bench_machine() {
  return sched::MachineConfig::make(2, {6, 3});
}

struct DfgCase {
  std::string name;
  dfg::Graph graph;
  std::vector<Candidate> candidates;
};

// Sliding topo windows, the same legal-candidate source the equivalence
// test uses (tests/test_collapsed_view.cpp).  Windows are port-legalized
// like real candidates: a supernode demanding more register ports than the
// machine has could never issue.
std::vector<Candidate> make_candidates(const dfg::Graph& g,
                                       const sched::MachineConfig& machine) {
  std::vector<Candidate> out;
  const std::vector<dfg::NodeId> topo = g.topological_order();
  for (std::size_t len = 2; len <= 8; ++len) {
    for (std::size_t start = 0; start + len <= topo.size(); start += 2) {
      Candidate c;
      c.members.resize(g.num_nodes());
      for (std::size_t i = start; i < start + len; ++i)
        c.members.insert(topo[i]);
      c.info.latency_cycles = 1 + static_cast<int>(len / 4);
      c.info.area = 4.0 * static_cast<double>(len);
      c.info.num_inputs = dfg::count_inputs(g, c.members);
      c.info.num_outputs = dfg::count_outputs(g, c.members);
      if (c.info.num_inputs > machine.reg_file.read_ports ||
          c.info.num_outputs > machine.reg_file.write_ports)
        continue;
      out.push_back(std::move(c));
    }
  }
  return out;
}

struct ModeStats {
  double best_seconds = 0.0;  // fastest of the timing reps
  std::uint64_t evals = 0;    // evaluations per rep
  std::uint64_t timed_evals = 0;
  std::uint64_t allocs = 0;  // across all timed reps
  std::uint64_t cycle_sum = 0;

  double evals_per_sec() const {
    return best_seconds > 0.0 ? static_cast<double>(evals) / best_seconds
                              : 0.0;
  }
  double allocs_per_eval() const {
    return timed_evals > 0 ? static_cast<double>(allocs) /
                                 static_cast<double>(timed_evals)
                           : 0.0;
  }
};

struct CaseReport {
  std::string name;
  std::size_t nodes = 0;
  std::size_t candidates = 0;
  ModeStats reference;
  ModeStats optimized;
  bool identical = false;
};

constexpr int kTimingReps = 3;

CaseReport run_case(const DfgCase& c, int passes) {
  CaseReport report;
  report.name = c.name;
  report.nodes = c.graph.num_nodes();
  report.candidates = c.candidates.size();
  const std::uint64_t evals_per_rep =
      static_cast<std::uint64_t>(passes) * c.candidates.size();

  const sched::ListScheduler scheduler(bench_machine());

  // Reference: materialize the collapse, schedule the copy — what the
  // explorer's evaluation loop did before the overlay pipeline.
  report.reference.evals = evals_per_rep;
  report.reference.best_seconds = std::numeric_limits<double>::max();
  for (int rep = 0; rep < kTimingReps; ++rep) {
    const auto alloc0 = testing::allocation_count();
    const auto start = std::chrono::steady_clock::now();
    std::uint64_t sum = 0;
    for (int p = 0; p < passes; ++p) {
      for (const Candidate& cand : c.candidates) {
        const dfg::Graph collapsed = c.graph.collapse(cand.members, cand.info);
        sum += static_cast<std::uint64_t>(scheduler.cycles(collapsed));
      }
    }
    const double secs =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
            .count();
    report.reference.best_seconds =
        std::min(report.reference.best_seconds, secs);
    report.reference.timed_evals += evals_per_rep;
    report.reference.allocs +=
        testing::allocation_count() - alloc0;
    report.reference.cycle_sum = sum;
  }

  // Optimized: one reused view + scratch.  The warm-up pass replays the
  // exact candidate stream outside the timed/counted window, so every
  // buffer reaches the high-water size of the hardest candidate before
  // counting starts — the timed reps must then be allocation-free, not just
  // amortized-cheap.
  {
    dfg::CollapsedView view;
    sched::SchedulerScratch scratch;
    for (const Candidate& cand : c.candidates) {
      view.assign(c.graph, cand.members, cand.info);
      (void)scheduler.cycles(view, scratch);
    }
    report.optimized.evals = evals_per_rep;
    report.optimized.best_seconds = std::numeric_limits<double>::max();
    for (int rep = 0; rep < kTimingReps; ++rep) {
      const auto alloc0 = testing::allocation_count();
      const auto start = std::chrono::steady_clock::now();
      std::uint64_t sum = 0;
      for (int p = 0; p < passes; ++p) {
        for (const Candidate& cand : c.candidates) {
          view.assign(c.graph, cand.members, cand.info);
          sum += static_cast<std::uint64_t>(scheduler.cycles(view, scratch));
        }
      }
      const double secs = std::chrono::duration<double>(
                              std::chrono::steady_clock::now() - start)
                              .count();
      report.optimized.best_seconds =
          std::min(report.optimized.best_seconds, secs);
      report.optimized.timed_evals += evals_per_rep;
      report.optimized.allocs +=
          testing::allocation_count() - alloc0;
      report.optimized.cycle_sum = sum;
    }
  }

  report.identical = report.reference.cycle_sum == report.optimized.cycle_sum;
  return report;
}

}  // namespace

int main(int argc, char** argv) {
  int passes = 120;
  bool quick = false;
  double floor_evals_per_sec = 0.0;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      quick = true;
    } else if (std::strcmp(argv[i], "--evals") == 0 && i + 1 < argc) {
      passes = std::atoi(argv[++i]);
    } else if (std::strcmp(argv[i], "--floor") == 0 && i + 1 < argc) {
      floor_evals_per_sec = std::atof(argv[++i]);
    } else {
      std::fprintf(stderr,
                   "usage: perf_candidates [--quick] [--evals N] [--floor E]\n");
      return 2;
    }
  }
  if (quick) passes = std::min(passes, 25);

  // The 7-benchmark suite's hottest O3 blocks — the graphs whose candidate
  // floods the explorer actually scores — plus denser random DAGs that
  // stress supernode-boundary edge dedup.
  std::vector<DfgCase> cases;
  for (const auto bm : bench_suite::all_benchmarks()) {
    flow::ProfiledProgram prog =
        bench_suite::make_program(bm, bench_suite::OptLevel::kO3);
    DfgCase c;
    c.name = std::string(bench_suite::name(bm));
    c.graph = std::move(prog.blocks.front().graph);
    c.candidates = make_candidates(c.graph, bench_machine());
    cases.push_back(std::move(c));
  }
  {
    Rng rng(42);
    for (const std::size_t n : {24u, 48u}) {
      DfgCase c;
      c.name = "rand" + std::to_string(n);
      c.graph = testing::make_random_dag(n, rng, 0.55);
      c.candidates = make_candidates(c.graph, bench_machine());
      cases.push_back(std::move(c));
    }
  }

  std::printf("perf_candidates: %d passes per case%s\n\n", passes,
              quick ? " (--quick)" : "");
  std::vector<CaseReport> reports;
  ModeStats total_ref;
  ModeStats total_opt;
  bool all_identical = true;
  for (const DfgCase& c : cases) {
    const CaseReport r = run_case(c, passes);
    std::printf(
        "%-9s %3zu nodes %3zu cands  ref %9.0f evals/s (%5.1f allocs/eval)  "
        "opt %9.0f evals/s (%4.2f allocs/eval)  speedup %5.2fx  %s\n",
        r.name.c_str(), r.nodes, r.candidates, r.reference.evals_per_sec(),
        r.reference.allocs_per_eval(), r.optimized.evals_per_sec(),
        r.optimized.allocs_per_eval(),
        r.optimized.evals_per_sec() / r.reference.evals_per_sec(),
        r.identical ? "identical" : "DIVERGED");
    total_ref.best_seconds += r.reference.best_seconds;
    total_ref.evals += r.reference.evals;
    total_ref.timed_evals += r.reference.timed_evals;
    total_ref.allocs += r.reference.allocs;
    total_opt.best_seconds += r.optimized.best_seconds;
    total_opt.evals += r.optimized.evals;
    total_opt.timed_evals += r.optimized.timed_evals;
    total_opt.allocs += r.optimized.allocs;
    all_identical = all_identical && r.identical;
    reports.push_back(r);
  }

  const double speedup = total_opt.evals_per_sec() / total_ref.evals_per_sec();
  std::printf(
      "\ntotal: ref %.0f evals/s, opt %.0f evals/s, speedup %.2fx, "
      "opt allocs/eval %.3f, identical %s\n",
      total_ref.evals_per_sec(), total_opt.evals_per_sec(), speedup,
      total_opt.allocs_per_eval(), all_identical ? "yes" : "NO — BUG");

  gate::Report report("candidates");
  report.params()
      .boolean("quick", quick)
      .integer("passes_per_case", passes)
      .fixed("floor_evals_per_sec", floor_evals_per_sec, 1);
  const auto add_modes = [](gate::Fields& row, const ModeStats& ref,
                            const ModeStats& opt, bool identical) {
    row.fixed("reference_evals_per_sec", ref.evals_per_sec(), 1)
        .fixed("reference_allocs_per_eval", ref.allocs_per_eval(), 3)
        .fixed("optimized_evals_per_sec", opt.evals_per_sec(), 1)
        .fixed("optimized_allocs_per_eval", opt.allocs_per_eval(), 3)
        .fixed("speedup", opt.evals_per_sec() / ref.evals_per_sec(), 3)
        .boolean("identical", identical);
  };
  for (const CaseReport& r : reports)
    add_modes(report.add_row()
                  .string("name", r.name)
                  .integer("nodes", r.nodes)
                  .integer("candidates", r.candidates),
              r.reference, r.optimized, r.identical);
  add_modes(report.add_row().string("name", "total"), total_ref, total_opt,
            all_identical);

  report.identity("view makespans equal Graph::collapse's", all_identical);
  report.ceiling("heap allocations in warmed-up evaluations",
                 static_cast<double>(total_opt.allocs), 0.0);
  // --floor arms both throughput gates; the 30% slack absorbs runner noise.
  const bool armed = floor_evals_per_sec > 0.0;
  report.floor("optimized evals/s", total_opt.evals_per_sec(),
               0.7 * floor_evals_per_sec, armed);
  report.floor("speedup over copy+schedule", speedup, 2.0, armed);
  return report.finish();
}
