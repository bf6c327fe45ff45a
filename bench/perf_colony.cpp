// Multi-colony scaling bench: wall clock of a Fig 5.2.1-style exploration
// sweep (7 benchmarks × O3 × MI on the (6/3, 2IS) machine) at colony counts
// {1, 2, 4, 8}, each measured at jobs=1 and jobs=8.  Results — including the
// per-colony-count thread-identity check — land in BENCH_colony.json.
//
// Unlike perf_runtime, explorations here run *top level* on the calling
// thread (no block × repeat fan-out): nested parallel_for inlines serially,
// so the colony epoch fan-out inside MultiIssueExplorer::explore is the only
// pool user and its scaling is what gets measured.
//
// Gates (exit status 1 on failure):
//   * identity — for every colony count the exploration digest at jobs=1
//     must equal the digest at jobs=8.  Always enforced: colonies are a
//     search parameter, never a function of the thread count.
//   * speedup — colonies=8/jobs=8 must beat the serial baseline
//     (colonies=1/jobs=1) by 2.0x.  Enforced only on hosts with
//     gate::kScalingCores cores or more; on smaller hosts the gate is
//     recorded in the JSON but does not fail the run.
//
// `--quick` drops to one timing repeat for CI smoke runs; the identity
// check runs at full strength either way.
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "bench_suite/kernels.hpp"
#include "core/mi_explorer.hpp"
#include "gate_report.hpp"
#include "golden_hash.hpp"
#include "runtime/eval_cache.hpp"
#include "runtime/thread_pool.hpp"

namespace {

using namespace isex;

/// colonies=8/jobs=8 over the serial baseline.
constexpr double kSpeedupFloor = 2.0;

struct ColonyRun {
  int colonies = 1;
  int jobs = 1;
  gate::Timing timing;
  std::uint64_t digest = 0;  ///< combined over the sweep's explorations
};

/// One sweep: explore the hottest block of every benchmark serially on this
/// thread (so the colony fan-out is top level), own cold cache, fresh pool.
void run_sweep_once(ColonyRun& run) {
  runtime::ThreadPool::set_default_jobs(run.jobs);
  runtime::EvalCache cache;

  const auto machine = sched::MachineConfig::make(2, {6, 3});
  isa::IsaFormat format;
  format.reg_file = machine.reg_file;
  const hw::HwLibrary library = hw::HwLibrary::paper_default();
  core::ExplorerParams params;
  params.colonies = run.colonies;
  params.eval_cache = &cache;
  const core::MultiIssueExplorer explorer(machine, format, library, params);

  // Any cross-thread-count drift in an exploration flips the digest.
  testing::Fnv1a combined;
  const auto start = std::chrono::steady_clock::now();
  for (const bench_suite::Benchmark bm : bench_suite::all_benchmarks()) {
    const flow::ProfiledProgram prog =
        bench_suite::make_program(bm, bench_suite::OptLevel::kO3);
    Rng rng(17);
    const core::ExplorationResult r =
        explorer.explore(prog.blocks.front().graph, rng);
    combined.mix(testing::hash_exploration(r));
  }
  run.timing.seconds.push_back(gate::seconds_since(start));
  run.digest = combined.value();
}

ColonyRun run_sweep(int colonies, int jobs, int repeats) {
  ColonyRun run;
  run.colonies = colonies;
  run.jobs = jobs;
  for (int r = 0; r < repeats; ++r) run_sweep_once(run);
  return run;
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  for (int i = 1; i < argc; ++i)
    if (std::strcmp(argv[i], "--quick") == 0) quick = true;

  const unsigned hardware = std::thread::hardware_concurrency();
  const int repeats = gate::timing_repeats(quick ? 1 : 3);
  const bool enforce_floor = gate::scaling_valid();
  std::printf("perf_colony: Fig 5.2.1-style sweep (7 benchmarks, O3, MI), "
              "colonies x jobs grid%s\n", quick ? " [quick]" : "");
  std::printf("hardware_concurrency: %u, timing_repeats: %d, "
              "speedup floor: %.2fx (%s)\n\n",
              hardware, repeats, kSpeedupFloor,
              enforce_floor ? "enforced" : "not enforced, < 4 cores");

  const std::vector<int> colony_counts = {1, 2, 4, 8};
  std::vector<ColonyRun> runs;
  for (const int colonies : colony_counts) {
    runs.push_back(run_sweep(colonies, /*jobs=*/1, repeats));
    runs.push_back(run_sweep(colonies, /*jobs=*/8, repeats));
  }
  runtime::ThreadPool::set_default_jobs(0);  // restore auto width

  gate::Report report("colony");
  report.params()
      .string("sweep", "fig_5_2_1_style_7bench_O3_MI_6_3_2IS")
      .integer("hardware_concurrency", hardware)
      .boolean("quick", quick)
      .integer("timing_repeats", repeats);

  // Headline: colonies=8 at jobs=8 vs the serial baseline (1 colony, 1 job).
  const double serial = runs.front().timing.min();
  const double headline = serial / runs.back().timing.min();
  for (const ColonyRun& run : runs) {
    std::printf("colonies=%d jobs=%d  min %7.3f s  median %7.3f s  "
                "speedup %.2fx  digest %016llx\n",
                run.colonies, run.jobs, run.timing.min(), run.timing.median(),
                serial / run.timing.min(),
                static_cast<unsigned long long>(run.digest));
    report.add_row()
        .integer("colonies", run.colonies)
        .integer("jobs", run.jobs)
        .timing("seconds", run.timing)
        .fixed("speedup_vs_serial", serial / run.timing.min(), 3)
        .digest("digest", run.digest);
  }

  // Identity gate: per colony count, jobs=1 and jobs=8 digests must match.
  bool identity_ok = true;
  for (std::size_t i = 0; i + 1 < runs.size(); i += 2)
    identity_ok &= report.identity(
        "colonies=" + std::to_string(runs[i].colonies) + ": jobs=1 == jobs=8",
        runs[i].digest == runs[i + 1].digest);
  std::printf("\nidentity (jobs=1 == jobs=8 per colony count): %s\n",
              identity_ok ? "yes" : "NO — BUG");
  std::printf("headline: colonies=8/jobs=8 vs serial = %.2fx (floor %.2fx, "
              "%s)\n", headline, kSpeedupFloor,
              enforce_floor ? "enforced" : "informational");
  report.floor("colonies=8/jobs=8 speedup vs serial", headline, kSpeedupFloor,
               enforce_floor);
  return report.finish();
}
