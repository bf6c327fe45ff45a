// Memory-hierarchy cost-model bench: the 7-benchmark O3 suite explored
// through run_design_flow with the two-level cache model on and off
// (docs/MEMORY.md).  Results land in BENCH_cachemodel.json.
//
// Gates (exit status 1 on failure):
//   * null identity — the null model (FlowConfig::cache unset) must produce
//     the same per-program exploration digests before and after any cache-
//     modeled run in the process: annotation happens on copies and leaves no
//     residue.  (The legacy digests themselves are pinned by the tier-1
//     golden-hash tests; this gate proves the plumbing is inert when off.)
//   * jobs identity — with the cache model on, jobs=1 and jobs=8 must be
//     bit-identical per program: annotation is a pure function of
//     (graph, config), never of scheduling order or thread count.
//   * effect — at least one program's exploration digest must differ
//     between the null model and the cache model: the simulated latencies
//     actually reach the merit function.
//   * overhead — the cache-modeled flow may cost at most 1.15x the null
//     flow at jobs=8, min over timing repeats.
//
// `--quick` drops to one timing repeat and 2 exploration repeats for CI
// smoke runs; every identity gate runs either way.
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench_suite/kernels.hpp"
#include "flow/design_flow.hpp"
#include "gate_report.hpp"
#include "golden_hash.hpp"
#include "mem/cache_model.hpp"
#include "runtime/thread_pool.hpp"

namespace {

using namespace isex;

/// The cache-modelled flow's wall time over the null flow's.
constexpr double kOverheadCeiling = 1.15;

/// Digest of one flow's hot blocks, explorations and replacement times:
/// any behavioural divergence flips it.
std::uint64_t hash_flow(const flow::FlowResult& result) {
  testing::Fnv1a h;
  h.mix_int(static_cast<long long>(result.hot_blocks.size()));
  for (const std::size_t b : result.hot_blocks) h.mix(b);
  for (const core::ExplorationResult& r : result.explorations)
    h.mix(testing::hash_exploration(r));
  h.mix_int(static_cast<long long>(result.replacement.base_time));
  h.mix_int(static_cast<long long>(result.replacement.final_time));
  return h.value();
}

struct SuiteRun {
  std::vector<std::uint64_t> digests;
  mem::CacheStats cache_stats;
  double seconds = 0.0;
};

SuiteRun run_suite(const std::vector<flow::ProfiledProgram>& programs,
                   const hw::HwLibrary& library,
                   const flow::FlowConfig& config) {
  SuiteRun run;
  const auto start = std::chrono::steady_clock::now();
  for (const flow::ProfiledProgram& program : programs) {
    // Each flow memoizes through its own private cache, cold per program
    // like a CLI invocation.
    const flow::FlowResult result =
        flow::run_design_flow(program, library, config);
    run.digests.push_back(hash_flow(result));
    run.cache_stats.merge(result.cache_stats);
  }
  run.seconds = gate::seconds_since(start);
  return run;
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  for (int i = 1; i < argc; ++i)
    if (std::strcmp(argv[i], "--quick") == 0) quick = true;

  const int repeats = gate::timing_repeats(quick ? 1 : 3);
  std::printf("perf_cachemodel: 7-benchmark O3 suite, cache model on vs off"
              "%s\n",
              quick ? " [quick]" : "");
  std::printf("timing_repeats: %d, overhead ceiling: %.2fx\n\n", repeats,
              kOverheadCeiling);

  const hw::HwLibrary library = hw::HwLibrary::paper_default();
  std::vector<flow::ProfiledProgram> programs;
  for (const bench_suite::Benchmark bm : bench_suite::all_benchmarks())
    programs.push_back(
        bench_suite::make_program(bm, bench_suite::OptLevel::kO3));

  // Every flow explores on the process pool: 8 threads, except for the
  // jobs=1 identity witness.
  constexpr int kJobs = 8;
  runtime::ThreadPool::set_default_jobs(kJobs);
  flow::FlowConfig null_config;
  null_config.machine = sched::MachineConfig::make(2, {6, 3});
  null_config.repeats = quick ? 2 : 5;
  null_config.seed = 17;

  flow::FlowConfig cache_config = null_config;
  cache_config.cache =
      *mem::parse_cache_config("l1_size=1k,l1_ways=2,l1_line=16,"
                               "l2_size=16k,l2_ways=4,l2_line=32,"
                               "l2_hit=6,mem=40");

  // --- Baseline null-model digests (first cache-model-free pass).
  const SuiteRun null_before = run_suite(programs, library, null_config);

  // --- Cache-modeled runs: jobs=8 (timed) and jobs=1 (identity witness).
  SuiteRun cached;
  gate::Timing cached_timing;
  for (int r = 0; r < repeats; ++r) {
    SuiteRun run = run_suite(programs, library, cache_config);
    cached_timing.seconds.push_back(run.seconds);
    if (r == 0) cached = std::move(run);
  }
  runtime::ThreadPool::set_default_jobs(1);
  const SuiteRun cached_serial = run_suite(programs, library, cache_config);
  runtime::ThreadPool::set_default_jobs(kJobs);

  // --- Null-model timing repeats, after the cache-modeled runs so the
  // second digest pass doubles as the no-residue check.
  SuiteRun null_after;
  gate::Timing null_timing;
  for (int r = 0; r < repeats; ++r) {
    SuiteRun run = run_suite(programs, library, null_config);
    null_timing.seconds.push_back(run.seconds);
    if (r == 0) null_after = std::move(run);
  }

  // Gate 4's ratio: min over repeats on both sides.
  const double null_min = null_timing.min();
  const double cached_min = cached_timing.min();
  const double overhead = null_min > 0.0 ? cached_min / null_min : 1.0;

  gate::Report report("cachemodel");
  report.params()
      .string("sweep", "7bench_O3_MI_6_3_2IS_cache")
      .boolean("quick", quick)
      .integer("timing_repeats", repeats)
      .integer("explore_repeats", null_config.repeats)
      .integer("jobs", kJobs)
      .string("cache_config", cache_config.cache->label())
      .fixed("l1_hit_rate", cached.cache_stats.l1_hit_rate(), 4)
      .integer("accesses", cached.cache_stats.accesses)
      .integer("annotated_nodes", cached.cache_stats.annotated_nodes)
      .timing("null_seconds", null_timing)
      .timing("cache_seconds", cached_timing);

  // Gate 1: the null model is unchanged by cache-model code having run.
  const bool null_identity = report.identity(
      "null model unchanged after cache-modelled runs",
      null_before.digests == null_after.digests);

  // Gate 2: cache-modeled results are thread-count independent.
  bool jobs_identity = true;
  for (std::size_t p = 0; p < programs.size(); ++p)
    jobs_identity &= report.identity(
        programs[p].name + ": cache model jobs=8 == jobs=1",
        cached.digests[p] == cached_serial.digests[p]);

  // Gate 3: the model has an effect on at least one program.
  int changed_programs = 0;
  for (std::size_t p = 0; p < programs.size(); ++p) {
    const bool changed = cached.digests[p] != null_before.digests[p];
    changed_programs += changed ? 1 : 0;
    report.add_row()
        .string("name", programs[p].name)
        .digest("null_digest", null_before.digests[p])
        .digest("cache_digest", cached.digests[p])
        .boolean("changed", changed);
  }
  report.floor("programs the cache model changes", changed_programs, 1.0);

  // Gate 4: overhead ceiling.
  report.ceiling("cache model overhead vs null model", overhead,
                 kOverheadCeiling);

  std::printf("null model    min %7.3f s\n", null_min);
  std::printf("cache model   min %7.3f s\n", cached_min);
  std::printf("overhead: %.3fx (ceiling %.2fx)\n", overhead, kOverheadCeiling);
  std::printf("identity: null %s, jobs %s; %d/%zu programs changed by the "
              "model\n",
              null_identity ? "yes" : "NO — BUG",
              jobs_identity ? "yes" : "NO — BUG", changed_programs,
              programs.size());
  std::printf("cache telemetry: %llu accesses, %.1f%% L1 hit rate, "
              "%llu annotated nodes\n",
              static_cast<unsigned long long>(cached.cache_stats.accesses),
              100.0 * cached.cache_stats.l1_hit_rate(),
              static_cast<unsigned long long>(
                  cached.cache_stats.annotated_nodes));
  return report.finish();
}
