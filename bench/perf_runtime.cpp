// Runtime scaling bench: wall clock of a Fig 5.2.1-style exploration sweep
// (7 benchmarks × O3 × MI on the (6/3, 2IS) machine) at jobs ∈ {1, 2, 4, 8},
// with the schedule-evaluation cache on and off.  Results — including the
// cross-configuration determinism check — land in BENCH_runtime.json.
//
// The sweep itself is one parallel_map of explore jobs, one per benchmark,
// followed by a serial evaluate/reduce over their results — exactly the
// shape the figure harnesses have.
//
// Note on reading the numbers: thread scaling is bounded by the cores the
// host actually grants (recorded as hardware_concurrency); on a 1-core
// container jobs=8 ≈ jobs=1 while the cache still pays.  ISEX_BENCH_REPEATS
// overrides the default 3 best-of exploration repeats; each configuration is
// additionally timed ISEX_BENCH_TIMING_REPEATS times (default 3, fresh pool
// and cold cache per timing repeat) and the JSON reports per-repeat wall
// times plus their min and median — min for headline speedups, median as
// the noise check.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "harness_common.hpp"
#include "runtime/eval_cache.hpp"
#include "runtime/runtime_stats.hpp"
#include "runtime/thread_pool.hpp"
#include "trace/metrics.hpp"

namespace {

using namespace isex;

int sweep_repeats() {
  if (const char* env = std::getenv("ISEX_BENCH_REPEATS")) {
    const int v = std::atoi(env);
    if (v >= 1) return v;
  }
  return 3;
}

int timing_repeats() {
  if (const char* env = std::getenv("ISEX_BENCH_TIMING_REPEATS")) {
    const int v = std::atoi(env);
    if (v >= 1) return v;
  }
  return 3;
}

struct SweepRun {
  int jobs = 1;
  bool cache = true;
  std::vector<double> seconds_each;  // wall time of every timing repeat
  runtime::PoolStats pool;           // from the last timing repeat
  runtime::CacheStats cache_stats;   // from the last timing repeat
  std::vector<double> reductions;  // per benchmark, for determinism checking

  double seconds_min() const {
    return *std::min_element(seconds_each.begin(), seconds_each.end());
  }
  double seconds_median() const {
    std::vector<double> s = seconds_each;
    std::sort(s.begin(), s.end());
    const std::size_t n = s.size();
    return n % 2 == 1 ? s[n / 2] : 0.5 * (s[n / 2 - 1] + s[n / 2]);
  }
};

void run_sweep_once(SweepRun& run, int jobs, bool cache) {
  // Fresh pool (fresh counters) at the requested width; cold cache, so
  // every timing repeat measures the same work.
  runtime::ThreadPool::set_default_jobs(jobs);
  runtime::schedule_cache().clear();
  runtime::schedule_cache().reset_stats();

  const auto machine = sched::MachineConfig::make(2, {6, 3});
  const std::vector<bench_suite::Benchmark> benchmarks =
      bench_suite::all_benchmarks();
  const int repeats = sweep_repeats();
  core::ExplorerParams params;
  params.use_eval_cache = cache;

  flow::SelectionConstraints constraints;
  constraints.area_budget = 40000.0;
  constraints.max_ises = 32;

  run.reductions.assign(benchmarks.size(), 0.0);

  const auto start = std::chrono::steady_clock::now();
  const runtime::StageTimer stage_timer("exploration");
  const std::vector<benchx::ExploredProgram> explored = runtime::parallel_map(
      runtime::ThreadPool::default_pool(), benchmarks,
      [&](const bench_suite::Benchmark benchmark) {
        return benchx::explore_program(benchmark, bench_suite::OptLevel::kO3,
                                       machine, flow::Algorithm::kMultiIssue,
                                       repeats, /*seed=*/17, params);
      });
  for (std::size_t i = 0; i < benchmarks.size(); ++i)
    run.reductions[i] =
        benchx::evaluate(explored[i], constraints, machine).reduction;
  const auto elapsed = std::chrono::steady_clock::now() - start;

  run.seconds_each.push_back(std::chrono::duration<double>(elapsed).count());
  run.pool = runtime::ThreadPool::default_pool().stats();
  run.cache_stats = runtime::schedule_cache().stats();
}

SweepRun run_sweep(int jobs, bool cache) {
  SweepRun run;
  run.jobs = jobs;
  run.cache = cache;
  for (int r = 0; r < timing_repeats(); ++r) run_sweep_once(run, jobs, cache);
  return run;
}

}  // namespace

int main() {
  const unsigned hardware = std::thread::hardware_concurrency();
  std::printf("perf_runtime: Fig 5.2.1-style sweep (7 benchmarks, O3, MI)\n");
  std::printf("hardware_concurrency: %u, repeats: %d, timing_repeats: %d\n\n",
              hardware, sweep_repeats(), timing_repeats());
  if (hardware < 2)
    std::printf("note: single-core host — jobs-sweep speedups are not "
                "meaningful (scaling_valid=false)\n\n");

  std::vector<SweepRun> runs;
  for (const int jobs : {1, 2, 4, 8}) runs.push_back(run_sweep(jobs, true));
  runs.push_back(run_sweep(1, false));
  runs.push_back(run_sweep(8, false));

  // Determinism across every configuration: same seed, same reductions.
  bool deterministic = true;
  for (const SweepRun& run : runs)
    if (run.reductions != runs.front().reductions) deterministic = false;

  const double base = runs.front().seconds_min();
  for (const SweepRun& run : runs) {
    std::printf(
        "jobs=%d cache=%-3s  min %7.3f s  median %7.3f s  speedup %.2fx  "
        "jobs_run=%llu steals=%llu  cache: %llu/%llu hits (%d%%)\n",
        run.jobs, run.cache ? "on" : "off", run.seconds_min(),
        run.seconds_median(), base / run.seconds_min(),
        static_cast<unsigned long long>(run.pool.jobs_run),
        static_cast<unsigned long long>(run.pool.steals),
        static_cast<unsigned long long>(run.cache_stats.hits),
        static_cast<unsigned long long>(run.cache_stats.hits +
                                        run.cache_stats.misses),
        static_cast<int>(run.cache_stats.hit_rate() * 100.0 + 0.5));
  }
  std::printf("\ndeterministic across configurations: %s\n",
              deterministic ? "yes" : "NO — BUG");

  FILE* json = std::fopen("BENCH_runtime.json", "w");
  if (json == nullptr) {
    std::fprintf(stderr, "cannot write BENCH_runtime.json\n");
    return 1;
  }
  std::fprintf(json, "{\n");
  std::fprintf(json, "  \"sweep\": \"fig_5_2_1_style_7bench_O3_MI_6_3_2IS\",\n");
  std::fprintf(json, "  \"hardware_concurrency\": %u,\n", hardware);
  // On a single-core host the jobs sweep cannot show thread scaling — the
  // flat curve is a host artifact, not a regression.  Stamp that so
  // tools/bench_report.py annotates instead of alarming.
  std::fprintf(json, "  \"scaling_valid\": %s,\n",
               hardware >= 2 ? "true" : "false");
  std::fprintf(json, "  \"repeats\": %d,\n", sweep_repeats());
  std::fprintf(json, "  \"timing_repeats\": %d,\n", timing_repeats());
  std::fprintf(json, "  \"deterministic\": %s,\n",
               deterministic ? "true" : "false");
  std::fprintf(json, "  \"runs\": [\n");
  for (std::size_t i = 0; i < runs.size(); ++i) {
    const SweepRun& run = runs[i];
    std::fprintf(json,
                 "    {\"jobs\": %d, \"cache\": %s, \"seconds_each\": [",
                 run.jobs, run.cache ? "true" : "false");
    for (std::size_t r = 0; r < run.seconds_each.size(); ++r)
      std::fprintf(json, "%s%.4f", r > 0 ? ", " : "", run.seconds_each[r]);
    std::fprintf(json,
                 "], \"seconds_min\": %.4f, \"seconds_median\": %.4f, "
                 "\"speedup_vs_jobs1\": %.3f, \"pool_jobs_run\": %llu, "
                 "\"pool_steals\": %llu, \"cache_hits\": %llu, "
                 "\"cache_misses\": %llu, \"cache_evictions\": %llu, "
                 "\"cache_hit_rate\": %.4f}%s\n",
                 run.seconds_min(), run.seconds_median(),
                 base / run.seconds_min(),
                 static_cast<unsigned long long>(run.pool.jobs_run),
                 static_cast<unsigned long long>(run.pool.steals),
                 static_cast<unsigned long long>(run.cache_stats.hits),
                 static_cast<unsigned long long>(run.cache_stats.misses),
                 static_cast<unsigned long long>(run.cache_stats.evictions),
                 run.cache_stats.hit_rate(),
                 i + 1 < runs.size() ? "," : "");
  }
  std::fprintf(json, "  ]\n}\n");
  std::fclose(json);
  std::printf("wrote BENCH_runtime.json\n");

  // Same numbers through the metrics pipe: mirror the final configuration's
  // point-in-time stats into the registry (the live counters accumulated
  // during the sweep are already there) and snapshot it, so the JSON report
  // and the Prometheus view can be cross-checked against each other.
  runtime::collect_runtime_stats(runtime::ThreadPool::default_pool())
      .publish(trace::MetricsRegistry::global());
  std::ofstream prom("BENCH_runtime.prom");
  if (prom) {
    trace::MetricsRegistry::global().write_prometheus(prom);
    std::printf("wrote BENCH_runtime.prom\n");
  } else {
    std::fprintf(stderr, "cannot write BENCH_runtime.prom\n");
    return 1;
  }
  return deterministic ? 0 : 1;
}
