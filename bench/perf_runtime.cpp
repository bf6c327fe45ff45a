// Runtime scaling bench: wall clock of a Fig 5.2.1-style exploration sweep
// (7 benchmarks × O3 × MI on the (6/3, 2IS) machine) at jobs ∈ {1, 2, 4, 8}.
// Results — including the cross-configuration determinism check — land in
// BENCH_runtime.json.
//
// The sweep is one suite batch (paper::SuiteExploration: one
// run_portfolio_flow over the seven programs) followed by a serial replay of
// selection and replacement per benchmark — the shape of every Fig 5.2
// point in bench/paper.  Each timed run explores through its own cold
// schedule-evaluation cache, which the cache columns read.
//
// Note on reading the numbers: thread scaling is bounded by the cores the
// host actually grants (recorded as hardware_concurrency); on a 1-core
// container jobs=8 ≈ jobs=1.  ISEX_BENCH_REPEATS overrides the default 3
// best-of exploration repeats; each configuration is additionally timed
// ISEX_BENCH_TIMING_REPEATS times (default 3, fresh pool and cold cache per
// timing repeat) and the JSON reports per-repeat wall times plus their min
// and median — min for headline speedups, median as the noise check.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "paper_figures.hpp"
#include "runtime/eval_cache.hpp"
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

void run_sweep_once(SweepRun& run, int jobs) {
  // Fresh pool (fresh counters) at the requested width; cold cache, so
  // every timing repeat measures the same work.
  runtime::ThreadPool::set_default_jobs(jobs);
  runtime::EvalCache cache;

  flow::FlowConfig config;
  config.machine = sched::MachineConfig::make(2, {6, 3});
  config.repeats = sweep_repeats();
  config.seed = 17;
  config.params.eval_cache = &cache;

  flow::SelectionConstraints constraints;
  constraints.area_budget = 40000.0;
  constraints.max_ises = 32;

  const auto start = std::chrono::steady_clock::now();
  const paper::SuiteExploration suite(bench_suite::OptLevel::kO3, config);
  run.reductions.clear();
  for (std::size_t i = 0; i < suite.size(); ++i)
    run.reductions.push_back(suite.replay(i, constraints).reduction);
  const auto elapsed = std::chrono::steady_clock::now() - start;

  run.seconds_each.push_back(std::chrono::duration<double>(elapsed).count());
  run.pool = runtime::ThreadPool::default_pool().stats();
  run.cache_stats = cache.stats();
}

SweepRun run_sweep(int jobs) {
  SweepRun run;
  run.jobs = jobs;
  for (int r = 0; r < timing_repeats(); ++r) run_sweep_once(run, jobs);
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
  for (const int jobs : {1, 2, 4, 8}) runs.push_back(run_sweep(jobs));

  // Determinism across every configuration: same seed, same reductions,
  // and the same eval-cache hit and miss counts (each key misses once).
  bool deterministic = true;
  for (const SweepRun& run : runs) {
    if (run.reductions != runs.front().reductions ||
        run.cache_stats.hits != runs.front().cache_stats.hits ||
        run.cache_stats.misses != runs.front().cache_stats.misses)
      deterministic = false;
  }

  const double base = runs.front().seconds_min();
  for (const SweepRun& run : runs) {
    std::printf(
        "jobs=%d  min %7.3f s  median %7.3f s  speedup %.2fx  "
        "jobs_run=%llu  cache: %llu/%llu hits (%d%%)\n",
        run.jobs, run.seconds_min(),
        run.seconds_median(), base / run.seconds_min(),
        static_cast<unsigned long long>(run.pool.jobs_run),
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
    std::fprintf(json, "    {\"jobs\": %d, \"seconds_each\": [", run.jobs);
    for (std::size_t r = 0; r < run.seconds_each.size(); ++r)
      std::fprintf(json, "%s%.4f", r > 0 ? ", " : "", run.seconds_each[r]);
    std::fprintf(json,
                 "], \"seconds_min\": %.4f, \"seconds_median\": %.4f, "
                 "\"speedup_vs_jobs1\": %.3f, \"pool_jobs_run\": %llu, "
                 "\"cache_hits\": %llu, \"cache_misses\": %llu, "
                 "\"cache_evictions\": %llu, \"cache_hit_rate\": %.4f}%s\n",
                 run.seconds_min(), run.seconds_median(),
                 base / run.seconds_min(),
                 static_cast<unsigned long long>(run.pool.jobs_run),
                 static_cast<unsigned long long>(run.cache_stats.hits),
                 static_cast<unsigned long long>(run.cache_stats.misses),
                 static_cast<unsigned long long>(run.cache_stats.evictions),
                 run.cache_stats.hit_rate(),
                 i + 1 < runs.size() ? "," : "");
  }
  std::fprintf(json, "  ]\n}\n");
  std::fclose(json);
  std::printf("wrote BENCH_runtime.json\n");

  // Same numbers through the metrics pipe: the counters every pool and
  // eval cache fed during the sweep, so the JSON report and the Prometheus
  // view can be cross-checked against each other.
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
