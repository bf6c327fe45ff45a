// Portfolio-exploration bench: the 7-benchmark O3 suite explored as ONE
// batched portfolio (run_portfolio_flow) versus back-to-back independent
// design flows — the workload a multi-application ASIP commission is.
// Results land in BENCH_portfolio.json.
//
// Both sides run the same pipeline: run_design_flow is its one-row case.
// The reference is N one-row runs — N independent CLI invocations — each
// with its own private eval cache, empty at launch, because that is what
// "explore each program separately" costs in practice.  The portfolio side
// is one N-row run with one private eval cache, equally cold.  What the
// comparison measures is therefore the batch itself: job-level dedup, the
// shared cache, one flat fan-out, and the per-program stream split that
// keeps each row's explorations identical to its one-row run.
//
// Gates (exit status 1 on failure):
//   * identity — for every program, the N-row batch's exploration results
//     (hot blocks + every explored ISE) must be bit-identical to the
//     program's one-row run at the same seed.  Always enforced: dedup, the
//     shared cache and the stream split are pure plumbing, never allowed to
//     change a result.
//   * dedup — the portfolio-scoped eval-cache hit rate over the 7-kernel
//     manifest must reach ISEX_BENCH_PORTFOLIO_DEDUP_FLOOR (default 20%):
//     candidate evaluations repeating across repeats, rounds, and programs
//     are found, not recomputed.
//   * thread bound — both sides run at jobs=8 on a private pool, so neither
//     may run a single task on the default pool: the explorations' nested
//     candidate fan-outs run inline inside the private pool's tasks.
//     Always enforced; it counts tasks, not time.
//   * speedup — the portfolio must beat back-to-back flows by
//     ISEX_BENCH_PORTFOLIO_FLOOR (default 1.3x) at jobs=8.  Enforced only
//     when the host grants >= 4 cores; smaller hosts stamp the measured
//     ratio with "scaling_valid": false and do not gate.
//
// `--quick` drops to one timing repeat and 2 exploration repeats for CI
// smoke runs; the identity, dedup and thread-bound checks run either way.
#include <algorithm>
#include <bit>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "bench_suite/kernels.hpp"
#include "flow/portfolio.hpp"
#include "harness_common.hpp"
#include "runtime/thread_pool.hpp"

namespace {

using namespace isex;

int timing_repeats(bool quick) {
  if (const char* env = std::getenv("ISEX_BENCH_TIMING_REPEATS")) {
    const int v = std::atoi(env);
    if (v >= 1) return v;
  }
  return quick ? 1 : 3;
}

double speedup_floor() {
  if (const char* env = std::getenv("ISEX_BENCH_PORTFOLIO_FLOOR")) {
    const double v = std::atof(env);
    if (v > 0.0) return v;
  }
  return 1.3;
}

double dedup_hit_rate_floor() {
  if (const char* env = std::getenv("ISEX_BENCH_PORTFOLIO_DEDUP_FLOOR")) {
    const double v = std::atof(env);
    if (v > 0.0) return v;
  }
  return 0.20;
}

/// FNV-1a over every observable field of an ExplorationResult (mirrors the
/// golden-hash regression tests): any divergence between the portfolio's
/// per-program explorations and an independent flow's flips it.
struct Fnv1a {
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  void mix(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      hash ^= (v >> (i * 8)) & 0xffu;
      hash *= 0x100000001b3ULL;
    }
  }
  void mix_int(long long v) { mix(static_cast<std::uint64_t>(v)); }
  void mix_double(double v) { mix(std::bit_cast<std::uint64_t>(v)); }
};

std::uint64_t hash_explorations(
    const std::vector<std::size_t>& hot_blocks,
    const std::vector<core::ExplorationResult>& explorations) {
  Fnv1a h;
  h.mix_int(static_cast<long long>(hot_blocks.size()));
  for (const std::size_t b : hot_blocks) h.mix(b);
  for (const core::ExplorationResult& r : explorations) {
    h.mix_int(r.base_cycles);
    h.mix_int(r.final_cycles);
    h.mix_int(r.rounds);
    h.mix_int(r.total_iterations);
    h.mix_int(static_cast<long long>(r.ises.size()));
    for (const core::ExploredIse& ise : r.ises) {
      h.mix_int(ise.in_count);
      h.mix_int(ise.out_count);
      h.mix_int(ise.gain_cycles);
      h.mix_int(ise.eval.latency_cycles);
      h.mix_double(ise.eval.area);
      h.mix_double(ise.eval.depth_ns);
      ise.original_nodes.for_each([&](dfg::NodeId m) { h.mix_int(m); });
    }
  }
  return h.hash;
}

flow::FlowConfig base_config(bool quick) {
  flow::FlowConfig config;
  config.machine = sched::MachineConfig::make(2, {6, 3});
  config.repeats = quick ? 2 : 5;
  config.seed = 17;
  config.jobs = 8;
  return config;
}

std::vector<flow::PortfolioEntry> make_manifest() {
  std::vector<flow::PortfolioEntry> entries;
  std::size_t i = 0;
  for (const bench_suite::Benchmark bm : bench_suite::all_benchmarks()) {
    flow::PortfolioEntry entry;
    entry.program = bench_suite::make_program(bm, bench_suite::OptLevel::kO3);
    // Varied execution-frequency weights so the weighted shared selection
    // actually reorders the merged catalog.
    entry.weight = 1.0 + static_cast<double>(i % 3);
    entries.push_back(std::move(entry));
    ++i;
  }
  return entries;
}

struct TimedRun {
  std::vector<double> seconds_each;
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

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  for (int i = 1; i < argc; ++i)
    if (std::strcmp(argv[i], "--quick") == 0) quick = true;

  const unsigned hardware = std::thread::hardware_concurrency();
  const int repeats = timing_repeats(quick);
  const double floor = speedup_floor();
  const bool scaling_valid = hardware >= 4;
  std::printf("perf_portfolio: 7-benchmark O3 manifest, batched portfolio vs "
              "back-to-back independent flows%s\n", quick ? " [quick]" : "");
  std::printf("hardware_concurrency: %u, timing_repeats: %d, "
              "speedup floor: %.2fx (%s)\n\n",
              hardware, repeats, floor,
              scaling_valid ? "enforced" : "not enforced, < 4 cores");

  const hw::HwLibrary library = hw::HwLibrary::paper_default();
  const std::vector<flow::PortfolioEntry> entries = make_manifest();
  const flow::FlowConfig base = base_config(quick);
  const runtime::ThreadPool& default_pool = runtime::ThreadPool::default_pool();
  const std::uint64_t default_tasks_before = default_pool.stats().jobs_run;

  // --- Portfolio runs (cold private cache each time; first run also
  // supplies the identity/dedup artifacts).
  flow::PortfolioConfig portfolio_config;
  portfolio_config.base = base;
  flow::PortfolioResult portfolio_result;
  TimedRun portfolio_timing;
  for (int r = 0; r < repeats; ++r) {
    const auto start = std::chrono::steady_clock::now();
    flow::PortfolioResult result =
        flow::run_portfolio_flow(entries, library, portfolio_config);
    const auto elapsed = std::chrono::steady_clock::now() - start;
    portfolio_timing.seconds_each.push_back(
        std::chrono::duration<double>(elapsed).count());
    if (r == 0) portfolio_result = std::move(result);
  }

  // --- Reference: back-to-back one-row flows, each with its own cold
  // private cache (the N-separate-invocations world the portfolio replaces).
  std::vector<flow::FlowResult> reference;
  TimedRun independent_timing;
  for (int r = 0; r < repeats; ++r) {
    std::vector<flow::FlowResult> results;
    const auto start = std::chrono::steady_clock::now();
    for (const flow::PortfolioEntry& entry : entries)
      results.push_back(flow::run_design_flow(entry.program, library, base));
    const auto elapsed = std::chrono::steady_clock::now() - start;
    independent_timing.seconds_each.push_back(
        std::chrono::duration<double>(elapsed).count());
    if (r == 0) reference = std::move(results);
  }
  const std::uint64_t default_pool_tasks =
      default_pool.stats().jobs_run - default_tasks_before;

  // Gate 1: per-program bit identity against the independent flows.
  bool identity_ok = true;
  std::vector<std::uint64_t> digests;
  for (std::size_t p = 0; p < entries.size(); ++p) {
    const std::uint64_t batched = hash_explorations(
        portfolio_result.programs[p].hot_blocks,
        portfolio_result.programs[p].explorations);
    const std::uint64_t alone =
        hash_explorations(reference[p].hot_blocks, reference[p].explorations);
    digests.push_back(batched);
    if (batched != alone) {
      identity_ok = false;
      std::fprintf(stderr,
                   "IDENTITY VIOLATION: program '%s' portfolio exploration "
                   "digest %016llx != independent %016llx\n",
                   portfolio_result.programs[p].name.c_str(),
                   static_cast<unsigned long long>(batched),
                   static_cast<unsigned long long>(alone));
    }
  }

  // Gate 2: portfolio-wide evaluation dedup.
  const double dedup_hit_rate = portfolio_result.eval_cache_stats.hit_rate();
  const double dedup_floor = dedup_hit_rate_floor();
  const bool dedup_ok = dedup_hit_rate >= dedup_floor;

  // Gate 3: FlowConfig::jobs bounds the threads exploration runs on.
  const bool default_pool_ok = default_pool_tasks == 0;

  // Gate 4: wall-clock vs back-to-back (enforced on >= 4 cores only).
  const double headline =
      independent_timing.seconds_min() / portfolio_timing.seconds_min();

  std::printf("portfolio    min %7.3f s  median %7.3f s\n",
              portfolio_timing.seconds_min(),
              portfolio_timing.seconds_median());
  std::printf("independent  min %7.3f s  median %7.3f s\n",
              independent_timing.seconds_min(),
              independent_timing.seconds_median());
  std::printf("\nidentity (portfolio == independent per program): %s\n",
              identity_ok ? "yes" : "NO — BUG");
  std::printf("dedup hit-rate: %.1f%% (%llu hits / %llu misses; floor %.0f%%)"
              "\n",
              100.0 * dedup_hit_rate,
              static_cast<unsigned long long>(
                  portfolio_result.eval_cache_stats.hits),
              static_cast<unsigned long long>(
                  portfolio_result.eval_cache_stats.misses),
              100.0 * dedup_floor);
  std::printf("default-pool tasks at jobs=%d: %llu (must be 0)\n", base.jobs,
              static_cast<unsigned long long>(default_pool_tasks));
  std::printf("jobs: %llu total, %llu deduped; isomorphic: %llu hot blocks, "
              "%llu candidates\n",
              static_cast<unsigned long long>(portfolio_result.total_jobs),
              static_cast<unsigned long long>(portfolio_result.deduped_jobs),
              static_cast<unsigned long long>(
                  portfolio_result.isomorphic_hot_blocks),
              static_cast<unsigned long long>(
                  portfolio_result.isomorphic_candidates));
  std::printf("headline: portfolio vs back-to-back = %.2fx (floor %.2fx, %s)"
              "\n",
              headline, floor,
              scaling_valid ? "enforced" : "informational");

  FILE* json = std::fopen("BENCH_portfolio.json", "w");
  if (json == nullptr) {
    std::fprintf(stderr, "cannot write BENCH_portfolio.json\n");
    return 1;
  }
  std::fprintf(json, "{\n");
  std::fprintf(json, "  \"bench\": \"portfolio\",\n");
  std::fprintf(json, "  \"sweep\": \"7bench_O3_MI_6_3_2IS_weighted\",\n");
  std::fprintf(json, "  \"hardware_concurrency\": %u,\n", hardware);
  std::fprintf(json, "  \"quick\": %s,\n", quick ? "true" : "false");
  std::fprintf(json, "  \"timing_repeats\": %d,\n", repeats);
  std::fprintf(json, "  \"explore_repeats\": %d,\n", base.repeats);
  std::fprintf(json, "  \"jobs\": %d,\n", base.jobs);
  std::fprintf(json, "  \"identity_ok\": %s,\n", identity_ok ? "true" : "false");
  std::fprintf(json, "  \"dedup_hit_rate\": %.4f,\n", dedup_hit_rate);
  std::fprintf(json, "  \"dedup_floor\": %.2f,\n", dedup_floor);
  std::fprintf(json, "  \"dedup_ok\": %s,\n", dedup_ok ? "true" : "false");
  std::fprintf(json, "  \"default_pool_tasks\": %llu,\n",
               static_cast<unsigned long long>(default_pool_tasks));
  std::fprintf(json, "  \"total_jobs\": %llu,\n",
               static_cast<unsigned long long>(portfolio_result.total_jobs));
  std::fprintf(json, "  \"deduped_jobs\": %llu,\n",
               static_cast<unsigned long long>(portfolio_result.deduped_jobs));
  std::fprintf(json, "  \"isomorphic_hot_blocks\": %llu,\n",
               static_cast<unsigned long long>(
                   portfolio_result.isomorphic_hot_blocks));
  std::fprintf(json, "  \"isomorphic_candidates\": %llu,\n",
               static_cast<unsigned long long>(
                   portfolio_result.isomorphic_candidates));
  std::fprintf(json, "  \"speedup_floor\": %.2f,\n", floor);
  std::fprintf(json, "  \"scaling_valid\": %s,\n",
               scaling_valid ? "true" : "false");
  std::fprintf(json, "  \"headline_speedup\": %.3f,\n", headline);
  std::fprintf(json, "  \"portfolio_seconds_each\": [");
  for (std::size_t r = 0; r < portfolio_timing.seconds_each.size(); ++r)
    std::fprintf(json, "%s%.4f", r > 0 ? ", " : "",
                 portfolio_timing.seconds_each[r]);
  std::fprintf(json, "],\n  \"independent_seconds_each\": [");
  for (std::size_t r = 0; r < independent_timing.seconds_each.size(); ++r)
    std::fprintf(json, "%s%.4f", r > 0 ? ", " : "",
                 independent_timing.seconds_each[r]);
  std::fprintf(json, "],\n  \"programs\": [\n");
  for (std::size_t p = 0; p < portfolio_result.programs.size(); ++p) {
    const flow::PortfolioProgramResult& prog = portfolio_result.programs[p];
    std::fprintf(json,
                 "    {\"name\": \"%s\", \"weight\": %.2f, "
                 "\"base_time\": %llu, \"final_time\": %llu, "
                 "\"num_ises\": %zu, \"weighted_benefit\": %.1f, "
                 "\"digest\": \"%016llx\"}%s\n",
                 prog.name.c_str(), prog.weight,
                 static_cast<unsigned long long>(prog.base_time()),
                 static_cast<unsigned long long>(prog.final_time()),
                 prog.selection.selected.size(), prog.weighted_benefit(),
                 static_cast<unsigned long long>(digests[p]),
                 p + 1 < portfolio_result.programs.size() ? "," : "");
  }
  std::fprintf(json, "  ],\n");
  std::fprintf(json, "  \"selected_ises\": %zu,\n",
               portfolio_result.selection.selected.size());
  std::fprintf(json, "  \"selected_types\": %d,\n",
               portfolio_result.num_ise_types());
  std::fprintf(json, "  \"total_area\": %.3f\n",
               portfolio_result.total_area());
  std::fprintf(json, "}\n");
  std::fclose(json);
  std::printf("wrote BENCH_portfolio.json\n");

  if (!identity_ok) return 1;
  if (!dedup_ok) {
    std::fprintf(stderr, "DEDUP GATE FAILED: %.1f%% < %.0f%% floor\n",
                 100.0 * dedup_hit_rate, 100.0 * dedup_floor);
    return 1;
  }
  if (!default_pool_ok) {
    std::fprintf(stderr,
                 "THREAD-BOUND GATE FAILED: %llu default-pool tasks at "
                 "jobs=%d\n",
                 static_cast<unsigned long long>(default_pool_tasks),
                 base.jobs);
    return 1;
  }
  if (scaling_valid && headline < floor) {
    std::fprintf(stderr, "SPEEDUP GATE FAILED: %.2fx < %.2fx floor\n",
                 headline, floor);
    return 1;
  }
  return 0;
}
