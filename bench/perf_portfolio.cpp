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
//     manifest must reach 20%: candidate evaluations repeating across
//     repeats, rounds, and programs are found, not recomputed.
//   * speedup — the portfolio must beat back-to-back flows by 1.3x, both
//     sides on the process pool sized to 8 threads.  Enforced only on hosts
//     with gate::kScalingCores cores or more; on smaller hosts the gate is
//     recorded in the JSON but does not fail the run.
//
// `--quick` drops to one timing repeat and 2 exploration repeats for CI
// smoke runs; the identity and dedup checks run either way.
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "bench_suite/kernels.hpp"
#include "flow/portfolio.hpp"
#include "gate_report.hpp"
#include "golden_hash.hpp"
#include "runtime/thread_pool.hpp"

namespace {

using namespace isex;

/// The batch over back-to-back flows, and the batch's eval-cache hit rate.
constexpr double kSpeedupFloor = 1.3;
constexpr double kDedupFloor = 0.20;

/// Digest of one program's hot blocks and explorations: any divergence
/// between the portfolio's per-program explorations and an independent
/// flow's flips it.
std::uint64_t hash_explorations(
    const std::vector<std::size_t>& hot_blocks,
    const std::vector<core::ExplorationResult>& explorations) {
  testing::Fnv1a h;
  h.mix_int(static_cast<long long>(hot_blocks.size()));
  for (const std::size_t b : hot_blocks) h.mix(b);
  for (const core::ExplorationResult& r : explorations)
    h.mix(testing::hash_exploration(r));
  return h.value();
}

/// Width of the process pool both sides explore on.
constexpr int kJobs = 8;

flow::FlowConfig base_config(bool quick) {
  flow::FlowConfig config;
  config.machine = sched::MachineConfig::make(2, {6, 3});
  config.repeats = quick ? 2 : 5;
  config.seed = 17;
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

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  for (int i = 1; i < argc; ++i)
    if (std::strcmp(argv[i], "--quick") == 0) quick = true;

  const unsigned hardware = std::thread::hardware_concurrency();
  const int repeats = gate::timing_repeats(quick ? 1 : 3);
  const bool scaling_valid = gate::scaling_valid();
  std::printf("perf_portfolio: 7-benchmark O3 manifest, batched portfolio vs "
              "back-to-back independent flows%s\n", quick ? " [quick]" : "");
  std::printf("hardware_concurrency: %u, timing_repeats: %d, "
              "speedup floor: %.2fx (%s)\n\n",
              hardware, repeats, kSpeedupFloor,
              scaling_valid ? "enforced" : "not enforced, < 4 cores");

  const hw::HwLibrary library = hw::HwLibrary::paper_default();
  const std::vector<flow::PortfolioEntry> entries = make_manifest();
  const flow::FlowConfig base = base_config(quick);
  runtime::ThreadPool::set_default_jobs(kJobs);

  // --- Portfolio runs (cold private cache each time; first run also
  // supplies the identity/dedup artifacts).
  flow::PortfolioConfig portfolio_config;
  portfolio_config.base = base;
  flow::PortfolioResult portfolio_result;
  gate::Timing portfolio_timing;
  for (int r = 0; r < repeats; ++r) {
    const auto start = std::chrono::steady_clock::now();
    flow::PortfolioResult result =
        flow::run_portfolio_flow(entries, library, portfolio_config);
    portfolio_timing.seconds.push_back(gate::seconds_since(start));
    if (r == 0) portfolio_result = std::move(result);
  }

  // --- Reference: back-to-back one-row flows, each with its own cold
  // private cache (the N-separate-invocations world the portfolio replaces).
  std::vector<flow::FlowResult> reference;
  gate::Timing independent_timing;
  for (int r = 0; r < repeats; ++r) {
    std::vector<flow::FlowResult> results;
    const auto start = std::chrono::steady_clock::now();
    for (const flow::PortfolioEntry& entry : entries)
      results.push_back(flow::run_design_flow(entry.program, library, base));
    independent_timing.seconds.push_back(gate::seconds_since(start));
    if (r == 0) reference = std::move(results);
  }

  gate::Report report("portfolio");
  report.params()
      .string("sweep", "7bench_O3_MI_6_3_2IS_weighted")
      .integer("hardware_concurrency", hardware)
      .boolean("quick", quick)
      .integer("timing_repeats", repeats)
      .integer("explore_repeats", base.repeats)
      .integer("jobs", kJobs)
      .integer("total_jobs", portfolio_result.total_jobs)
      .integer("deduped_jobs", portfolio_result.deduped_jobs)
      .integer("isomorphic_hot_blocks", portfolio_result.isomorphic_hot_blocks)
      .integer("isomorphic_candidates", portfolio_result.isomorphic_candidates)
      .integer("selected_ises", portfolio_result.selection.selected.size())
      .integer("selected_types", portfolio_result.num_ise_types())
      .fixed("total_area", portfolio_result.total_area(), 3)
      .timing("portfolio_seconds", portfolio_timing)
      .timing("independent_seconds", independent_timing);

  // Gate 1: per-program bit identity against the independent flows.
  bool identity_ok = true;
  for (std::size_t p = 0; p < entries.size(); ++p) {
    const flow::PortfolioProgramResult& prog = portfolio_result.programs[p];
    const std::uint64_t batched =
        hash_explorations(prog.hot_blocks, prog.explorations);
    const std::uint64_t alone =
        hash_explorations(reference[p].hot_blocks, reference[p].explorations);
    identity_ok &= report.identity(prog.name + ": batch == one-row flow",
                                   batched == alone);
    report.add_row()
        .string("name", prog.name)
        .fixed("weight", prog.weight, 2)
        .integer("base_time", prog.base_time())
        .integer("final_time", prog.final_time())
        .integer("num_ises", prog.selection.selected.size())
        .fixed("weighted_benefit", prog.weighted_benefit(), 1)
        .digest("digest", batched)
        .digest("independent_digest", alone);
  }

  // Gate 2: portfolio-wide evaluation dedup.
  const double dedup_hit_rate = portfolio_result.eval_cache_stats.hit_rate();
  report.floor("portfolio eval-cache hit rate", dedup_hit_rate, kDedupFloor);

  // Gate 3: wall-clock vs back-to-back (enforced on >= 4 cores only).
  const double headline = independent_timing.min() / portfolio_timing.min();
  report.floor("portfolio speedup vs back-to-back flows", headline,
               kSpeedupFloor, scaling_valid);

  std::printf("portfolio    min %7.3f s  median %7.3f s\n",
              portfolio_timing.min(), portfolio_timing.median());
  std::printf("independent  min %7.3f s  median %7.3f s\n",
              independent_timing.min(), independent_timing.median());
  std::printf("\nidentity (portfolio == independent per program): %s\n",
              identity_ok ? "yes" : "NO — BUG");
  std::printf("dedup hit-rate: %.1f%% (%llu hits / %llu misses; floor %.0f%%)"
              "\n",
              100.0 * dedup_hit_rate,
              static_cast<unsigned long long>(
                  portfolio_result.eval_cache_stats.hits),
              static_cast<unsigned long long>(
                  portfolio_result.eval_cache_stats.misses),
              100.0 * kDedupFloor);
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
              headline, kSpeedupFloor,
              scaling_valid ? "enforced" : "informational");
  return report.finish();
}
