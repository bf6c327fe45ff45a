// portfolio_mem: one run_portfolio_flow per job over a multi-program
// commission with a two-level cache model — the 7 paper and 3 extended O3
// programs, two rows repeating a program under another name and weight (so
// job-level dedup fires), and seeded random blocks 2-3x larger than the
// paper's.
#include <cstdio>
#include <exception>

#include "core/mi_explorer.hpp"
#include "flow/portfolio.hpp"
#include "layers.hpp"
#include "mem/cache_model.hpp"
#include "server/protocol.hpp"
#include "util/rng.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using namespace isex;

/// Seconds one job takes on the sizing host (4 cores, pool width 3).
constexpr double kJobSeconds = 3.5;
/// Result digest of the manifest at kDefaultSeed.
constexpr std::uint64_t kPinnedDigest = 0xb79bc92e1cff2d2aULL;
/// Node counts of the manifest's random blocks, one program each.  Every
/// job runs the same manifest, so the rate can be the median job time,
/// which a slow spell on a shared host cannot move; and three big blocks in
/// one batch keep a single block's tail from setting the job time.
constexpr std::uint32_t kRandomNodes[] = {64, 80, 96};
/// The random blocks' structure and the search seed are fixed, and --seed
/// draws the rows' weights, which only steer the shared selection.
/// Exploring a 64-96-node block costs up to twice as much under one edge
/// set or search seed as under another, so with either drawn from --seed
/// the rate measured the seed (a quarter apart between seeds), not the code.
constexpr std::uint64_t kRandomBlockSeed = 7;
constexpr std::uint64_t kSearchSeed = 1;
constexpr const char* kCacheSpec =
    "l1_size=2k,l1_ways=2,l1_line=32,l1_hit=1,"
    "l2_size=32k,l2_ways=8,l2_line=64,l2_hit=8,mem=40";

struct Commission {
  std::vector<SuiteProgram> suite;  ///< 7 paper + 3 extended, O3
  /// Row weights: the suite, then the two repeat rows.
  std::vector<double> weights;
  flow::PortfolioConfig config;
  hw::HwLibrary library = hw::HwLibrary::paper_default();
};

Commission setup(std::uint64_t seed) {
  Commission c;
  c.suite = load_suite(/*o0=*/false, /*o3=*/true, /*extended=*/true);
  Expected<mem::CacheConfig> cache = mem::parse_cache_config(kCacheSpec);
  if (!cache) throw std::runtime_error(cache.error().to_string());
  c.config.base.machine = sched::MachineConfig::make(2, {6, 3});
  c.config.base.algorithm = flow::Algorithm::kMultiIssue;
  // Best of 3, not the paper's 5: jobs half as long give the median job
  // time twice the samples in a run.
  c.config.base.repeats = 3;
  c.config.base.seed = kSearchSeed;
  c.config.base.cache = *cache;
  Rng rng(seed);
  for (std::size_t i = 0; i < c.suite.size() + 2; ++i)
    c.weights.push_back(0.5 + 0.25 * rng.next_below(11));  // 0.5 .. 3.0
  return c;
}

/// The suite, the two repeat rows, and the random blocks.
std::vector<flow::PortfolioEntry> manifest(const Commission& c) {
  std::vector<flow::PortfolioEntry> entries;
  for (std::size_t i = 0; i < c.suite.size(); ++i)
    entries.push_back(flow::PortfolioEntry{c.suite[i].program, c.weights[i]});
  // Repeat rows: same blocks, other name and weight.
  entries.push_back(flow::PortfolioEntry{c.suite.front().program,
                                         c.weights[c.suite.size()]});
  entries.back().program.name += "-again";
  entries.push_back(flow::PortfolioEntry{c.suite.back().program,
                                         c.weights[c.suite.size() + 1]});
  entries.back().program.name += "-again";

  Rng rng(kRandomBlockSeed);
  for (const std::uint32_t nodes : kRandomNodes) {
    flow::PortfolioEntry entry;
    entry.program.name = "random" + std::to_string(nodes);
    entry.program.blocks.push_back(flow::ProfiledBlock{
        "dag", random_dag(nodes, rng), 1});
    entries.push_back(std::move(entry));
  }
  return entries;
}

double reduction_pct(const flow::PortfolioResult& result) {
  std::uint64_t base = 0;
  std::uint64_t saved = 0;
  for (const flow::PortfolioProgramResult& p : result.programs) {
    base += p.base_time();
    saved += p.cycles_saved();
  }
  return base > 0 ? 100.0 * static_cast<double>(saved) /
                        static_cast<double>(base)
                  : 0.0;
}

struct Job {
  double seconds = 0.0;
  std::uint64_t digest = 0;
  double reduction_pct = 0.0;
  flow::PortfolioResult result;
};

Job run_job(const Commission& c, std::uint64_t job, SpanLog* log) {
  const std::vector<flow::PortfolioEntry> entries = manifest(c);
  Job out;
  const Clock::time_point t0 = Clock::now();
  if (log != nullptr) {
    const ScopedSpan span(*log, "flow.portfolio.run", 0, job);
    out.result = flow::run_portfolio_flow(entries, c.library, c.config);
  } else {
    out.result = flow::run_portfolio_flow(entries, c.library, c.config);
  }
  out.seconds = seconds_since(t0);
  out.digest = server::portfolio_result_digest(out.result);
  out.reduction_pct = reduction_pct(out.result);
  return out;
}

/// Jobs whose row repeats an earlier program share every (index, block)
/// job with it; the two repeat rows must dedup exactly that many.
std::uint64_t expected_deduped(const flow::PortfolioResult& result,
                               std::size_t suite_size, int repeats) {
  const std::size_t first = suite_size;  // index of the first repeat row
  return (result.programs[first].hot_blocks.size() +
          result.programs[first + 1].hot_blocks.size()) *
         static_cast<std::uint64_t>(repeats);
}

void account(const Job& job, const Commission& c, std::uint64_t reference,
             Report& report) {
  const std::uint64_t dedup = expected_deduped(job.result, c.suite.size(),
                                               c.config.base.repeats);
  if (reference != 0 && job.digest != reference)
    report.job_failed("portfolio digest " + hex64(job.digest) + " != " +
                      hex64(reference));
  else if (job.result.deduped_jobs != dedup)
    report.job_failed("portfolio deduped " +
                      std::to_string(job.result.deduped_jobs) + " jobs, " +
                      "expected " + std::to_string(dedup));
  else if (!job.result.cache_modeled || job.result.cache_stats.accesses == 0)
    report.job_failed("portfolio ran without the cache model");
  else
    report.job_ok();
}

/// Jobs per second of the median job time.
double jobs_per_s(const std::vector<Job>& jobs) {
  std::vector<double> times;
  for (const Job& j : jobs) times.push_back(j.seconds);
  const double seconds = median(times);
  return seconds > 0.0 ? 1.0 / seconds : 0.0;
}

double mean_reduction(const std::vector<Job>& jobs) {
  std::vector<double> r;
  for (const Job& j : jobs) r.push_back(j.reduction_pct);
  return mean(r);
}

/// Per-layer probes on the manifest: cache annotation, shared selection, one
/// exploration per hot block, and the walk / scheduler / candidate probes.
void probe_layers(const Commission& c, const Job& job0, Report& report) {
  std::vector<flow::PortfolioEntry> entries = manifest(c);
  const Clock::time_point t_annotate = Clock::now();
  for (flow::PortfolioEntry& e : entries)
    flow::annotate_program(e.program, *c.config.base.cache);
  report.metric("mem.annotate_ms", seconds_since(t_annotate) * 1e3, "ms");

  std::vector<flow::PortfolioCatalogEntry> catalog;
  std::vector<const dfg::Graph*> blocks;
  std::vector<core::ExplorationResult> explorations;
  for (std::size_t p = 0; p < entries.size(); ++p) {
    const flow::PortfolioProgramResult& prog = job0.result.programs[p];
    for (flow::IseCatalogEntry& entry : flow::build_catalog(
             entries[p].program, prog.hot_blocks, prog.explorations)) {
      flow::PortfolioCatalogEntry merged;
      merged.program_index = p;
      merged.weight = prog.weight;
      merged.weighted_benefit = static_cast<double>(entry.benefit) * prog.weight;
      merged.entry = std::move(entry);
      catalog.push_back(std::move(merged));
    }
    for (std::size_t b = 0; b < prog.hot_blocks.size(); ++b) {
      blocks.push_back(&entries[p].program.blocks[prog.hot_blocks[b]].graph);
      explorations.push_back(prog.explorations[b]);
    }
  }
  constexpr int kSelectReps = 5;
  std::vector<double> select_ms;
  flow::PortfolioSelection selection;
  for (int r = 0; r < kSelectReps; ++r) {
    const Clock::time_point t0 = Clock::now();
    selection =
        flow::select_portfolio_ises(catalog, c.config.base.constraints);
    select_ms.push_back(seconds_since(t0) * 1e3);
  }
  report.metric("flow.portfolio.select_ms", median(select_ms), "ms");
  report.check(selection.selected.size() ==
                       job0.result.selection.selected.size() &&
                   selection.num_types == job0.result.selection.num_types &&
                   selection.total_area == job0.result.selection.total_area,
               "re-run portfolio selection differs from the flow's");

  // One exploration per hot block, as the portfolio's pool jobs run them.
  SpanLog log;
  CoreCounts counts;
  isa::IsaFormat format;
  format.reg_file = c.config.base.machine.reg_file;
  format.max_ises = c.config.base.constraints.max_ises;
  const core::MultiIssueExplorer explorer(c.config.base.machine, format,
                                          c.library, c.config.base.params);
  for (const dfg::Graph* block : blocks) {
    Rng rng(kSearchSeed);
    core::ExplorationResult r;
    {
      const ScopedSpan span(log, "core.explore", 0, 0);
      r = explorer.explore(*block, rng);
    }
    counts.rounds += static_cast<std::uint64_t>(r.rounds);
    counts.iterations += static_cast<std::uint64_t>(r.total_iterations);
  }
  add_flow_layer_metrics(report, log.spans(), counts, 1.0);

  const WalkProbe walk = probe_walk(blocks, c.config.base.machine, kSearchSeed);
  report.metric("core.walk_ns_per_node", walk.ns_per_node, "ns");
  report.metric("core.walk_allocs", walk.allocs_per_walk, "count");
  report.metric("sched.cycles_ns_per_node",
                probe_schedule_ns_per_node(blocks, c.config.base.machine),
                "ns");
  report.metric("dfg.candidate_eval_ns",
                probe_candidate_eval_ns(committed_sets(blocks, explorations),
                                        c.config.base.machine),
                "ns");
  std::vector<std::string_view> sources;
  for (const SuiteProgram& prog : c.suite)
    sources.insert(sources.end(), prog.sources.begin(), prog.sources.end());
  report.metric("isa.parse_us", probe_parse_us(sources), "us");
}

}  // namespace

void run_portfolio_mem(const Options& opts, Report& report) {
  apply_thread_budget(/*server_workers=*/0);
  std::vector<double> setup_s;
  const auto make = [&] { return setup(opts.seed); };
  const Commission c = timed_setups(setup_s, make);

  const Job warm = run_job(c, 0, nullptr);
  std::fprintf(stderr,
               "perfbench: portfolio_mem warm-up %.3f s, %llu pool jobs "
               "(%llu deduped), digest %s, reduction %.6f%%\n",
               warm.seconds,
               static_cast<unsigned long long>(warm.result.total_jobs),
               static_cast<unsigned long long>(warm.result.deduped_jobs),
               hex64(warm.digest).c_str(), warm.reduction_pct);
  if (opts.seed == kDefaultSeed)
    report.check(warm.digest == kPinnedDigest,
                 "portfolio_mem digest differs from the pinned value");

  // Every job runs the warm-up's manifest and must reproduce its digest.
  const std::size_t planned = plan_units(opts.seconds, kJobSeconds, 3);
  const auto run_jobs = [&](std::size_t count, SpanLog* log) {
    std::vector<Job> jobs;
    for (std::size_t j = 0; j < count; ++j) {
      try {
        jobs.push_back(run_job(c, j, log));
      } catch (const std::exception& e) {
        report.job_failed(std::string("portfolio job: ") + e.what());
        continue;
      }
      std::fprintf(stderr, "perfbench: portfolio_mem job %zu %.3f s\n", j,
                   jobs.back().seconds);
      account(jobs.back(), c, warm.digest, report);
      timed_setups(setup_s, make);
    }
    return jobs;
  };

  if (!opts.trace) {
    const std::vector<Job> jobs = run_jobs(planned, nullptr);
    report.metric("setup_s", median(setup_s), "s");
    report.metric("jobs_per_s", jobs_per_s(jobs), "1/s");
    report.metric("reduction_pct", mean_reduction(jobs), "%");
    report.metric("peak_rss_mb", peak_rss_mb(), "MB");
    return;
  }

  // Traced run: half the plan untraced, then the same jobs traced; the
  // traced digests must reproduce the untraced ones.
  add_zero_layer_metrics(report);
  const std::size_t half = std::max<std::size_t>(1, planned / 2);
  const std::vector<Job> untraced = run_jobs(half, nullptr);
  runtime::ThreadPool& pool = runtime::ThreadPool::default_pool();
  pool.set_profiling(true);
  const PoolWindow window(pool);
  SpanLog log;
  const std::vector<Job> traced = run_jobs(half, &log);
  const double n = static_cast<double>(traced.size());
  report.metric("runtime.pool.busy_frac", window.busy_frac(), "ratio");
  report.metric("runtime.pool.tasks", static_cast<double>(window.tasks()) / n,
                "count");
  report.metric("runtime.pool.steals",
                static_cast<double>(window.steals()) / n, "count");
  pool.set_profiling(false);
  log.write(opts.scratch_dir + "/spans-portfolio_mem.jsonl");
  add_trace_overhead(report, jobs_per_s(untraced), jobs_per_s(traced));

  runtime::CacheStats eval;
  double total_jobs = 0.0;
  double deduped = 0.0;
  double accesses = 0.0;
  double l1_hits = 0.0;
  for (const Job& j : traced) {
    eval.hits += j.result.eval_cache_stats.hits;
    eval.misses += j.result.eval_cache_stats.misses;
    total_jobs += static_cast<double>(j.result.total_jobs);
    deduped += static_cast<double>(j.result.deduped_jobs);
    accesses += static_cast<double>(j.result.cache_stats.accesses);
    l1_hits += static_cast<double>(j.result.cache_stats.l1_hits);
  }
  report.metric("runtime.eval_cache.hit_rate", eval.hit_rate(), "ratio");
  report.metric("runtime.eval_cache.lookups",
                static_cast<double>(eval.hits + eval.misses) / n, "count");
  report.metric("flow.portfolio.jobs", total_jobs / n, "count");
  report.metric("flow.portfolio.deduped_jobs", deduped / n, "count");
  report.metric("mem.accesses", accesses / n, "count");
  report.metric("mem.l1_hit_rate", accesses > 0 ? l1_hits / accesses : 0.0,
                "ratio");
  probe_layers(c, traced.front(), report);
}

}  // namespace perfbench
