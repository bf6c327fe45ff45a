// paper_sweep: the paper's Fig 5.2 grid — 7 kernels × {O0, O3} × the six
// machines of §5.1, MI, best of 5 — one run_design_flow at a time.
#include <cstdio>
#include <exception>

#include "flow/design_flow.hpp"
#include "layers.hpp"
#include "runtime/eval_cache.hpp"
#include "server/protocol.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using namespace isex;

/// Seconds one pass of the grid takes on the sizing host (4 cores, pool
/// width 3); only sizes the plan.
constexpr double kPassSeconds = 4.3;
/// Combined result digest of one pass at kDefaultSeed.
constexpr std::uint64_t kPinnedPassDigest = 0xda5fbbe290a31effULL;

struct Sweep {
  std::vector<SuiteProgram> programs;
  std::vector<sched::MachineConfig> machines;
  hw::HwLibrary library = hw::HwLibrary::paper_default();
};

Sweep setup() {
  Sweep s;
  s.programs = load_suite(/*o0=*/true, /*o3=*/true, /*extended=*/false);
  s.machines = paper_machines();
  return s;
}

struct Pass {
  double seconds = 0.0;
  std::vector<std::uint64_t> digests;  ///< per flow
  std::vector<double> flow_seconds;
  double reduction_pct_sum = 0.0;
  runtime::CacheStats eval;
};

/// One pass over the grid.  With `log` set, each flow runs traced.
Pass run_pass(const Sweep& sweep, std::uint64_t seed, SpanLog* log,
              CoreCounts* counts, std::vector<const dfg::Graph*>* probe_blocks,
              std::vector<core::ExplorationResult>* probe_explorations) {
  Pass pass;
  const Clock::time_point start = Clock::now();
  std::uint64_t job = 0;
  for (const SuiteProgram& prog : sweep.programs) {
    for (std::size_t m = 0; m < sweep.machines.size(); ++m, ++job) {
      // A fresh eval cache per flow keeps every pass identical work.
      runtime::EvalCache cache;
      flow::FlowConfig config;
      config.machine = sweep.machines[m];
      config.algorithm = flow::Algorithm::kMultiIssue;
      config.repeats = 5;
      config.seed = seed;
      config.params.eval_cache = &cache;
      std::uint64_t digest = 0;
      const Clock::time_point flow_start = Clock::now();
      try {
        flow::FlowResult result;
        if (log != nullptr) {
          std::vector<core::ExplorationResult> explorations;
          result = traced_design_flow(prog.program, sweep.library, config,
                                      *log, job, *counts, &explorations);
          if (m == 0 && probe_blocks != nullptr) {
            for (const std::size_t b : result.hot_blocks)
              probe_blocks->push_back(&prog.program.blocks[b].graph);
            for (core::ExplorationResult& e : explorations)
              probe_explorations->push_back(std::move(e));
          }
        } else {
          result = flow::run_design_flow(prog.program, sweep.library, config);
        }
        digest = server::flow_result_digest(result);
        pass.reduction_pct_sum += result.reduction() * 100.0;
      } catch (const std::exception& e) {
        std::fprintf(stderr, "perfbench: %s: %s\n", prog.label.c_str(),
                     e.what());
      }
      pass.flow_seconds.push_back(seconds_since(flow_start));
      pass.digests.push_back(digest);
      const runtime::CacheStats stats = cache.stats();
      pass.eval.hits += stats.hits;
      pass.eval.misses += stats.misses;
    }
  }
  pass.seconds = seconds_since(start);
  return pass;
}

std::uint64_t pass_digest(const Pass& pass) {
  std::uint64_t d = 0;
  for (const std::uint64_t f : pass.digests) d = mix_digest(d, f);
  return d;
}

/// Checks every flow of `pass` against the warm-up reference.
void account(const Pass& pass, const Pass& reference, Report& report) {
  for (std::size_t f = 0; f < pass.digests.size(); ++f) {
    if (pass.digests[f] != 0 && pass.digests[f] == reference.digests[f])
      report.job_ok();
    else
      report.job_failed("paper_sweep flow " + std::to_string(f) + " digest " +
                        hex64(pass.digests[f]) + " != " +
                        hex64(reference.digests[f]));
  }
}

/// Flows per second of a pass made of each flow's median time.  Flows are
/// 5-83 ms, so a slow spell on a shared host lands in a few samples of some
/// flows, which the per-flow medians drop.
double jobs_per_s(const std::vector<Pass>& passes) {
  double seconds = 0.0;
  const std::size_t flows = passes.front().flow_seconds.size();
  for (std::size_t f = 0; f < flows; ++f) {
    std::vector<double> times;
    for (const Pass& p : passes) times.push_back(p.flow_seconds[f]);
    seconds += median(times);
  }
  return static_cast<double>(flows) / seconds;
}

}  // namespace

void run_paper_sweep(const Options& opts, Report& report) {
  apply_thread_budget(/*server_workers=*/0);
  std::vector<double> setup_s;
  const Sweep sweep = timed_setups(setup_s, setup);

  const Pass reference = run_pass(sweep, opts.seed, nullptr, nullptr, nullptr,
                                  nullptr);
  const double flows = static_cast<double>(reference.digests.size());
  const double reduction_pct = reference.reduction_pct_sum / flows;
  std::fprintf(stderr, "perfbench: paper_sweep warm-up %.3f s, digest %s, "
               "reduction %.6f%%\n", reference.seconds,
               hex64(pass_digest(reference)).c_str(), reduction_pct);
  if (opts.seed == kDefaultSeed)
    report.check(pass_digest(reference) == kPinnedPassDigest,
                 "paper_sweep pass digest differs from the pinned value");

  const std::size_t planned = plan_units(opts.seconds, kPassSeconds, 2);
  if (!opts.trace) {
    std::vector<Pass> passes;
    for (std::size_t p = 0; p < planned; ++p) {
      passes.push_back(run_pass(sweep, opts.seed, nullptr, nullptr, nullptr,
                                nullptr));
      account(passes.back(), reference, report);
      timed_setups(setup_s, setup);
    }
    report.metric("setup_s", median(setup_s), "s");
    report.metric("jobs_per_s", jobs_per_s(passes), "1/s");
    report.metric("reduction_pct", reduction_pct, "%");
    report.metric("peak_rss_mb", peak_rss_mb(), "MB");
    return;
  }

  // Traced run: half the plan untraced, then the same passes traced.
  add_zero_layer_metrics(report);
  const std::size_t half = std::max<std::size_t>(1, planned / 2);
  std::vector<Pass> untraced;
  for (std::size_t p = 0; p < half; ++p) {
    untraced.push_back(run_pass(sweep, opts.seed, nullptr, nullptr, nullptr,
                                nullptr));
    account(untraced.back(), reference, report);
  }

  runtime::ThreadPool& pool = runtime::ThreadPool::default_pool();
  pool.set_profiling(true);
  const PoolWindow window(pool);
  SpanLog log;
  CoreCounts counts;
  std::vector<const dfg::Graph*> probe_blocks;
  std::vector<core::ExplorationResult> probe_explorations;
  std::vector<Pass> traced;
  runtime::CacheStats eval;
  CoreCounts first;
  for (std::size_t p = 0; p < half; ++p) {
    CoreCounts pass_counts;
    traced.push_back(run_pass(sweep, opts.seed, &log, &pass_counts,
                              p == 0 ? &probe_blocks : nullptr,
                              &probe_explorations));
    account(traced.back(), reference, report);
    if (p == 0) first = pass_counts;
    report.check(pass_counts.rounds == first.rounds &&
                     pass_counts.iterations == first.iterations,
                 "paper_sweep exploration counts differ between passes");
    counts.add(pass_counts);
    eval.hits += traced.back().eval.hits;
    eval.misses += traced.back().eval.misses;
  }
  const double traced_passes = static_cast<double>(half);
  report.metric("runtime.pool.busy_frac", window.busy_frac(), "ratio");
  report.metric("runtime.pool.tasks",
                static_cast<double>(window.tasks()) / traced_passes, "count");
  report.metric("runtime.pool.steals",
                static_cast<double>(window.steals()) / traced_passes, "count");
  pool.set_profiling(false);

  const std::vector<Span> spans = log.spans();
  log.write(opts.scratch_dir + "/spans-paper_sweep.jsonl");
  add_flow_layer_metrics(report, spans, counts, traced_passes * flows);
  add_trace_overhead(report, jobs_per_s(untraced), jobs_per_s(traced));
  report.metric("runtime.eval_cache.hit_rate", eval.hit_rate(), "ratio");
  report.metric("runtime.eval_cache.lookups",
                static_cast<double>(eval.hits + eval.misses) / traced_passes,
                "count");

  std::vector<std::string_view> sources;
  for (const SuiteProgram& prog : sweep.programs)
    sources.insert(sources.end(), prog.sources.begin(), prog.sources.end());
  report.metric("isa.parse_us", probe_parse_us(sources), "us");
  const WalkProbe walk =
      probe_walk(probe_blocks, sweep.machines.front(), opts.seed);
  report.metric("core.walk_ns_per_node", walk.ns_per_node, "ns");
  report.metric("core.walk_allocs", walk.allocs_per_walk, "count");
  report.metric("sched.cycles_ns_per_node",
                probe_schedule_ns_per_node(probe_blocks, sweep.machines.front()),
                "ns");
  report.metric("dfg.candidate_eval_ns",
                probe_candidate_eval_ns(
                    committed_sets(probe_blocks, probe_explorations),
                    sweep.machines.front()),
                "ns");
}

}  // namespace perfbench
