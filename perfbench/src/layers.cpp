#include "layers.hpp"

#include <algorithm>
#include <cstdlib>
#include <iterator>
#include <new>

#include "core/ant_walk.hpp"
#include "core/mi_explorer.hpp"
#include "core/pheromone.hpp"
#include "dfg/collapsed_view.hpp"
#include "flow/profiling.hpp"
#include "flow/replacement.hpp"
#include "flow/selection.hpp"
#include "flow/validate.hpp"
#include "hwlib/gplus.hpp"
#include "isa/tac_parser.hpp"
#include "runtime/job_graph.hpp"
#include "sched/list_scheduler.hpp"
#include "sched/priority.hpp"

// Counting allocation hook: every global operator new bumps its thread's
// counter, so core.walk_allocs (read on the probing thread around a
// single-threaded loop) is an exact count.  A thread-local add shares no
// cache line between threads, so the untraced runs pay no contention.
namespace {
thread_local std::uint64_t t_allocs = 0;
}  // namespace

void* operator new(std::size_t size) {
  ++t_allocs;
  if (void* p = std::malloc(size != 0 ? size : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void* operator new(std::size_t size, std::align_val_t align) {
  ++t_allocs;
  void* p = nullptr;
  if (posix_memalign(&p, static_cast<std::size_t>(align),
                     size != 0 ? size : 1) == 0)
    return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return ::operator new(size, align);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace perfbench {

using namespace isex;

flow::FlowResult traced_design_flow(
    const flow::ProfiledProgram& program, const hw::HwLibrary& library,
    const flow::FlowConfig& config, SpanLog& log, std::uint64_t job,
    CoreCounts& counts, std::vector<core::ExplorationResult>* explorations) {
  const ScopedSpan root(log, "flow.job", 0, job);
  {
    // The checks run_design_flow makes first, so the traced and untraced
    // runs do the same work.
    const ScopedSpan span(log, "flow.validate", root.id(), job);
    ValidationReport report = flow::validate(config);
    report.merge(flow::validate(program));
    if (!report.ok()) throw ValidationException(report.first_error());
  }
  flow::FlowResult result;

  flow::ProfiledProgram annotated;
  const flow::ProfiledProgram* active = &program;
  if (config.cache) {
    const ScopedSpan span(log, "flow.annotate", root.id(), job);
    annotated = program;
    result.cache_stats = flow::annotate_program(annotated, *config.cache);
    result.cache_modeled = true;
    active = &annotated;
  }
  const flow::ProfiledProgram& prog = *active;

  {
    const ScopedSpan span(log, "flow.profile", root.id(), job);
    const std::vector<flow::BlockCost> costs =
        flow::profile_blocks(prog, config.machine);
    result.hot_blocks = flow::select_hot_blocks(costs, config.hot_coverage,
                                                config.max_hot_blocks);
  }

  std::vector<core::ExplorationResult> best;
  {
    const ScopedSpan span(log, "flow.explore", root.id(), job);
    isa::IsaFormat format;
    format.reg_file = config.machine.reg_file;
    format.max_ises = config.constraints.max_ises;
    const core::MultiIssueExplorer explorer(config.machine, format, library,
                                            config.params);
    const auto per_block = static_cast<std::size_t>(config.repeats);
    Rng rng(config.seed);
    const std::uint64_t parent = span.id();
    std::vector<core::ExplorationResult> attempts =
        runtime::deterministic_fanout(
            runtime::ThreadPool::default_pool(), rng,
            result.hot_blocks.size() * per_block,
            [&](std::size_t i, Rng& child) {
              const ScopedSpan explore(log, "core.explore", parent, job);
              return explorer.explore(
                  prog.blocks[result.hot_blocks[i / per_block]].graph, child);
            },
            "flow.explore_hot_blocks");
    for (const core::ExplorationResult& a : attempts) {
      counts.rounds += static_cast<std::uint64_t>(a.rounds);
      counts.iterations += static_cast<std::uint64_t>(a.total_iterations);
    }
    for (std::size_t b = 0; b < result.hot_blocks.size(); ++b) {
      const auto begin =
          attempts.begin() + static_cast<std::ptrdiff_t>(b * per_block);
      best.push_back(core::MultiIssueExplorer::pick_best(
          {std::make_move_iterator(begin),
           std::make_move_iterator(begin +
                                   static_cast<std::ptrdiff_t>(per_block))}));
    }
  }

  {
    const ScopedSpan span(log, "flow.select", root.id(), job);
    const std::vector<flow::IseCatalogEntry> catalog =
        flow::build_catalog(prog, result.hot_blocks, best);
    result.selection = flow::select_ises(catalog, config.constraints);
  }
  {
    const ScopedSpan span(log, "flow.replace", root.id(), job);
    result.replacement = flow::apply_selection(
        prog, result.selection, config.machine, config.replacement);
  }
  if (explorations != nullptr) *explorations = std::move(best);
  return result;
}

double probe_parse_us(const std::vector<std::string_view>& sources) {
  std::vector<double> per_source;
  for (const std::string_view source : sources) {
    constexpr int kReps = 15;
    std::vector<double> us;
    for (int r = 0; r < kReps; ++r) {
      const Clock::time_point t0 = Clock::now();
      const Expected<isa::ParsedBlock> parsed = isa::parse_tac_checked(source);
      us.push_back(seconds_since(t0) * 1e6);
      if (!parsed) return 0.0;
    }
    per_source.push_back(median(us));
  }
  return median(per_source);
}

namespace {

std::vector<double> priority_scores(const dfg::Graph& g,
                                    const core::ExplorerParams& params) {
  std::vector<double> sp = sched::compute_priorities(g, params.sp_priority);
  double sp_max = 0.0;
  for (const double s : sp) sp_max = std::max(sp_max, s);
  if (sp_max > 0.0)
    for (double& s : sp) s = s / sp_max * params.merit_scale;
  return sp;
}

/// Repetitions so that each block contributes about this many node visits.
constexpr std::size_t kNodeVisits = 60000;

std::size_t reps_for(std::size_t nodes) {
  return std::max<std::size_t>(20, kNodeVisits / std::max<std::size_t>(1, nodes));
}

}  // namespace

WalkProbe probe_walk(const std::vector<const dfg::Graph*>& blocks,
                     const sched::MachineConfig& machine, std::uint64_t seed) {
  const hw::HwLibrary library = hw::HwLibrary::paper_default();
  const core::ExplorerParams params;
  double seconds = 0.0;
  std::uint64_t nodes = 0;
  std::uint64_t walks = 0;
  std::uint64_t allocs = 0;
  for (const dfg::Graph* graph : blocks) {
    const hw::GPlus gplus(*graph, library);
    const core::PheromoneState pheromone(gplus, params);
    const std::vector<double> sp = priority_scores(*graph, params);
    const core::AntWalk walker(gplus, machine, params);
    core::WalkScratch scratch;
    const std::size_t reps = reps_for(graph->num_nodes());
    {
      Rng warm(seed);
      for (std::size_t i = 0; i < reps; ++i)
        walker.run(pheromone, sp, warm, scratch);
    }
    Rng rng(seed);
    const std::uint64_t allocs0 = t_allocs;
    const Clock::time_point t0 = Clock::now();
    for (std::size_t i = 0; i < reps; ++i) walker.run(pheromone, sp, rng, scratch);
    seconds += seconds_since(t0);
    allocs += t_allocs - allocs0;
    nodes += reps * graph->num_nodes();
    walks += reps;
  }
  WalkProbe out;
  if (nodes > 0) out.ns_per_node = seconds * 1e9 / static_cast<double>(nodes);
  if (walks > 0)
    out.allocs_per_walk =
        static_cast<double>(allocs) / static_cast<double>(walks);
  return out;
}

double probe_schedule_ns_per_node(const std::vector<const dfg::Graph*>& blocks,
                                  const sched::MachineConfig& machine) {
  const sched::ListScheduler scheduler(machine);
  sched::SchedulerScratch scratch;
  double seconds = 0.0;
  std::uint64_t nodes = 0;
  for (const dfg::Graph* graph : blocks) {
    const std::size_t reps = reps_for(graph->num_nodes());
    (void)scheduler.cycles(*graph, scratch);
    const Clock::time_point t0 = Clock::now();
    int sink = 0;
    for (std::size_t i = 0; i < reps; ++i) sink += scheduler.cycles(*graph, scratch);
    seconds += seconds_since(t0);
    nodes += reps * graph->num_nodes();
    if (sink < 0) return 0.0;  // keeps the loop observable
  }
  return nodes > 0 ? seconds * 1e9 / static_cast<double>(nodes) : 0.0;
}

std::vector<CommittedSet> committed_sets(
    const std::vector<const dfg::Graph*>& blocks,
    const std::vector<core::ExplorationResult>& explorations) {
  std::vector<CommittedSet> out;
  for (std::size_t b = 0; b < blocks.size() && b < explorations.size(); ++b)
    for (const core::ExploredIse& ise : explorations[b].ises)
      out.push_back(CommittedSet{blocks[b], &ise});
  return out;
}

double probe_candidate_eval_ns(const std::vector<CommittedSet>& sets,
                               const sched::MachineConfig& machine) {
  if (sets.empty()) return 0.0;
  const sched::ListScheduler scheduler(machine);
  dfg::CollapsedView view;
  sched::SchedulerScratch scratch;
  const auto info_of = [](const core::ExploredIse& ise) {
    dfg::IseInfo info;
    info.latency_cycles = ise.eval.latency_cycles;
    info.area = ise.eval.area;
    info.num_inputs = ise.in_count;
    info.num_outputs = ise.out_count;
    return info;
  };
  std::vector<dfg::IseInfo> infos;
  for (const CommittedSet& s : sets) infos.push_back(info_of(*s.ise));
  for (std::size_t i = 0; i < sets.size(); ++i) {
    view.assign(*sets[i].block, sets[i].ise->original_nodes, infos[i]);
    (void)scheduler.cycles(view, scratch);
  }
  const std::size_t passes = std::max<std::size_t>(3, 20000 / sets.size());
  int sink = 0;
  const Clock::time_point t0 = Clock::now();
  for (std::size_t p = 0; p < passes; ++p)
    for (std::size_t i = 0; i < sets.size(); ++i) {
      view.assign(*sets[i].block, sets[i].ise->original_nodes, infos[i]);
      sink += scheduler.cycles(view, scratch);
    }
  const double seconds = seconds_since(t0);
  if (sink < 0) return 0.0;
  return seconds * 1e9 / static_cast<double>(passes * sets.size());
}

PoolWindow::PoolWindow(const runtime::ThreadPool& pool)
    : pool_(pool), stats0_(pool.stats()), occ0_(pool.occupancy()) {}

double PoolWindow::busy_frac() const {
  const std::vector<runtime::WorkerOccupancy> occ = pool_.occupancy();
  double busy = 0.0;
  double total = 0.0;
  // The last slot is the synthetic one for helping callers; it has no idle
  // time, so only the workers proper define occupancy.
  for (std::size_t w = 0; w + 1 < occ.size() && w < occ0_.size(); ++w) {
    const double b = occ[w].busy_seconds - occ0_[w].busy_seconds;
    busy += b;
    total += b + occ[w].idle_seconds - occ0_[w].idle_seconds;
  }
  return total > 0.0 ? busy / total : 0.0;
}

std::uint64_t PoolWindow::tasks() const {
  return pool_.stats().jobs_run - stats0_.jobs_run;
}

std::uint64_t PoolWindow::steals() const {
  return pool_.stats().steals - stats0_.steals;
}

void add_flow_layer_metrics(Report& report, const std::vector<Span>& spans,
                            const CoreCounts& counts, double units) {
  const std::vector<double> explore_ms = durations_ms(spans, "core.explore");
  report.metric("core.explore_ms_p50", median(explore_ms), "ms");
  report.metric("core.rounds", static_cast<double>(counts.rounds) / units,
                "count");
  report.metric("core.iterations",
                static_cast<double>(counts.iterations) / units, "count");
  double explore_total_ms = 0.0;
  for (const double ms : explore_ms) explore_total_ms += ms;
  report.metric("core.us_per_iteration",
                counts.iterations > 0
                    ? explore_total_ms * 1e3 /
                          static_cast<double>(counts.iterations)
                    : 0.0,
                "us");

  const std::map<std::string, SpanTotals> totals = totals_by_name(spans);
  const auto per_job_ms = [&](const char* name, bool self) {
    const auto it = totals.find(name);
    if (it == totals.end()) return 0.0;
    const std::uint64_t ns = self ? it->second.self_ns : it->second.total_ns;
    return static_cast<double>(ns) * 1e-6 / units;
  };
  report.metric("flow.profile_ms", per_job_ms("flow.profile", false), "ms");
  report.metric("flow.explore_ms", per_job_ms("flow.explore", false), "ms");
  report.metric("flow.explore_idle_ms", per_job_ms("flow.explore", true),
                "ms");
  report.metric("flow.select_ms", per_job_ms("flow.select", false), "ms");
  report.metric("flow.replace_ms", per_job_ms("flow.replace", false), "ms");
}

void add_zero_layer_metrics(Report& report) {
  static const char* const kMetrics[][2] = {
      {"isa.parse_us", "us"},
      {"core.explore_ms_p50", "ms"},
      {"core.rounds", "count"},
      {"core.iterations", "count"},
      {"core.us_per_iteration", "us"},
      {"core.walk_ns_per_node", "ns"},
      {"core.walk_allocs", "count"},
      {"sched.cycles_ns_per_node", "ns"},
      {"dfg.candidate_eval_ns", "ns"},
      {"flow.profile_ms", "ms"},
      {"flow.explore_ms", "ms"},
      {"flow.explore_idle_ms", "ms"},
      {"flow.select_ms", "ms"},
      {"flow.replace_ms", "ms"},
      {"flow.portfolio.jobs", "count"},
      {"flow.portfolio.deduped_jobs", "count"},
      {"flow.portfolio.select_ms", "ms"},
      {"mem.annotate_ms", "ms"},
      {"mem.accesses", "count"},
      {"mem.l1_hit_rate", "ratio"},
      {"runtime.pool.busy_frac", "ratio"},
      {"runtime.pool.tasks", "count"},
      {"runtime.pool.steals", "count"},
      {"runtime.eval_cache.hit_rate", "ratio"},
      {"runtime.eval_cache.lookups", "count"},
      {"runtime.persist.load_ms", "ms"},
      {"runtime.persist.records", "count"},
      {"runtime.persist.log_bytes", "bytes"},
      {"server.parse_us", "us"},
      {"server.signature_us", "us"},
      {"server.render_us", "us"},
      {"server.validate_us_p50", "us"},
      {"server.cache_us_p50", "us"},
      {"server.queue_wait_ms_p50", "ms"},
      {"server.explore_ms_p50", "ms"},
      {"server.wire_us_p50", "us"},
      {"server.result_hits", "count"},
      {"server.result_misses", "count"},
      {"server.hit_ms_p50", "ms"},
      {"server.hit_ms_p90", "ms"},
      {"server.miss_ms_p50", "ms"},
      {"server.miss_ms_p90", "ms"},
      {"server.hit_time_frac", "ratio"},
      {"trace.untraced_jobs_per_s", "1/s"},
      {"trace.traced_jobs_per_s", "1/s"},
      {"trace.overhead_pct", "%"},
  };
  for (const auto& [name, unit] : kMetrics) report.metric(name, 0.0, unit);
}

void add_trace_overhead(Report& report, double untraced_jobs_per_s,
                        double traced_jobs_per_s) {
  report.metric("trace.untraced_jobs_per_s", untraced_jobs_per_s, "1/s");
  report.metric("trace.traced_jobs_per_s", traced_jobs_per_s, "1/s");
  report.metric("trace.overhead_pct",
                traced_jobs_per_s > 0.0
                    ? (untraced_jobs_per_s / traced_jobs_per_s - 1.0) * 100.0
                    : 0.0,
                "%");
}

}  // namespace perfbench
