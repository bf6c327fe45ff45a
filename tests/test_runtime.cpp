// isex_runtime: thread pool, deterministic fan-out, job graph, and the
// schedule-evaluation cache — including the determinism contract the whole
// parallel pipeline rests on (same seed -> bit-identical FlowResult at any
// job count).
#include <atomic>
#include <chrono>
#include <cstdint>
#include <numeric>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "bench_suite/kernels.hpp"
#include "flow/design_flow.hpp"
#include "flow/portfolio.hpp"
#include "runtime/eval_cache.hpp"
#include "runtime/hash.hpp"
#include "runtime/job_graph.hpp"
#include "runtime/pool_profile.hpp"
#include "runtime/runtime_stats.hpp"
#include "runtime/thread_pool.hpp"
#include "sched/list_scheduler.hpp"
#include "test_util.hpp"
#include "trace/trace.hpp"

namespace isex::runtime {
namespace {

// ---------------------------------------------------------------- ThreadPool

TEST(ThreadPool, SubmitReturnsFutureValue) {
  ThreadPool pool(2);
  auto future = pool.submit([]() { return 6 * 7; });
  EXPECT_EQ(future.get(), 42);
}

TEST(ThreadPool, SubmitPropagatesExceptions) {
  ThreadPool pool(2);
  auto future = pool.submit(
      []() -> int { throw std::runtime_error("job failed"); });
  EXPECT_THROW(future.get(), std::runtime_error);
}

TEST(ThreadPool, ParallelForCoversEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  constexpr std::size_t kN = 1000;
  std::vector<std::atomic<int>> hits(kN);
  pool.parallel_for(kN, [&](std::size_t i) { ++hits[i]; });
  for (std::size_t i = 0; i < kN; ++i) EXPECT_EQ(hits[i].load(), 1);
  EXPECT_GE(pool.stats().jobs_run, kN);
}

TEST(ThreadPool, ParallelForPropagatesFirstException) {
  ThreadPool pool(4);
  EXPECT_THROW(pool.parallel_for(64,
                                 [](std::size_t i) {
                                   if (i % 7 == 3)
                                     throw std::invalid_argument("bad index");
                                 }),
               std::invalid_argument);
}

TEST(ThreadPool, NestedParallelForRunsInline) {
  ThreadPool pool(2);
  std::vector<std::atomic<int>> hits(64);
  pool.parallel_for(8, [&](std::size_t outer) {
    // From a worker thread this must degrade to a serial loop, not deadlock.
    pool.parallel_for(8, [&](std::size_t inner) { ++hits[outer * 8 + inner]; });
  });
  const int total = std::accumulate(
      hits.begin(), hits.end(), 0,
      [](int acc, const std::atomic<int>& h) { return acc + h.load(); });
  EXPECT_EQ(total, 64);
}

void spin_for(std::chrono::microseconds duration) {
  const auto end = std::chrono::steady_clock::now() + duration;
  while (std::chrono::steady_clock::now() < end) {
  }
}

/// Outer fan-out of 8 ~0.5 ms bodies, each running a nested fan-out of 4
/// ~0.1 ms bodies: the shape of an exploration batch whose explorations fan
/// their candidates out again.
template <typename OuterHook, typename InnerHook>
void run_nested_fanouts(ThreadPool& pool, OuterHook outer_hook,
                        InnerHook inner_hook) {
  pool.parallel_for(8, [&](std::size_t) {
    outer_hook(+1);
    spin_for(std::chrono::microseconds(500));
    const std::thread::id outer_thread = std::this_thread::get_id();
    pool.parallel_for(4, [&](std::size_t) {
      spin_for(std::chrono::microseconds(100));
      inner_hook(outer_thread);
    });
    outer_hook(-1);
  });
}

TEST(ThreadPool, HelpingCallerRunsNestedFanOutInline) {
  // The test thread is not a worker; while it helps its outer fan-out it
  // runs outer bodies itself.  Their nested fan-outs must run inline there
  // too, never picking up a sibling outer body and suspending this one.
  ThreadPool pool(1);
  static thread_local int depth = 0;
  std::atomic<int> max_depth{0};
  std::atomic<int> moved{0};
  run_nested_fanouts(
      pool,
      [&](int step) {
        depth += step;
        int seen = max_depth.load();
        while (seen < depth && !max_depth.compare_exchange_weak(seen, depth)) {
        }
      },
      [&](std::thread::id outer_thread) {
        if (std::this_thread::get_id() != outer_thread) ++moved;
      });
  EXPECT_EQ(max_depth.load(), 1);
  EXPECT_EQ(moved.load(), 0);
}

TEST(ThreadPool, ExternalSlotBusyNeverExceedsWallTime) {
  // Every task the helping caller runs lies inside its outer parallel_for
  // call and none runs inside another, so the external slot's busy time is
  // bounded by that call's wall time.
  ThreadPool pool(1);
  pool.set_profiling(true);
  const auto start = std::chrono::steady_clock::now();
  run_nested_fanouts(pool, [](int) {}, [](std::thread::id) {});
  const auto wall_ns = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - start)
          .count());
  // Same ns-to-seconds conversion as occupancy(), so the bound is exact.
  EXPECT_LE(pool.occupancy().back().busy_seconds,
            static_cast<double>(wall_ns) * 1e-9);
}

TEST(ThreadPool, ParallelMapPreservesInputOrder) {
  ThreadPool pool(4);
  std::vector<int> items(257);
  std::iota(items.begin(), items.end(), 0);
  const std::vector<int> doubled =
      parallel_map(pool, items, [](const int x) { return 2 * x; });
  ASSERT_EQ(doubled.size(), items.size());
  for (std::size_t i = 0; i < items.size(); ++i)
    EXPECT_EQ(doubled[i], 2 * static_cast<int>(i));
}

TEST(ThreadPool, DefaultJobsIsPositive) {
  EXPECT_GE(ThreadPool::default_jobs(), 1);
}

// ------------------------------------------------------ deterministic_fanout

TEST(DeterministicFanout, SplitNMatchesSequentialSplits) {
  Rng a(123);
  Rng b(123);
  std::vector<Rng> children = a.split_n(5);
  for (Rng& child : children) {
    Rng expected = b.split();
    EXPECT_EQ(child.next_u32(), expected.next_u32());
  }
  // The parents advanced identically.
  EXPECT_EQ(a.next_u32(), b.next_u32());
}

TEST(DeterministicFanout, MatchesSerialLoopAtAnyThreadCount) {
  auto job = [](std::size_t i, Rng& rng) {
    std::uint64_t acc = i;
    for (int k = 0; k < 100; ++k) acc ^= rng.next_u32() + k;
    return acc;
  };
  Rng serial_rng(7);
  std::vector<std::uint64_t> expected;
  for (std::size_t i = 0; i < 32; ++i) {
    Rng child = serial_rng.split();
    expected.push_back(job(i, child));
  }
  for (const int threads : {1, 2, 8}) {
    ThreadPool pool(threads);
    Rng rng(7);
    const auto results = deterministic_fanout(pool, rng, 32, job);
    EXPECT_EQ(results, expected) << "threads=" << threads;
    EXPECT_EQ(rng.next_u32(), Rng(serial_rng).next_u32());
  }
}

// --------------------------------------------------------------- pool profiler

TEST(ThreadPool, ProfilingIsOffByDefaultAndCountsTasksWhenOn) {
  ThreadPool pool(2);
  EXPECT_FALSE(pool.profiling());
  pool.parallel_for(32, [](std::size_t) {});
  EXPECT_EQ(pool.profiled_task_count(), 0u);  // off: zero bookkeeping

  pool.set_profiling(true);
  pool.parallel_for(100, [](std::size_t) {});
  EXPECT_GE(pool.profiled_task_count(), 100u);
  std::uint64_t per_worker = 0;
  for (const WorkerOccupancy& w : pool.occupancy()) per_worker += w.tasks;
  EXPECT_EQ(per_worker, pool.profiled_task_count());
  std::uint64_t binned = 0;
  for (const std::uint64_t c : pool.task_duration_counts()) binned += c;
  EXPECT_EQ(binned, pool.profiled_task_count());
  EXPECT_GE(pool.profiled_task_seconds(), 0.0);
}

TEST(ThreadPool, OccupancyHasOneSlotPerWorkerPlusExternal) {
  ThreadPool pool(3);
  // Workers 0..2 plus the synthetic slot for non-pool threads that run
  // tasks inline while helping a fan-out.
  EXPECT_EQ(pool.occupancy().size(), 4u);
  EXPECT_EQ(ThreadPool::task_duration_bounds_us().size() + 1,
            pool.task_duration_counts().size());
}

TEST(ThreadPool, PropagatesTraceContextToPoolTasks) {
  trace::Tracer& tracer = trace::Tracer::global();
  tracer.set_enabled(true);
  ThreadPool pool(2);
  const trace::ContextScope scope(trace::TraceContext{42, 7});
  auto future = pool.submit([] { return trace::current_context(); });
  const trace::TraceContext seen = future.get();
  tracer.set_enabled(false);
  tracer.reset();
  EXPECT_EQ(seen.trace_id, 42u);
  EXPECT_EQ(seen.span_id, 7u);
}

TEST(ThreadPool, NoContextPropagationWhileTracerDisabled) {
  ThreadPool pool(2);
  const trace::ContextScope scope(trace::TraceContext{42, 7});
  auto future = pool.submit([] { return trace::current_context(); });
  const trace::TraceContext seen = future.get();
  EXPECT_FALSE(seen.active());  // disabled tracer: zero capture overhead
}

TEST(DeterministicFanout, RecordsParallelSectionWhenProfiling) {
  reset_parallel_sections();
  ThreadPool pool(2);
  pool.set_profiling(true);
  Rng rng(11);
  deterministic_fanout(
      pool, rng, 16,
      [](std::size_t i, Rng& r) {
        std::uint64_t acc = i;  // enough work for a nonzero body duration
        for (int k = 0; k < 5000; ++k) acc ^= r.next_u32();
        return acc;
      },
      "test.section");
  const std::vector<SectionProfile> sections = parallel_sections_snapshot();
  ASSERT_EQ(sections.size(), 1u);
  const SectionProfile& s = sections[0];
  EXPECT_EQ(s.name, "test.section");
  EXPECT_EQ(s.invocations, 1u);
  EXPECT_EQ(s.tasks, 16u);
  EXPECT_GE(s.serial_fraction(), 0.0);
  EXPECT_LE(s.serial_fraction(), 1.0);
  EXPECT_GE(s.imbalance(), 1.0);
  reset_parallel_sections();
}

TEST(DeterministicFanout, ProfilingDoesNotPerturbResults) {
  auto job = [](std::size_t i, Rng& r) {
    std::uint64_t acc = i;
    for (int k = 0; k < 50; ++k) acc ^= r.next_u32() + k;
    return acc;
  };
  ThreadPool plain(4);
  Rng rng_plain(21);
  const auto expected = deterministic_fanout(plain, rng_plain, 24, job);

  reset_parallel_sections();
  ThreadPool profiled(4);
  profiled.set_profiling(true);
  Rng rng_profiled(21);
  const auto measured = deterministic_fanout(profiled, rng_profiled, 24, job);
  EXPECT_EQ(measured, expected);
  EXPECT_EQ(rng_plain.next_u32(), rng_profiled.next_u32());
  reset_parallel_sections();
}

TEST(ThreadPool, PoolProfileJsonHasWorkersHistogramAndSections) {
  reset_parallel_sections();
  ThreadPool pool(2);
  pool.set_profiling(true);
  Rng rng(3);
  deterministic_fanout(
      pool, rng, 8, [](std::size_t i, Rng&) { return i; }, "json.section");
  const PoolProfile profile = collect_pool_profile(pool);
  EXPECT_TRUE(profile.profiled);
  EXPECT_EQ(profile.threads, 2);
  std::ostringstream out;
  profile.write_json(out);
  const std::string text = out.str();
  EXPECT_NE(text.find("\"workers\":["), std::string::npos);
  EXPECT_NE(text.find("\"worker\":\"external\""), std::string::npos);
  EXPECT_NE(text.find("\"task_histogram\""), std::string::npos);
  EXPECT_NE(text.find("\"json.section\""), std::string::npos);
  EXPECT_NE(text.find("\"serial_fraction\""), std::string::npos);
  EXPECT_NE(text.find("\"imbalance\""), std::string::npos);
  reset_parallel_sections();
}

// ------------------------------------------------------------------ EvalCache

TEST(EvalCache, HitAndMissCountersAreExact) {
  EvalCache cache(/*capacity=*/64, /*shards=*/4);
  const Key128 key{1, 2};
  EXPECT_FALSE(cache.lookup(key).has_value());
  cache.insert(key, 42);
  EXPECT_EQ(cache.lookup(key).value(), 42);
  EXPECT_EQ(cache.lookup(key).value(), 42);
  const CacheStats stats = cache.stats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits, 2u);
  EXPECT_EQ(stats.insertions, 1u);
  EXPECT_EQ(stats.evictions, 0u);
  EXPECT_DOUBLE_EQ(stats.hit_rate(), 2.0 / 3.0);
}

TEST(EvalCache, GetOrComputeComputesOnMissOnly) {
  EvalCache cache;
  int computed = 0;
  const Key128 key{9, 9};
  auto compute = [&]() {
    ++computed;
    return 7;
  };
  EXPECT_EQ(cache.get_or_compute(key, compute), 7);
  EXPECT_EQ(cache.get_or_compute(key, compute), 7);
  EXPECT_EQ(computed, 1);
}

TEST(EvalCache, EvictsFifoWhenFull) {
  EvalCache cache(/*capacity=*/8, /*shards=*/1);
  for (std::uint64_t i = 0; i < 20; ++i)
    cache.insert(Key128{i, i}, static_cast<int>(i));
  EXPECT_EQ(cache.size(), 8u);
  const CacheStats stats = cache.stats();
  EXPECT_EQ(stats.insertions, 20u);
  EXPECT_EQ(stats.evictions, 12u);
  // The oldest entries are gone, the newest survive.
  EXPECT_FALSE(cache.lookup(Key128{0, 0}).has_value());
  EXPECT_TRUE(cache.lookup(Key128{19, 19}).has_value());
}

TEST(EvalCache, ConcurrentHammeringStaysConsistent) {
  EvalCache cache(/*capacity=*/1024, /*shards=*/16);
  ThreadPool pool(8);
  // Many threads race get_or_compute over a small key space; every returned
  // value must match its key and counters must balance.
  pool.parallel_for(2000, [&](std::size_t i) {
    const std::uint64_t k = i % 50;
    const Key128 key{k, k * 31};
    const int value =
        cache.get_or_compute(key, [&]() { return static_cast<int>(k) * 3; });
    ASSERT_EQ(value, static_cast<int>(k) * 3);
  });
  const CacheStats stats = cache.stats();
  EXPECT_EQ(stats.hits + stats.misses, 2000u);
  EXPECT_GE(stats.misses, 50u);  // at least one miss per distinct key
  EXPECT_EQ(cache.size(), 50u);
}

// ------------------------------------------------------------- schedule keys

TEST(ScheduleKey, IdenticalInputsCollide) {
  const dfg::Graph g1 = isex::testing::make_diamond();
  const dfg::Graph g2 = isex::testing::make_diamond();
  const auto machine = sched::MachineConfig::make(2, {6, 3});
  EXPECT_EQ(schedule_key(g1, machine, sched::PriorityKind::kChildCount),
            schedule_key(g2, machine, sched::PriorityKind::kChildCount));
}

TEST(ScheduleKey, AnySingleFieldChangeMisses) {
  const auto machine = sched::MachineConfig::make(2, {6, 3});
  const auto priority = sched::PriorityKind::kChildCount;
  const dfg::Graph base = isex::testing::make_diamond();
  const Key128 key = schedule_key(base, machine, priority);

  {  // different opcode
    dfg::Graph g = isex::testing::make_diamond();
    g.node(1).opcode = isa::Opcode::kAddu;
    EXPECT_NE(schedule_key(g, machine, priority), key);
  }
  {  // extra edge
    dfg::Graph g = isex::testing::make_diamond();
    g.add_edge(1, 2);
    EXPECT_NE(schedule_key(g, machine, priority), key);
  }
  {  // live-out flipped
    dfg::Graph g = isex::testing::make_diamond();
    g.set_live_out(1, true);
    EXPECT_NE(schedule_key(g, machine, priority), key);
  }
  {  // extern inputs changed
    dfg::Graph g = isex::testing::make_diamond();
    g.set_extern_inputs(0, 1);
    EXPECT_NE(schedule_key(g, machine, priority), key);
  }
  {  // ISE payload differs
    dfg::Graph a = isex::testing::make_diamond();
    dfg::Graph b = isex::testing::make_diamond();
    dfg::IseInfo info;
    info.latency_cycles = 2;
    a.add_ise_node(info);
    info.latency_cycles = 3;
    b.add_ise_node(info);
    EXPECT_NE(schedule_key(a, machine, priority),
              schedule_key(b, machine, priority));
  }
  // different machine / priority
  EXPECT_NE(schedule_key(base, sched::MachineConfig::make(3, {6, 3}), priority),
            key);
  EXPECT_NE(schedule_key(base, machine, sched::PriorityKind::kMobility), key);
  // labels are cosmetic and must NOT split the key
  {
    dfg::Graph g = isex::testing::make_diamond();
    g.node(0).label = "renamed";
    EXPECT_EQ(schedule_key(g, machine, priority), key);
  }
}

TEST(ScheduleKey, CachedCyclesMatchDirectScheduling) {
  const sched::ListScheduler scheduler(sched::MachineConfig::make(2, {6, 3}));
  Rng rng(11);
  for (int i = 0; i < 20; ++i) {
    const dfg::Graph g = isex::testing::make_random_dag(24, rng);
    const int direct = scheduler.cycles(g);
    EXPECT_EQ(cached_schedule_cycles(scheduler, g), direct);  // miss path
    EXPECT_EQ(cached_schedule_cycles(scheduler, g), direct);  // hit path
  }
}

// ------------------------------------------------- flow determinism contract

/// The tentpole acceptance property: run_design_flow yields a bit-identical
/// FlowResult for the same seed at jobs ∈ {1, 2, 8}, cache on or off.
class FlowDeterminism
    : public ::testing::TestWithParam<
          std::pair<bench_suite::Benchmark, bench_suite::OptLevel>> {};

TEST_P(FlowDeterminism, IdenticalResultsAcrossJobCounts) {
  const auto [benchmark, level] = GetParam();
  const auto program = bench_suite::make_program(benchmark, level);
  const hw::HwLibrary library = hw::HwLibrary::paper_default();

  auto run = [&](int jobs, bool use_cache) {
    flow::FlowConfig config;
    config.machine = sched::MachineConfig::make(2, {6, 3});
    config.repeats = 3;
    config.seed = 2026;
    config.jobs = jobs;
    config.params.use_eval_cache = use_cache;
    return flow::run_design_flow(program, library, config);
  };

  const flow::FlowResult reference = run(1, false);
  for (const int jobs : {1, 2, 8}) {
    for (const bool cache : {false, true}) {
      const flow::FlowResult result = run(jobs, cache);
      EXPECT_EQ(result.final_time(), reference.final_time())
          << "jobs=" << jobs << " cache=" << cache;
      EXPECT_EQ(result.base_time(), reference.base_time());
      EXPECT_DOUBLE_EQ(result.total_area(), reference.total_area());
      EXPECT_EQ(result.num_ise_types(), reference.num_ise_types());
      EXPECT_EQ(result.hot_blocks, reference.hot_blocks);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Paper, FlowDeterminism,
    ::testing::Values(std::pair{bench_suite::Benchmark::kCrc32,
                                bench_suite::OptLevel::kO0},
                      std::pair{bench_suite::Benchmark::kFft,
                                bench_suite::OptLevel::kO3}));

// explore_best_of itself (the §5.1 best-of loop) is deterministic across
// pool sizes, including against a hand-rolled serial reference.
TEST(ExplorerDeterminism, BestOfMatchesSerialReference) {
  const auto machine = sched::MachineConfig::make(2, {6, 3});
  isa::IsaFormat format;
  format.reg_file = machine.reg_file;
  const core::MultiIssueExplorer explorer(machine, format,
                                          hw::HwLibrary::paper_default());
  const dfg::Graph block = isex::testing::make_diamond();

  // Serial reference: split-then-explore, first strictly better kept.
  Rng serial_rng(5);
  core::ExplorationResult best;
  bool have_best = false;
  for (int r = 0; r < 4; ++r) {
    Rng child = serial_rng.split();
    core::ExplorationResult attempt = explorer.explore(block, child);
    const bool better =
        !have_best || attempt.final_cycles < best.final_cycles ||
        (attempt.final_cycles == best.final_cycles &&
         attempt.total_area() < best.total_area());
    if (better) {
      best = std::move(attempt);
      have_best = true;
    }
  }

  Rng rng(5);
  const core::ExplorationResult parallel =
      explorer.explore_best_of(block, 4, rng);
  EXPECT_EQ(parallel.final_cycles, best.final_cycles);
  EXPECT_EQ(parallel.base_cycles, best.base_cycles);
  EXPECT_DOUBLE_EQ(parallel.total_area(), best.total_area());
  EXPECT_EQ(parallel.ises.size(), best.ises.size());
}

// ---------------------------------------------------------------- RuntimeStats

TEST(RuntimeStats, CollectsPoolCacheAndStageData) {
  ThreadPool pool(2);
  pool.parallel_for(16, [](std::size_t) {});
  stage_times().reset();
  {
    StageTimer timer("unit-test-stage");
  }
  const RuntimeStats stats = collect_runtime_stats(pool);
  EXPECT_EQ(stats.pool.threads, 2);
  EXPECT_GE(stats.pool.jobs_run, 16u);
  bool found = false;
  for (const auto& [name, seconds] : stats.stages) {
    if (name == "unit-test-stage") {
      found = true;
      EXPECT_GE(seconds, 0.0);
    }
  }
  EXPECT_TRUE(found);
  std::ostringstream out;
  stats.print(out);
  EXPECT_NE(out.str().find("schedule cache"), std::string::npos);
}

TEST(RuntimeStats, CacheGaugesMirrorEveryEvalCache) {
  // A portfolio flow probes its own private cache, never the process one,
  // yet the published gauges must agree with the counters both feed.
  schedule_cache().reset_stats();
  flow::PortfolioConfig config;
  config.base.machine = sched::MachineConfig::make(2, {6, 3});
  config.base.repeats = 2;
  config.base.seed = 7;
  std::vector<flow::PortfolioEntry> entries(2);
  entries[0].program = bench_suite::make_program(bench_suite::Benchmark::kCrc32,
                                                 bench_suite::OptLevel::kO3);
  entries[1].program = bench_suite::make_program(
      bench_suite::Benchmark::kBitcount, bench_suite::OptLevel::kO3);
  flow::run_portfolio_flow(entries, hw::HwLibrary::paper_default(), config);

  trace::MetricsRegistry& registry = trace::MetricsRegistry::global();
  collect_runtime_stats(ThreadPool::default_pool()).publish(registry);
  const double hits =
      registry.counter("isex_schedule_cache_hits_total").value();
  const double probes =
      hits + registry.counter("isex_schedule_cache_misses_total").value();
  ASSERT_GT(probes, 0.0);
  EXPECT_EQ(registry.gauge("isex_schedule_cache_probes").value(), probes);
  EXPECT_DOUBLE_EQ(registry.gauge("isex_schedule_cache_hit_rate").value(),
                   hits / probes);
}

}  // namespace
}  // namespace isex::runtime
