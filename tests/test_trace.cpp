// Tests for the observability layer: Tracer/Span event semantics and export
// formats, MetricsRegistry counter/gauge/histogram semantics under
// concurrency (run under TSan in CI), telemetry CSV, and the stage
// spans both design-flow entry points share.
#include "trace/trace.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench_suite/kernels.hpp"
#include "flow/design_flow.hpp"
#include "flow/portfolio.hpp"
#include "json_checker.hpp"
#include "runtime/pool_profile.hpp"
#include "runtime/thread_pool.hpp"
#include "trace/metrics.hpp"
#include "trace/telemetry.hpp"

namespace isex::trace {
namespace {

using testing::JsonChecker;

std::size_t count_occurrences(const std::string& haystack,
                              const std::string& needle) {
  std::size_t n = 0;
  for (std::size_t pos = haystack.find(needle); pos != std::string::npos;
       pos = haystack.find(needle, pos + needle.size()))
    ++n;
  return n;
}

// --- Tracer ---------------------------------------------------------------

TEST(TracerTest, DisabledByDefaultAndRecordsNothing) {
  Tracer tracer;
  EXPECT_FALSE(tracer.enabled());
  tracer.record_instant("ignored");
  tracer.record_counter("ignored", 1.0);
  { const Span span("ignored", tracer); }
  EXPECT_EQ(tracer.num_events(), 0u);
}

TEST(TracerTest, PreservesPerThreadEventOrder) {
  Tracer tracer;
  tracer.set_enabled(true);
  tracer.record_instant("a");
  tracer.record_instant("b");
  tracer.record_counter("c", 3.0);
  const auto events = tracer.snapshot();
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(events[0].name, "a");
  EXPECT_EQ(events[1].name, "b");
  EXPECT_EQ(events[2].name, "c");
  EXPECT_EQ(events[2].kind, EventKind::kCounter);
  EXPECT_DOUBLE_EQ(events[2].value, 3.0);
  // One thread recorded everything: same tid, monotonic timestamps.
  EXPECT_EQ(events[0].tid, events[1].tid);
  EXPECT_LE(events[0].ts_us, events[1].ts_us);
}

TEST(TracerTest, SpanFlushesOnDrop) {
  Tracer tracer;
  tracer.set_enabled(true);
  {
    const Span span("work", tracer);
    EXPECT_EQ(tracer.num_events(), 0u);  // nothing until the dtor
  }
  const auto events = tracer.snapshot();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].name, "work");
  EXPECT_EQ(events[0].kind, EventKind::kSpan);
}

TEST(TracerTest, SpanStartedWhileDisabledIsDropped) {
  Tracer tracer;
  {
    const Span span("late", tracer);
    tracer.set_enabled(true);  // enabling mid-span must not fabricate events
  }
  EXPECT_EQ(tracer.num_events(), 0u);
}

TEST(TracerTest, BuffersSurviveThreadExit) {
  Tracer tracer;
  tracer.set_enabled(true);
  std::thread worker([&] { tracer.record_instant("from_worker"); });
  worker.join();
  tracer.record_instant("from_main");
  const auto events = tracer.snapshot();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_NE(events[0].tid, events[1].tid);
}

TEST(TracerTest, ConcurrentRecordingLosesNothing) {
  constexpr int kThreads = 4;
  constexpr int kPerThread = 1000;
  Tracer tracer;
  tracer.set_enabled(true);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t)
    threads.emplace_back([&] {
      for (int i = 0; i < kPerThread; ++i) tracer.record_instant("tick");
    });
  for (auto& t : threads) t.join();
  EXPECT_EQ(tracer.num_events(),
            static_cast<std::size_t>(kThreads) * kPerThread);
}

TEST(TracerTest, DrainEmptiesAndResetRestartsEpoch) {
  Tracer tracer;
  tracer.set_enabled(true);
  tracer.record_instant("one");
  EXPECT_EQ(tracer.drain().size(), 1u);
  EXPECT_EQ(tracer.num_events(), 0u);
  tracer.record_instant("two");
  tracer.reset();
  EXPECT_EQ(tracer.num_events(), 0u);
}

TEST(TracerTest, ChromeTraceIsValidJson) {
  Tracer tracer;
  tracer.set_enabled(true);
  tracer.record_instant("needs \"escaping\"\n");
  tracer.record_counter("aco.iterations", 42.0);
  { const Span span("phase", tracer); }
  std::ostringstream out;
  tracer.write_chrome_trace(out);
  const std::string text = out.str();
  EXPECT_TRUE(JsonChecker(text).valid()) << text;
  EXPECT_NE(text.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(text.find("\"ph\":\"X\""), std::string::npos);  // the span
  EXPECT_NE(text.find("\"ph\":\"C\""), std::string::npos);  // the counter
  EXPECT_NE(text.find("\"ph\":\"i\""), std::string::npos);  // the instant
}

// --- trace context --------------------------------------------------------

TEST(TracerContextTest, ContextScopeInstallsAndRestores) {
  EXPECT_FALSE(current_context().active());
  {
    const ContextScope outer(TraceContext{7, 3});
    EXPECT_EQ(current_context().trace_id, 7u);
    EXPECT_EQ(current_context().span_id, 3u);
    {
      const ContextScope inner(TraceContext{7, 9});
      EXPECT_EQ(current_context().span_id, 9u);
    }
    EXPECT_EQ(current_context().span_id, 3u);
  }
  EXPECT_FALSE(current_context().active());
}

TEST(TracerContextTest, ExchangeReturnsPreviousContext) {
  const TraceContext before = exchange_current_context(TraceContext{5, 6});
  EXPECT_FALSE(before.active());
  const TraceContext installed = exchange_current_context(before);
  EXPECT_EQ(installed.trace_id, 5u);
  EXPECT_EQ(installed.span_id, 6u);
  EXPECT_FALSE(current_context().active());
}

TEST(TracerContextTest, MintedIdsAreUniqueAcrossThreads) {
  constexpr int kThreads = 4;
  constexpr int kPerThread = 1000;
  std::vector<std::vector<std::uint64_t>> ids(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t)
    threads.emplace_back([t, &ids] {
      for (int i = 0; i < kPerThread; ++i) ids[t].push_back(mint_span_id());
    });
  for (auto& t : threads) t.join();
  std::vector<std::uint64_t> all;
  for (const auto& chunk : ids) all.insert(all.end(), chunk.begin(),
                                           chunk.end());
  std::sort(all.begin(), all.end());
  EXPECT_EQ(std::adjacent_find(all.begin(), all.end()), all.end());
  EXPECT_EQ(std::count(all.begin(), all.end(), 0u), 0);  // ids start at 1
}

TEST(TracerContextTest, NestedSpansShareTraceIdAndParentCorrectly) {
  Tracer tracer;
  tracer.set_enabled(true);
  const std::uint64_t trace_id = mint_trace_id();
  {
    const ContextScope root(TraceContext{trace_id, 0});
    const Span outer("outer", tracer);
    { const Span inner("inner", tracer); }
  }
  const auto events = tracer.snapshot();
  ASSERT_EQ(events.size(), 2u);
  const TraceEvent& inner = events[0];  // destroyed (recorded) first
  const TraceEvent& outer = events[1];
  EXPECT_EQ(inner.name, "inner");
  EXPECT_EQ(outer.name, "outer");
  EXPECT_EQ(outer.trace_id, trace_id);
  EXPECT_EQ(inner.trace_id, trace_id);
  EXPECT_NE(outer.span_id, 0u);
  EXPECT_NE(inner.span_id, 0u);
  EXPECT_NE(inner.span_id, outer.span_id);
  EXPECT_EQ(inner.parent_id, outer.span_id);  // inner nests under outer
  EXPECT_EQ(outer.parent_id, 0u);             // outer is the trace root
}

TEST(TracerContextTest, SpanRestoresContextAfterDestruction) {
  Tracer tracer;
  tracer.set_enabled(true);
  const ContextScope root(TraceContext{11, 22});
  {
    const Span span("child", tracer);
    EXPECT_EQ(current_context().trace_id, 11u);
    EXPECT_NE(current_context().span_id, 22u);  // span installed its own id
  }
  EXPECT_EQ(current_context().span_id, 22u);
}

TEST(TracerContextTest, DisabledTracerLeavesContextUntouched) {
  Tracer tracer;  // disabled
  const ContextScope root(TraceContext{11, 22});
  {
    const Span span("child", tracer);
    EXPECT_EQ(current_context().span_id, 22u);  // no id minted, no install
  }
  EXPECT_EQ(tracer.num_events(), 0u);
}

TEST(TracerContextTest, ChromeTraceExportsContextIdsAsArgs) {
  Tracer tracer;
  tracer.set_enabled(true);
  tracer.record_span("plain", 0, 5);  // no context: must not emit args
  tracer.record_span("tagged", 0, 5, /*trace_id=*/3, /*span_id=*/4,
                     /*parent_id=*/0);
  std::ostringstream out;
  tracer.write_chrome_trace(out);
  const std::string text = out.str();
  EXPECT_TRUE(JsonChecker(text).valid()) << text;
  EXPECT_NE(text.find("\"args\":{\"trace_id\":3,\"span_id\":4,"
                      "\"parent_span_id\":0}"),
            std::string::npos)
      << text;
  EXPECT_EQ(count_occurrences(text, "\"args\""), 1u);  // only the tagged one
}

// --- stage timer ----------------------------------------------------------

TEST(StageTimer, AddsItsSecondsAndNestsItsSpanUnderTheEnclosingOne) {
  Counter& seconds = MetricsRegistry::global().counter(
      "isex_stage_seconds_total", {{"stage", "unit-test-stage"}});
  const double before = seconds.value();
  {
    const StageTimer untraced("unit-test-stage");
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  const double after_untraced = seconds.value();
  EXPECT_GE(after_untraced - before, 0.001);

  Tracer& tracer = Tracer::global();
  tracer.reset();
  tracer.set_enabled(true);
  {
    const ContextScope root(TraceContext{mint_trace_id(), 0});
    const Span enclosing("enclosing");
    const StageTimer traced("unit-test-stage");
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  tracer.set_enabled(false);
  const std::vector<TraceEvent> events = tracer.snapshot();
  tracer.reset();
  EXPECT_GE(seconds.value() - after_untraced, 0.001);
  ASSERT_EQ(events.size(), 2u);
  const TraceEvent& stage = events[0];  // closed (recorded) first
  const TraceEvent& enclosing = events[1];
  EXPECT_EQ(stage.name, "stage:unit-test-stage");
  EXPECT_EQ(enclosing.name, "enclosing");
  EXPECT_EQ(stage.trace_id, enclosing.trace_id);
  EXPECT_NE(stage.span_id, 0u);
  EXPECT_EQ(stage.parent_id, enclosing.span_id);
}

TEST(JsonEscapeTest, EscapesQuotesBackslashesAndControls) {
  EXPECT_EQ(json_escape("plain"), "plain");
  EXPECT_EQ(json_escape("a\"b"), "a\\\"b");
  EXPECT_EQ(json_escape("a\\b"), "a\\\\b");
  EXPECT_EQ(json_escape("a\nb"), "a\\nb");
  EXPECT_EQ(json_escape(std::string_view("a\x01z", 3)), "a\\u0001z");
}

// --- metrics --------------------------------------------------------------

TEST(MetricsTest, RegistryInternsSeriesByNameAndLabels) {
  MetricsRegistry registry;
  Counter& a = registry.counter("jobs_total");
  Counter& b = registry.counter("jobs_total");
  EXPECT_EQ(&a, &b);
  Counter& labeled = registry.counter("jobs_total", {{"pool", "p0"}});
  EXPECT_NE(&a, &labeled);
  // Label order must not matter.
  Gauge& g1 = registry.gauge("g", {{"x", "1"}, {"y", "2"}});
  Gauge& g2 = registry.gauge("g", {{"y", "2"}, {"x", "1"}});
  EXPECT_EQ(&g1, &g2);
  EXPECT_EQ(registry.num_series(), 3u);
}

TEST(MetricsTest, ConcurrentFirstUseRegistrationIsSafe) {
  // Pool workers race on the first use of a series (AntWalk's ctor inside
  // parallel explores); lookup and payload creation must be one atomic step.
  MetricsRegistry registry;
  constexpr int kThreads = 8;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t)
    threads.emplace_back([&] {
      registry.counter("c_total").inc();
      registry.histogram("h", {1.0, 2.0}).observe(1.0);
      registry.gauge("g").add(1.0);
    });
  for (auto& t : threads) t.join();
  EXPECT_DOUBLE_EQ(registry.counter("c_total").value(), kThreads);
  EXPECT_EQ(registry.histogram("h", {1.0, 2.0}).count(),
            static_cast<std::uint64_t>(kThreads));
  EXPECT_EQ(registry.num_series(), 3u);
}

TEST(MetricsTest, ConcurrentCounterIncrementsAreExact) {
  MetricsRegistry registry;
  Counter& counter = registry.counter("hits_total");
  constexpr int kThreads = 4;
  constexpr int kPerThread = 10000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t)
    threads.emplace_back([&] {
      for (int i = 0; i < kPerThread; ++i) counter.inc();
    });
  for (auto& t : threads) t.join();
  EXPECT_DOUBLE_EQ(counter.value(), kThreads * kPerThread);
}

TEST(MetricsTest, ConcurrentHistogramObservationsAreExact) {
  MetricsRegistry registry;
  Histogram& hist = registry.histogram("lat", {1.0, 10.0, 100.0});
  constexpr int kThreads = 4;
  constexpr int kPerThread = 5000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t)
    threads.emplace_back([t, &hist] {
      for (int i = 0; i < kPerThread; ++i)
        hist.observe(static_cast<double>((t * kPerThread + i) % 200));
    });
  for (auto& t : threads) t.join();
  EXPECT_EQ(hist.count(), static_cast<std::uint64_t>(kThreads) * kPerThread);
  std::uint64_t binned = 0;
  for (const std::uint64_t c : hist.bin_counts()) binned += c;
  EXPECT_EQ(binned, hist.count());
}

TEST(MetricsTest, SnapshotUnderConcurrentMutationIsCoherent) {
  // /metrics and /statusz render while workers are mid-job: the exposition
  // must stay parseable and histogram invariants (buckets cumulative,
  // +Inf == count) must hold in every snapshot, not just quiescent ones.
  MetricsRegistry registry;
  Histogram& hist = registry.histogram("inflight_lat", {1.0, 10.0, 100.0});
  Counter& counter = registry.counter("inflight_total");
  std::atomic<bool> stop{false};
  constexpr int kMutators = 3;
  std::vector<std::thread> threads;
  for (int t = 0; t < kMutators; ++t)
    threads.emplace_back([t, &stop, &hist, &counter] {
      for (int i = 0; !stop.load(std::memory_order_relaxed); ++i) {
        hist.observe(static_cast<double>((t + i) % 200));
        counter.inc();
      }
    });
  for (int snap = 0; snap < 50; ++snap) {
    std::ostringstream out;
    registry.write_prometheus(out);
    const std::string text = out.str();
    // Bucket lines must be cumulative and count/sum present in each render.
    std::uint64_t previous = 0;
    std::istringstream lines(text);
    std::string line;
    bool saw_bucket = false;
    while (std::getline(lines, line)) {
      if (line.rfind("inflight_lat_bucket", 0) != 0) continue;
      const std::uint64_t value =
          std::stoull(line.substr(line.rfind(' ') + 1));
      EXPECT_GE(value, previous) << text;
      previous = value;
      saw_bucket = true;
    }
    EXPECT_TRUE(saw_bucket) << text;
  }
  stop.store(true, std::memory_order_relaxed);
  for (auto& t : threads) t.join();
  // Quiescent totals are exact: the final snapshot agrees with the bins.
  std::uint64_t binned = 0;
  for (const std::uint64_t c : hist.bin_counts()) binned += c;
  EXPECT_EQ(binned, hist.count());
  EXPECT_DOUBLE_EQ(counter.value(), static_cast<double>(hist.count()));
}

TEST(MetricsTest, HistogramBinsAreCumulativeInPrometheusOutput) {
  MetricsRegistry registry;
  Histogram& hist = registry.histogram("tet_cycles", {2.0, 4.0, 8.0});
  for (const double v : {1.0, 3.0, 3.0, 7.0, 100.0}) hist.observe(v);
  std::ostringstream out;
  registry.write_prometheus(out);
  const std::string text = out.str();
  EXPECT_NE(text.find("# TYPE tet_cycles histogram"), std::string::npos);
  EXPECT_NE(text.find("tet_cycles_bucket{le=\"2\"} 1"), std::string::npos);
  EXPECT_NE(text.find("tet_cycles_bucket{le=\"4\"} 3"), std::string::npos);
  EXPECT_NE(text.find("tet_cycles_bucket{le=\"8\"} 4"), std::string::npos);
  EXPECT_NE(text.find("tet_cycles_bucket{le=\"+Inf\"} 5"), std::string::npos);
  EXPECT_NE(text.find("tet_cycles_count 5"), std::string::npos);
  EXPECT_NE(text.find("tet_cycles_sum 114"), std::string::npos);
}

TEST(MetricsTest, PrometheusOutputIsSortedWithOneTypeLinePerFamily) {
  MetricsRegistry registry;
  registry.counter("zz_total").inc();
  registry.gauge("aa").set(1.0);
  registry.counter("mm_total", {{"stage", "b"}}).inc();
  registry.counter("mm_total", {{"stage", "a"}}).inc(2.0);
  std::ostringstream out;
  registry.write_prometheus(out);
  const std::string text = out.str();
  EXPECT_LT(text.find("aa"), text.find("mm_total"));
  EXPECT_LT(text.find("mm_total"), text.find("zz_total"));
  EXPECT_LT(text.find("mm_total{stage=\"a\"} 2"),
            text.find("mm_total{stage=\"b\"} 1"));
  EXPECT_EQ(count_occurrences(text, "# TYPE mm_total counter"), 1u);
}

TEST(MetricsTest, ResetZeroesEverySeries) {
  MetricsRegistry registry;
  registry.counter("c").inc(5.0);
  registry.gauge("g").set(2.0);
  registry.histogram("h", {1.0}).observe(3.0);
  registry.reset();
  EXPECT_DOUBLE_EQ(registry.counter("c").value(), 0.0);
  EXPECT_DOUBLE_EQ(registry.gauge("g").value(), 0.0);
  EXPECT_EQ(registry.histogram("h", {1.0}).count(), 0u);
}

// --- telemetry ------------------------------------------------------------

ConvergencePoint make_point(int round, int iteration, int tet) {
  ConvergencePoint p;
  p.round = round;
  p.iteration = iteration;
  p.tet = tet;
  p.best_tet = tet;
  p.worst_tet = tet + 2;
  p.mean_tet = tet + 1.0;
  p.converged_fraction = 0.5;
  p.entropy = 0.25;
  p.max_option_probability = 0.75;
  p.p_end = 0.99;
  p.ants = iteration + 1;
  p.cache_hit_rate = 0.125;
  return p;
}

TEST(TelemetryTest, CsvHasHeaderAndOneRowPerPoint) {
  const std::vector<ConvergencePoint> points = {make_point(0, 0, 19),
                                                make_point(0, 1, 17)};
  std::ostringstream out;
  ExplorationTelemetry::write_csv(out, points);
  std::istringstream lines(out.str());
  std::string line;
  ASSERT_TRUE(std::getline(lines, line));
  EXPECT_EQ(line, ExplorationTelemetry::csv_header());
  EXPECT_EQ(static_cast<std::size_t>(
                std::count(line.begin(), line.end(), ',')),
            12u);  // 13 columns
  std::size_t rows = 0;
  while (std::getline(lines, line)) {
    EXPECT_EQ(std::count(line.begin(), line.end(), ','), 12);
    ++rows;
  }
  EXPECT_EQ(rows, points.size());
}

// --- integration ----------------------------------------------------------

/// Names of the `stage:*` spans in `events`, in first-seen order.
std::vector<std::string> stage_spans(const std::vector<TraceEvent>& events) {
  std::vector<std::string> names;
  for (const TraceEvent& e : events)
    if (e.kind == EventKind::kSpan && e.name.rfind("stage:", 0) == 0 &&
        std::find(names.begin(), names.end(), e.name) == names.end())
      names.push_back(e.name);
  std::sort(names.begin(), names.end());
  return names;
}

TEST(DesignFlowTraceTest, StageSpansAppear) {
  Tracer& tracer = Tracer::global();
  Counter& portfolio_flows =
      MetricsRegistry::global().counter("isex_portfolio_flows_total");
  tracer.reset();
  tracer.set_enabled(true);
  const auto program = bench_suite::make_program(
      bench_suite::Benchmark::kCrc32, bench_suite::OptLevel::kO3);
  flow::FlowConfig config;
  config.machine = sched::MachineConfig::make(2, {6, 3});
  config.repeats = 2;
  config.seed = 99;
  runtime::ThreadPool& pool = runtime::ThreadPool::default_pool();
  // The default pool keeps its sections for its lifetime: count the
  // exploration batches before and after.
  const auto batches = [&pool] {
    const std::vector<runtime::SectionProfile> sections = pool.sections();
    const auto it = std::find_if(
        sections.begin(), sections.end(),
        [](const runtime::SectionProfile& s) {
          return s.name == "flow.explore_hot_blocks";
        });
    return it == sections.end() ? std::uint64_t{0} : it->invocations;
  };
  const std::uint64_t batches_before = batches();
  pool.set_profiling(true);
  const double flows_before = portfolio_flows.value();
  flow::run_design_flow(program, hw::HwLibrary::paper_default(), config);
  const double flows_after = portfolio_flows.value();
  tracer.set_enabled(false);
  const auto events = tracer.snapshot();
  tracer.reset();

  const auto has_span = [&](std::string_view name) {
    return std::any_of(events.begin(), events.end(), [&](const TraceEvent& e) {
      return e.kind == EventKind::kSpan && e.name == name;
    });
  };
  EXPECT_TRUE(has_span("stage:validation"));
  EXPECT_TRUE(has_span("stage:profiling"));
  EXPECT_TRUE(has_span("stage:exploration"));
  EXPECT_TRUE(has_span("stage:selection"));
  EXPECT_TRUE(has_span("stage:replacement"));
  EXPECT_TRUE(has_span("mi_explore"));
  EXPECT_TRUE(has_span("ant_walk"));
  // The portfolio metrics belong to run_portfolio_flow alone.
  EXPECT_EQ(flows_after, flows_before);

  // A two-program portfolio runs the same pipeline: the same stage spans.
  std::vector<flow::PortfolioEntry> entries(2);
  entries[0].program = program;
  entries[1].program = bench_suite::make_program(
      bench_suite::Benchmark::kFft, bench_suite::OptLevel::kO3);
  entries[1].weight = 2.0;
  flow::PortfolioConfig portfolio;
  portfolio.base = config;
  tracer.set_enabled(true);
  flow::run_portfolio_flow(entries, hw::HwLibrary::paper_default(),
                           portfolio);
  tracer.set_enabled(false);
  pool.set_profiling(false);
  const auto portfolio_events = tracer.snapshot();
  tracer.reset();
  EXPECT_EQ(stage_spans(portfolio_events), stage_spans(events));
  EXPECT_EQ(portfolio_flows.value(), flows_after + 1.0);

  // Both flows record their exploration batch as one pool-profile section.
  EXPECT_EQ(batches(), batches_before + 2);
}

}  // namespace
}  // namespace isex::trace
