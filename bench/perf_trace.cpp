// Observability overhead micro-benchmarks (google-benchmark).
//
// Two questions, matching the trace layer's cost model (src/trace/trace.hpp):
//
//  1. What do the hooks cost when *no* sink is configured?  BM_SpanDisabled
//     is the answer for tracing (one relaxed load + branch) and
//     BM_CounterInc / BM_HistogramObserve for metrics (one atomic RMW —
//     metrics are always live, there is no off switch to pay for).
//  2. What does turning tracing *on* cost?  BM_SpanEnabled measures one
//     clock-pair + buffered append; BM_ExploreBlock/off vs /on shows the
//     end-to-end effect on a real exploration.
//
// The acceptance bar is on BM_ExploreBlock/off: with the tracer disabled a
// traced build must stay within 2% of the pre-instrumentation explorer
// (perf_explorer's BM_ExploreBlock is the same workload, params, and seed —
// compare against a pre-trace checkout to regress the claim).
#include <benchmark/benchmark.h>

#include <cstdint>

#include "core/mi_explorer.hpp"
#include "test_util.hpp"
#include "trace/metrics.hpp"
#include "trace/trace.hpp"
#include "util/rng.hpp"

namespace {

using namespace isex;

// --- hook costs -----------------------------------------------------------

void BM_SpanDisabled(benchmark::State& state) {
  trace::Tracer tracer;  // enabled_ == false: ctor is a load, dtor a null test
  for (auto _ : state) {
    const trace::Span span("bench.disabled", tracer);
    benchmark::DoNotOptimize(&span);
  }
}
BENCHMARK(BM_SpanDisabled);

void BM_SpanEnabled(benchmark::State& state) {
  trace::Tracer tracer;
  tracer.set_enabled(true);
  std::uint64_t n = 0;
  for (auto _ : state) {
    const trace::Span span("bench.enabled", tracer);
    benchmark::DoNotOptimize(&span);
    // Bound buffer growth; the amortised clear is noise next to the clock
    // reads being measured.
    if ((++n & 0xFFFF) == 0) tracer.reset();
  }
}
BENCHMARK(BM_SpanEnabled);

void BM_InstantEnabled(benchmark::State& state) {
  trace::Tracer tracer;
  tracer.set_enabled(true);
  std::uint64_t n = 0;
  for (auto _ : state) {
    tracer.record_instant("bench.instant");
    if ((++n & 0xFFFF) == 0) tracer.reset();
  }
}
BENCHMARK(BM_InstantEnabled);

void BM_CounterInc(benchmark::State& state) {
  trace::MetricsRegistry registry;
  trace::Counter& counter = registry.counter("bench_counter_total");
  for (auto _ : state) counter.inc();
  benchmark::DoNotOptimize(counter.value());
}
BENCHMARK(BM_CounterInc);

void BM_GaugeSet(benchmark::State& state) {
  trace::MetricsRegistry registry;
  trace::Gauge& gauge = registry.gauge("bench_gauge");
  double v = 0.0;
  for (auto _ : state) gauge.set(v += 1.0);
  benchmark::DoNotOptimize(gauge.value());
}
BENCHMARK(BM_GaugeSet);

void BM_HistogramObserve(benchmark::State& state) {
  trace::MetricsRegistry registry;
  trace::Histogram& hist =
      registry.histogram("bench_hist", {4, 8, 16, 32, 64, 128, 256, 512});
  double v = 0.0;
  for (auto _ : state) {
    hist.observe(v);
    v = v < 600.0 ? v + 1.0 : 0.0;
  }
  benchmark::DoNotOptimize(hist.count());
}
BENCHMARK(BM_HistogramObserve);

// --- end to end -----------------------------------------------------------

/// Same workload as perf_explorer's BM_ExploreBlock (seed 5, 40 iterations,
/// (6/3, 2IS) machine) so the off-variant is directly comparable with the
/// pre-instrumentation baseline.
void explore_block(benchmark::State& state, bool tracing) {
  Rng dag_rng(5);
  const dfg::Graph g = testing::make_random_dag(
      static_cast<std::size_t>(state.range(0)), dag_rng);
  const auto machine = sched::MachineConfig::make(2, {6, 3});
  isa::IsaFormat format;
  format.reg_file = machine.reg_file;
  core::ExplorerParams params;
  params.max_iterations = 40;  // bounded for benchmarking
  const core::MultiIssueExplorer explorer(machine, format,
                                          hw::HwLibrary::paper_default(),
                                          params);
  trace::Tracer::global().set_enabled(tracing);
  for (auto _ : state) {
    Rng rng(7);
    benchmark::DoNotOptimize(explorer.explore(g, rng));
    if (tracing) trace::Tracer::global().reset();
  }
  trace::Tracer::global().set_enabled(false);
  trace::Tracer::global().reset();
}

void BM_ExploreBlock_TracingOff(benchmark::State& state) {
  explore_block(state, false);
}
BENCHMARK(BM_ExploreBlock_TracingOff)->Arg(64)->Arg(100)
    ->Unit(benchmark::kMillisecond);

void BM_ExploreBlock_TracingOn(benchmark::State& state) {
  explore_block(state, true);
}
BENCHMARK(BM_ExploreBlock_TracingOn)->Arg(64)->Arg(100)
    ->Unit(benchmark::kMillisecond);

}  // namespace
