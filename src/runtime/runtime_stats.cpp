#include "runtime/runtime_stats.hpp"

#include <ostream>
#include <string_view>

#include "trace/trace.hpp"

namespace isex::runtime {

void RuntimeStats::print(std::ostream& out) const {
  out << "runtime: " << pool.threads << " thread(s), " << pool.jobs_run
      << " job(s), " << pool.steals << " steal(s)\n";
  const std::uint64_t probes = schedule_cache.hits + schedule_cache.misses;
  out << "schedule cache: " << schedule_cache.hits << " hit(s) / " << probes
      << " probe(s)";
  if (probes > 0) {
    out << " (" << static_cast<int>(schedule_cache.hit_rate() * 100.0 + 0.5)
        << "% hit rate)";
  }
  out << ", " << schedule_cache.evictions << " eviction(s)\n";
  for (const auto& [stage, seconds] : stages) {
    out << "stage " << stage << ": " << seconds << " s\n";
  }
}

void RuntimeStats::publish(trace::MetricsRegistry& registry) const {
  registry.gauge("isex_pool_threads").set(pool.threads);
  registry.gauge("isex_pool_jobs").set(static_cast<double>(pool.jobs_run));
  registry.gauge("isex_pool_steals").set(static_cast<double>(pool.steals));
  registry.gauge("isex_schedule_cache_hit_rate")
      .set(schedule_cache.hit_rate());
  registry.gauge("isex_schedule_cache_probes")
      .set(static_cast<double>(schedule_cache.hits + schedule_cache.misses));
  for (const auto& [stage, seconds] : stages) {
    registry.gauge("isex_stage_seconds", {{"stage", stage}}).set(seconds);
  }
}

void StageTimes::record(const std::string& stage, double seconds) {
  // Stream into the process-wide registry first (monotonic counter: reset()
  // below clears this instance's report, not the metric history).
  trace::MetricsRegistry::global()
      .counter("isex_stage_seconds_total", {{"stage", stage}})
      .inc(seconds);
  std::lock_guard<std::mutex> lock(mutex_);
  for (auto& [name, total] : stages_) {
    if (name == stage) {
      total += seconds;
      return;
    }
  }
  stages_.emplace_back(stage, seconds);
}

std::vector<std::pair<std::string, double>> StageTimes::snapshot() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return stages_;
}

void StageTimes::reset() {
  std::lock_guard<std::mutex> lock(mutex_);
  stages_.clear();
}

StageTimes& stage_times() {
  static StageTimes times;
  return times;
}

StageTimer::StageTimer(std::string stage)
    : stage_(std::move(stage)), start_(std::chrono::steady_clock::now()) {
  trace::Tracer& tracer = trace::Tracer::global();
  if (tracer.enabled()) {
    traced_ = true;
    trace_start_us_ = tracer.now_us();
    // Join the context tree: parent under the ambient context (the CLI
    // run's or server job's root span) and become the current context so
    // pool tasks fanned out during this stage nest under the stage span.
    span_id_ = trace::mint_span_id();
    parent_ = trace::current_context();
    trace::exchange_current_context(
        trace::TraceContext{parent_.trace_id, span_id_});
  }
}

StageTimer::~StageTimer() {
  const auto elapsed = std::chrono::steady_clock::now() - start_;
  if (traced_) {
    trace::exchange_current_context(parent_);
    trace::Tracer& tracer = trace::Tracer::global();
    tracer.record_span("stage:" + stage_, trace_start_us_,
                       tracer.now_us() - trace_start_us_, parent_.trace_id,
                       span_id_, parent_.span_id);
  }
  stage_times().record(
      stage_, std::chrono::duration<double>(elapsed).count());
}

RuntimeStats collect_runtime_stats(const ThreadPool& pool) {
  RuntimeStats stats;
  stats.pool = pool.stats();
  // Every EvalCache, the process cache and each flow's private one alike,
  // feeds these counters, so the report covers all of them.
  trace::MetricsRegistry& registry = trace::MetricsRegistry::global();
  const auto total = [&](std::string_view name) {
    return static_cast<std::uint64_t>(registry.counter(name).value());
  };
  stats.schedule_cache.hits = total("isex_schedule_cache_hits_total");
  stats.schedule_cache.misses = total("isex_schedule_cache_misses_total");
  stats.schedule_cache.insertions =
      total("isex_schedule_cache_insertions_total");
  stats.schedule_cache.evictions = total("isex_schedule_cache_evictions_total");
  stats.stages = stage_times().snapshot();
  return stats;
}

}  // namespace isex::runtime
