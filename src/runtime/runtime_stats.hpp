// Runtime observability: one struct that snapshots everything the parallel
// pipeline did — jobs executed, steal traffic, schedule-cache efficiency,
// and named per-stage wall times — plus the RAII timer that feeds it.
// Benches print this after every sweep so a perf regression (or a cache
// that stopped hitting) is visible in the output, not just in wall clock.
#pragma once

#include <chrono>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <utility>
#include <vector>

#include "runtime/eval_cache.hpp"
#include "runtime/thread_pool.hpp"
#include "trace/metrics.hpp"
#include "trace/trace.hpp"

namespace isex::runtime {

struct RuntimeStats {
  PoolStats pool;
  CacheStats schedule_cache;
  /// (stage name, accumulated seconds), in first-recorded order.
  std::vector<std::pair<std::string, double>> stages;

  void print(std::ostream& out) const;

  /// Mirrors this snapshot into `registry` as point-in-time gauges
  /// (isex_pool_threads, isex_schedule_cache_hit_rate, ...), alongside the
  /// live counters the pool/cache/stage hooks stream on their own — so a
  /// Prometheus snapshot and a printed/JSON report agree by construction.
  void publish(trace::MetricsRegistry& registry) const;
};

/// Accumulates wall time into named stages (thread-safe).  Every record()
/// also feeds the process-wide metrics registry's
/// isex_stage_seconds_total{stage="..."} counter, so stage wall time is
/// machine-readable from any Prometheus snapshot, not just print().
class StageTimes {
 public:
  void record(const std::string& stage, double seconds);
  std::vector<std::pair<std::string, double>> snapshot() const;
  void reset();

 private:
  mutable std::mutex mutex_;
  std::vector<std::pair<std::string, double>> stages_;
};

/// Process-wide stage-time registry (what collect_runtime_stats reports).
StageTimes& stage_times();

/// RAII: adds the scope's wall time to stage_times() under `stage` and,
/// when the global tracer is enabled, records a `stage:<name>` span that
/// participates in context propagation — it parents under the thread's
/// current TraceContext (the CLI run / server job root) and is itself the
/// current context while open, so pool tasks fanned out inside the stage
/// nest under it.
class StageTimer {
 public:
  explicit StageTimer(std::string stage);
  ~StageTimer();

  StageTimer(const StageTimer&) = delete;
  StageTimer& operator=(const StageTimer&) = delete;

 private:
  std::string stage_;
  std::chrono::steady_clock::time_point start_;
  std::uint64_t trace_start_us_ = 0;
  std::uint64_t span_id_ = 0;
  trace::TraceContext parent_;
  bool traced_ = false;
};

/// Snapshot of `pool`, the isex_schedule_cache_*_total counters every
/// EvalCache feeds, and the global stage times.
RuntimeStats collect_runtime_stats(const ThreadPool& pool);

}  // namespace isex::runtime
