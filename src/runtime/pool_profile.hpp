// Pool occupancy profiler — where the wall-clock of a parallel run goes.
//
// Three views, all cheap enough to leave on for a whole server lifetime
// (profiling adds two steady_clock reads per task; with profiling off a
// task reads no clock):
//
//   * per-worker occupancy: busy/idle time and task count for every pool
//     worker plus one synthetic "external" slot for threads claiming the
//     indices of their own parallel_for;
//   * a task-duration histogram (fixed log-spaced microsecond buckets) fed
//     live into MetricsRegistry as `isex_pool_task_seconds` and snapshotted
//     into the PoolProfile artifact;
//   * per-parallel-section Amdahl attribution: the job_graph.hpp fan-outs
//     measure the serial stream-derivation time, the parallel-region wall
//     time, and the sum/max of task body durations for each labelled
//     section, so a report can say "section X is 34% serial" or "section
//     Y's slowest task is 2.1x its mean task" from numbers, not guesses.
//     How evenly the threads were loaded is the per-worker busy spread and
//     occupancy, not a section number.
//
// collect_pool_profile() snapshots all three into a PoolProfile, which can
// publish gauges to a MetricsRegistry and/or serialize to the PoolProfile
// JSON artifact consumed by tools/trace_report.py.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "trace/metrics.hpp"

namespace isex::runtime {

class ThreadPool;

/// One worker's lifetime accounting.  The last entry of
/// PoolProfile::workers is the synthetic "external" slot (threads that are
/// not pool workers claiming the indices of their own parallel_for); its
/// idle time is always zero because external threads only borrow the pool.
/// A caller claims only while it runs no task, so tasks never nest and each
/// one's time counts once: a caller's share of the external busy time never
/// exceeds the wall time of its parallel_for.
struct WorkerOccupancy {
  std::uint64_t tasks = 0;
  double busy_seconds = 0.0;
  double idle_seconds = 0.0;
  /// busy / (busy + idle); zero when the worker never ran while profiled.
  double occupancy() const {
    const double total = busy_seconds + idle_seconds;
    return total > 0.0 ? busy_seconds / total : 0.0;
  }
};

/// Aggregated measurements for one labelled parallel section (all
/// invocations of that label merged).
struct SectionProfile {
  std::string name;
  std::uint64_t invocations = 0;
  std::uint64_t tasks = 0;
  /// Serial setup measured before the fan-out (RNG stream derivation and
  /// anything else that must happen on the submitting thread).
  double serial_seconds = 0.0;
  /// Wall time of the parallel region (submission to join).
  double wall_seconds = 0.0;
  /// Sum of task body durations — the "work" in the Amdahl sense.  A body
  /// runs any fan-out nested in it inline, so its duration is its own work
  /// and never includes another task (another exploration) picked up while
  /// it waited.
  double task_seconds = 0.0;
  /// Slowest single task body across every invocation.
  double max_task_seconds = 0.0;

  /// Measured serial fraction of this section: serial / (serial + wall).
  double serial_fraction() const {
    const double total = serial_seconds + wall_seconds;
    return total > 0.0 ? serial_seconds / total : 0.0;
  }
  /// Slowest task vs the mean task: how much task sizes vary, 1.0 when
  /// every task took the same time.  It says nothing of how evenly threads
  /// were loaded (a largest-first batch can read 4 with every thread busy
  /// to the end); that is the per-worker busy spread and occupancy.
  double imbalance() const {
    if (tasks == 0 || task_seconds <= 0.0) return 0.0;
    const double mean = task_seconds / static_cast<double>(tasks);
    return mean > 0.0 ? max_task_seconds / mean : 0.0;
  }
};

/// Snapshot of one pool's profiling state plus the process-wide section
/// registry.  Produced by collect_pool_profile().
struct PoolProfile {
  int threads = 0;
  bool profiled = false;  ///< was profiling enabled when collected
  std::vector<WorkerOccupancy> workers;  ///< size threads + 1 (external)
  /// Task-duration histogram: bounds in microseconds, counts has
  /// bounds.size() + 1 entries (last is +Inf).
  std::vector<double> task_bounds_us;
  std::vector<std::uint64_t> task_counts;
  std::uint64_t task_count = 0;
  double task_seconds_total = 0.0;
  std::vector<SectionProfile> sections;

  /// The PoolProfile JSON artifact (single object, stable key order).
  void write_json(std::ostream& out) const;
  /// Mirrors the snapshot into gauges:
  /// isex_pool_worker_{busy,idle}_seconds{worker=...},
  /// isex_pool_worker_occupancy{worker=...}, and per-section
  /// isex_pool_section_{serial_fraction,wall_seconds,...}{section=...}.
  void publish(trace::MetricsRegistry& registry) const;
};

/// Snapshots `pool`'s occupancy/histogram state and the global section
/// registry.  Safe to call while the pool is running.
PoolProfile collect_pool_profile(const ThreadPool& pool);

/// Merges one parallel-section invocation into the process-wide registry
/// (keyed by name).  Called by fanout_streams() (job_graph.hpp) when the
/// pool is profiling; durations in nanoseconds.
void record_parallel_section(const char* name, std::uint64_t serial_ns,
                             std::uint64_t wall_ns, std::uint64_t tasks,
                             std::uint64_t task_ns_sum,
                             std::uint64_t task_ns_max);

/// Snapshot / clear of the process-wide section registry (clearing is for
/// tests and benches that re-profile from a clean slate).
std::vector<SectionProfile> parallel_sections_snapshot();
void reset_parallel_sections();

}  // namespace isex::runtime
