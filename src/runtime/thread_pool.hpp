// Thread pool of ordered task groups — the execution substrate of
// isex_runtime.
//
// Design:
//   * parallel_for() fans one body over [0, n) as one ordered task group:
//     every index is claimed from one shared cursor in ascending order.
//     The call posts its group to one mutex-guarded FIFO of open groups,
//     wakes up to min(n - 1, num_threads()) workers and claims indices
//     itself.  A batch listed largest first therefore starts its longest
//     items first, whichever threads are free;
//   * an idle worker claims from the oldest group that still has unclaimed
//     indices, until that group's cursor runs out;
//   * once the cursor is exhausted the caller blocks until its in-flight
//     indices finish; it never runs an index of another group, so
//     concurrent callers (server workers) never run each other's work;
//   * each claimed index is one task in every count (stats().jobs_run, the
//     per-worker occupancy, the task-duration histogram);
//   * a parallel_for issued while the calling thread runs a task — of any
//     pool, on a worker or on a caller claiming its own group — runs
//     inline.  Nested fan-outs (a batch of explorations whose candidate
//     evaluation fans out again) degrade to a serial loop inside the task
//     instead of deadlocking a busy pool.
//
// Determinism: the pool itself guarantees nothing about which thread runs
// an index or when — determinism of results is the fan-out layer's job (see
// job_graph.hpp): it derives per-job RNG streams serially before the
// fan-out and reduces results by index, so any interleaving yields
// bit-identical output.
//
// Sizing: ThreadPool(0) and the process-wide default_pool() use
// default_jobs(): the ISEX_JOBS environment variable if set, else
// std::thread::hardware_concurrency().  tools/isex --jobs N overrides it.
#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <vector>

#include "runtime/pool_profile.hpp"
#include "trace/metrics.hpp"

namespace isex::runtime {

/// Counters a pool accumulates over its lifetime (see RuntimeStats).
struct PoolStats {
  std::uint64_t jobs_run = 0;
  /// Always 0: every worker claims from the one FIFO of groups, so no task
  /// moves between workers.  Kept only because perfbench's PoolWindow
  /// reads it.
  std::uint64_t steals = 0;
  int threads = 0;
};

/// Wall time and index durations of one profiled parallel_for, in ns.
struct ParallelTiming {
  std::uint64_t wall_ns = 0;
  std::uint64_t task_ns_sum = 0;
  std::uint64_t task_ns_max = 0;
};

class ThreadPool {
 public:
  /// Task-duration histogram bucket bounds, microseconds, shared by every
  /// pool: log-spaced from 50 µs (around the cheapest candidate-eval tasks)
  /// to 1 s.  The +Inf bucket is implicit.
  static constexpr std::array<double, 13> kTaskDurationBoundsUs{
      50,    100,   250,   500,    1000,   2500,   5000,
      10000, 25000, 50000, 100000, 250000, 1000000};

  /// `threads` <= 0 selects default_jobs().
  explicit ThreadPool(int threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int num_threads() const { return static_cast<int>(threads_.size()); }

  /// Runs body(0) … body(n-1) and blocks until all completed.
  ///   * Queued, when the calling thread runs no task and n >= 2: one
  ///     ordered group.  The call wakes up to min(n - 1, num_threads())
  ///     workers; free workers and the caller claim the indices in
  ///     ascending order, and the caller then waits for the indices others
  ///     still run.  Every index runs even if some throw; the first
  ///     exception by completion order is rethrown.
  ///   * Inline, when the calling thread runs a task of any pool or
  ///     n <= 1: a serial loop in index order that stops at the first
  ///     throwing index and lets its exception propagate.
  /// When the pool was profiling at entry, returns the fan-out's wall time
  /// and the sum and maximum of its index durations (the Amdahl
  /// attribution in pool_profile.hpp).  A queued index is timed by the two
  /// clock reads that feed its occupancy sample; an inline body is timed
  /// only for this result.  Returns nothing and reads no clock otherwise.
  std::optional<ParallelTiming> parallel_for(
      std::size_t n, const std::function<void(std::size_t)>& body);

  PoolStats stats() const;

  /// Occupancy profiling (see pool_profile.hpp).  Off by default: an index
  /// or a wait then costs no clock read.  When on, a queued index pays two
  /// steady_clock reads plus a handful of relaxed atomic adds, and a
  /// worker's wait for a group counts as idle from its start, or from the
  /// moment profiling was turned on if it began earlier; occupancy()
  /// includes a wait still in progress.  A group records its indices'
  /// samples if the pool was profiling when it was posted, each before it
  /// counts its group down, so the counters are complete when parallel_for
  /// returns.  Counters accumulate across toggles.
  void set_profiling(bool enabled);
  bool profiling() const {
    return profiling_.load(std::memory_order_relaxed);
  }

  /// Per-worker occupancy snapshot: num_threads() + 1 entries, the last
  /// being the synthetic slot for external threads claiming the indices of
  /// their own parallel_for.
  std::vector<WorkerOccupancy> occupancy() const;

  /// Per-bucket counts (kTaskDurationBoundsUs.size() + 1 entries).
  std::vector<std::uint64_t> task_duration_counts() const;
  /// Profiled indices and their summed durations, over every slot.
  std::uint64_t profiled_task_count() const;
  double profiled_task_seconds() const;

  /// Process-wide shared pool, created on first use with default_jobs()
  /// threads.
  static ThreadPool& default_pool();

  /// Resizes the default pool (recreating it if already built).  Drives the
  /// --jobs CLI flag; jobs <= 0 restores default_jobs().
  static void set_default_jobs(int jobs);

  /// ISEX_JOBS env var if positive, else hardware_concurrency (min 1).
  static int default_jobs();

 private:
  /// One worker's profiling accounting; heap-allocated so the atomics sit
  /// on their own cache lines.  The slot at index num_threads() aggregates
  /// external threads.
  struct ProfSlot {
    std::atomic<std::uint64_t> tasks{0};
    std::atomic<std::uint64_t> busy_ns{0};
    // Guarded by mutex_: the worker's counted idle time, whether it waits
    // for a group now, and since when that wait counts (set exactly while
    // it waits and the pool profiles).
    std::uint64_t idle_ns = 0;
    bool waiting = false;
    std::optional<std::chrono::steady_clock::time_point> idle_since;
  };

  /// One posted parallel_for: its cursor, join, first error and the
  /// poster's trace context (defined in thread_pool.cpp).
  struct Group;

  void worker_loop(int self);
  /// Claims and runs `group`'s indices until its cursor is exhausted, each
  /// as one counted task.  `self` is the worker's index, -1 for the caller.
  void claim_indices(Group& group, int self);
  /// Removes `group` from the open groups if it is still there.
  void retire(const Group& group);
  void record_profiled_index(Group& group, int self, std::uint64_t ns);

  /// True on a thread while it runs an index of any pool: a parallel_for
  /// issued then runs inline.  Indices never nest: claim_indices is entered
  /// only by a worker loop or by a parallel_for that runs no index.
  static thread_local bool in_task_;

  std::vector<std::thread> threads_;
  /// Process-wide metrics mirrored alongside the per-pool atomics: resolved
  /// once here so an index pays a plain atomic add, not a registry lookup.
  trace::Counter* jobs_metric_;
  /// Live copy of the task-duration histogram (seconds buckets) so /metrics
  /// shows task timings without an explicit PoolProfile publish.
  trace::Histogram* task_seconds_metric_;
  /// Guards groups_, stop_, profiling_ changes and the slots' idle state.
  mutable std::mutex mutex_;
  std::condition_variable wake_;
  /// Open groups, oldest first.  A group leaves when a thread that claimed
  /// from it finds its cursor exhausted.
  std::vector<std::shared_ptr<Group>> groups_;
  bool stop_ = false;
  std::atomic<std::uint64_t> jobs_run_{0};
  std::atomic<bool> profiling_{false};
  std::vector<std::unique_ptr<ProfSlot>> prof_slots_;  ///< threads + 1
  static constexpr std::size_t kTaskBins = kTaskDurationBoundsUs.size() + 1;
  std::array<std::atomic<std::uint64_t>, kTaskBins> task_bins_{};
};

}  // namespace isex::runtime
