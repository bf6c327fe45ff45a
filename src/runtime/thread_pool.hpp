// Work-stealing thread pool — the execution substrate of isex_runtime.
//
// Design:
//   * one mutex-guarded deque per worker; owners pop LIFO (cache-warm),
//     idle workers steal FIFO from the front of the others' deques;
//   * submit() round-robins tasks across worker deques and returns a
//     std::future;
//   * parallel_for() fans one body over [0, n) as one ordered task group:
//     every index is claimed from one shared cursor in ascending order, by
//     up to num_threads() claimer tasks posted to the workers and by the
//     calling thread itself.  A batch listed largest first therefore starts
//     its longest items first, whichever threads are free.  Once the cursor
//     is exhausted the caller blocks until its in-flight indices finish; it
//     never runs a task of another group or a submit() task, so concurrent
//     callers (server workers) never run each other's work;
//   * each claimed index is one task in every count (stats().jobs_run, the
//     per-worker occupancy, the task-duration histogram); a claimer task
//     itself counts nothing;
//   * a parallel_for issued while the calling thread runs a task — of any
//     pool, on a worker or on a caller claiming its own group — runs
//     inline.  Nested fan-outs (a batch of explorations whose candidate
//     evaluation fans out again) degrade to a serial loop inside the task
//     instead of deadlocking a busy pool.
//
// Determinism: the pool itself guarantees nothing about which thread runs
// an index or when — determinism of results is the fan-out layer's job (see
// job_graph.hpp): it derives per-job RNG streams serially before submission
// and reduces results by index, so any interleaving yields bit-identical
// output.
//
// Sizing: ThreadPool(0) and the process-wide default_pool() use
// default_jobs(): the ISEX_JOBS environment variable if set, else
// std::thread::hardware_concurrency().  tools/isex --jobs N overrides it.
#pragma once

#include <array>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <type_traits>
#include <vector>

#include "runtime/pool_profile.hpp"
#include "trace/metrics.hpp"

namespace isex::runtime {

/// Counters a pool accumulates over its lifetime (see RuntimeStats).
struct PoolStats {
  std::uint64_t jobs_run = 0;
  /// Tasks a worker ran from another worker's deque: stolen submit() tasks
  /// plus the indices claimed through a stolen parallel_for claimer.  A
  /// caller claiming its own group never steals.
  std::uint64_t steals = 0;
  int threads = 0;
};

class ThreadPool {
 public:
  /// `threads` <= 0 selects default_jobs().
  explicit ThreadPool(int threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int num_threads() const { return static_cast<int>(workers_.size()); }

  /// Schedules `fn` and returns its future.  Exceptions thrown by `fn`
  /// surface from future::get().
  template <typename Fn>
  auto submit(Fn&& fn) -> std::future<std::invoke_result_t<Fn&>> {
    using R = std::invoke_result_t<Fn&>;
    auto task =
        std::make_shared<std::packaged_task<R()>>(std::forward<Fn>(fn));
    std::future<R> future = task->get_future();
    enqueue([this, task](int self, bool stolen) {
      run_task(self, stolen, [&task]() { (*task)(); });
    });
    return future;
  }

  /// Runs body(0) … body(n-1) and blocks until all completed.
  ///   * Queued, when the calling thread runs no task: one ordered group.
  ///     min(n - 1, num_threads()) claimer tasks and the caller claim the
  ///     indices in ascending order; the caller then waits for the indices
  ///     others still run.  Every index runs even if some throw; the first
  ///     exception by completion order is rethrown.
  ///   * Inline, when the calling thread runs a task of any pool (see
  ///     running_task()) or n == 1: a serial loop in index order that stops
  ///     at the first throwing index and lets its exception propagate.
  void parallel_for(std::size_t n,
                    const std::function<void(std::size_t)>& body);

  /// True while the calling thread runs a task of any ThreadPool.  A
  /// parallel_for issued then runs inline.
  static bool running_task();

  PoolStats stats() const;

  /// Occupancy profiling (see pool_profile.hpp).  Off by default: each
  /// task then costs one extra relaxed load and two thread-local stores.
  /// When on, a task pays two steady_clock reads plus a handful of relaxed
  /// atomic adds, and idle workers time their waits.  A parallel_for index
  /// records its sample before it counts its group down, so the counters
  /// are complete when parallel_for returns.  Counters accumulate across
  /// toggles.
  void set_profiling(bool enabled) {
    profiling_.store(enabled, std::memory_order_relaxed);
  }
  bool profiling() const {
    return profiling_.load(std::memory_order_relaxed);
  }

  /// Per-worker occupancy snapshot: num_threads() + 1 entries, the last
  /// being the synthetic slot for external threads claiming the indices of
  /// their own parallel_for.
  std::vector<WorkerOccupancy> occupancy() const;

  /// Task-duration histogram bucket bounds, microseconds (shared by every
  /// pool; the +Inf bucket is implicit).
  static const std::vector<double>& task_duration_bounds_us();
  /// Per-bucket counts (task_duration_bounds_us().size() + 1 entries).
  std::vector<std::uint64_t> task_duration_counts() const;
  std::uint64_t profiled_task_count() const {
    return prof_task_count_.load(std::memory_order_relaxed);
  }
  double profiled_task_seconds() const {
    return static_cast<double>(
               prof_task_ns_.load(std::memory_order_relaxed)) *
           1e-9;
  }

  /// Process-wide shared pool, created on first use with default_jobs()
  /// threads.
  static ThreadPool& default_pool();

  /// Resizes the default pool (recreating it if already built).  Drives the
  /// --jobs CLI flag; jobs <= 0 restores default_jobs().
  static void set_default_jobs(int jobs);

  /// ISEX_JOBS env var if positive, else hardware_concurrency (min 1).
  static int default_jobs();

 private:
  /// A queued unit of work — a submit() task or a parallel_for claimer —
  /// called with the running worker's index and whether it came from
  /// another worker's deque.
  using Task = std::function<void(int self, bool stolen)>;

  struct Worker {
    std::deque<Task> queue;
    std::mutex mutex;
  };

  /// One worker's profiling accounting; heap-allocated so the atomics sit
  /// on their own cache lines relative to the deque mutexes.  The slot at
  /// index num_threads() aggregates external threads.
  struct ProfSlot {
    std::atomic<std::uint64_t> tasks{0};
    std::atomic<std::uint64_t> steals{0};
    std::atomic<std::uint64_t> busy_ns{0};
    std::atomic<std::uint64_t> idle_ns{0};
  };

  /// One queued parallel_for's cursor and join (defined in thread_pool.cpp).
  struct Group;

  void enqueue(Task task);
  /// Pops one queued task and runs it; false when every deque was empty.
  /// `self` is the running worker's index.
  bool run_one(int self);
  void worker_loop(int index);
  /// Runs `fn` as one counted task: jobs and steals, the running-task
  /// marker, and the profile sample when profiling.
  void run_task(int self, bool stolen, const std::function<void()>& fn);
  /// Claims and runs `group`'s indices until its cursor is exhausted.
  void claim_indices(Group& group, int self, bool stolen);
  void record_profiled_task(int self, bool stolen, std::uint64_t ns);
  /// True on a thread while it runs a task; the marker running_task()
  /// tests.  Tasks never nest: run_task is entered only by a worker loop or
  /// by a parallel_for that runs no task.
  static thread_local bool in_task_;

  std::vector<std::unique_ptr<Worker>> workers_;
  std::vector<std::thread> threads_;
  /// Process-wide metrics mirrored alongside the per-pool atomics: resolved
  /// once here so run_one() pays a plain atomic add, not a registry lookup.
  trace::Counter* jobs_metric_;
  trace::Counter* steals_metric_;
  /// Live copy of the task-duration histogram (seconds buckets) so /metrics
  /// shows task timings without an explicit PoolProfile publish.
  trace::Histogram* task_seconds_metric_;
  std::mutex wake_mutex_;
  std::condition_variable wake_cv_;
  std::atomic<std::size_t> pending_{0};
  std::atomic<std::uint64_t> next_worker_{0};
  std::atomic<std::uint64_t> jobs_run_{0};
  std::atomic<std::uint64_t> steals_{0};
  std::atomic<bool> stop_{false};
  std::atomic<bool> profiling_{false};
  std::vector<std::unique_ptr<ProfSlot>> prof_slots_;  ///< threads + 1
  /// Task-duration bins: task_duration_bounds_us().size() + 1 (+Inf last).
  static constexpr std::size_t kTaskBins = 14;
  std::array<std::atomic<std::uint64_t>, kTaskBins> task_bins_{};
  std::atomic<std::uint64_t> prof_task_count_{0};
  std::atomic<std::uint64_t> prof_task_ns_{0};
};

}  // namespace isex::runtime
