// Deterministic job fan-out over a ThreadPool.
//
// Two layers:
//
//   * deterministic_fanout() — the contract the exploration pipeline relies
//     on.  Stochastic jobs are parallelized by (1) deriving one child RNG
//     stream per job *serially on the calling thread*, in exactly the order
//     the serial code would have called rng.split(), then (2) running the
//     jobs concurrently in any order, and (3) collecting results by job
//     index.  Because each job touches only its own pre-derived stream and
//     its own result slot, the output — and the caller's RNG end state — is
//     bit-identical to the serial loop at any thread count.
//
//   * JobGraph — explicit dependencies between named jobs, executed in
//     topological waves on a pool.  A job whose prerequisite failed is
//     skipped; run() rethrows the first failure after the graph drains.
//     Used by sweep harnesses whose reduce steps consume many explore jobs.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "runtime/pool_profile.hpp"
#include "runtime/thread_pool.hpp"
#include "util/rng.hpp"

namespace isex::runtime {

/// Runs fn(i, stream_i) for i in [0, n) on `pool` and returns the results in
/// index order.  stream_i is the i-th child of `rng` exactly as n serial
/// rng.split() calls would produce (and `rng` advances identically).
///
/// When `pool` has profiling on, the fan-out is measured as one parallel
/// section under `section` (serial stream-derivation time vs parallel wall
/// time vs per-task body durations — the Amdahl attribution in
/// pool_profile.hpp).  Instrumentation never touches `rng` or the streams,
/// so results stay bit-identical whether profiling is on or off.
template <typename Fn>
auto deterministic_fanout(ThreadPool& pool, Rng& rng, std::size_t n, Fn fn,
                          const char* section = "fanout")
    -> std::vector<std::invoke_result_t<Fn&, std::size_t, Rng&>> {
  using R = std::invoke_result_t<Fn&, std::size_t, Rng&>;
  using Clock = std::chrono::steady_clock;
  const bool profiled = pool.profiling();

  const auto serial_start = Clock::now();
  std::vector<Rng> streams = rng.split_n(n);
  const auto serial_ns = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                           serial_start)
          .count());

  std::vector<R> results(n);
  std::atomic<std::uint64_t> task_ns_sum{0};
  std::atomic<std::uint64_t> task_ns_max{0};
  const auto wall_start = Clock::now();
  pool.parallel_for(n, [&](std::size_t i) {
    Rng local = streams[i];  // private mutable copy; streams stays pristine
    if (profiled) {
      const auto t0 = Clock::now();
      results[i] = fn(i, local);
      const auto ns = static_cast<std::uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                               t0)
              .count());
      task_ns_sum.fetch_add(ns, std::memory_order_relaxed);
      std::uint64_t seen = task_ns_max.load(std::memory_order_relaxed);
      while (seen < ns && !task_ns_max.compare_exchange_weak(
                              seen, ns, std::memory_order_relaxed)) {
      }
    } else {
      results[i] = fn(i, local);
    }
  });
  if (profiled) {
    const auto wall_ns = static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                             wall_start)
            .count());
    record_parallel_section(section, serial_ns, wall_ns, n,
                            task_ns_sum.load(std::memory_order_relaxed),
                            task_ns_max.load(std::memory_order_relaxed));
  }
  return results;
}

class JobGraph {
 public:
  using JobId = std::size_t;

  enum class State : std::uint8_t {
    kPending,
    kDone,
    kFailed,
    kSkipped,  ///< a prerequisite failed or was itself skipped
  };

  /// Adds a job; `name` only matters for error reporting.
  JobId add(std::string name, std::function<void()> fn);

  /// Declares that `job` must not start before `prerequisite` finished.
  void add_dependency(JobId job, JobId prerequisite);

  /// Executes the graph.  Jobs with no unfinished prerequisites run
  /// concurrently on `pool`; called from inside a task of any pool (or with
  /// an empty graph/pool) execution falls back to serial topological order
  /// (ThreadPool::running_task(), the rule parallel_for follows).  After
  /// the graph drains, the first failure is rethrown.  Single-shot: a graph
  /// cannot be run twice.
  void run(ThreadPool& pool);

  std::size_t size() const { return jobs_.size(); }
  State state(JobId id) const { return jobs_[id].state; }
  const std::string& name(JobId id) const { return jobs_[id].name; }

 private:
  struct Job {
    std::string name;
    std::function<void()> fn;
    std::vector<JobId> successors;
    int prerequisites = 0;
    State state = State::kPending;
  };

  std::vector<Job> jobs_;
  bool ran_ = false;
};

}  // namespace isex::runtime
