// Deterministic job fan-out over a ThreadPool.
//
// Stochastic jobs are parallelized by (1) deriving one child RNG stream per
// job *serially on the calling thread*, in exactly the order the serial code
// would have called rng.split(), then (2) running the jobs concurrently in
// any order, and (3) collecting results by job index.  Because each job
// touches only its own pre-derived stream and its own result slot, the
// output — and the caller's RNG end state — is bit-identical to the serial
// loop at any thread count.
//
// deterministic_fanout() does all three from one parent Rng;
// fanout_streams() runs steps (2) and (3) over streams the caller derived
// itself (the design flow pre-splits one Rng(seed) per program and dedups
// identical jobs before the fan-out).  timed_parallel_for() is the
// parallel_for under both, and under the explorer's colony epochs: it times
// the fan-out for the pool profile when the pool is profiling.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <optional>
#include <type_traits>
#include <utility>
#include <vector>

#include "runtime/pool_profile.hpp"
#include "runtime/thread_pool.hpp"
#include "util/rng.hpp"

namespace isex::runtime {

/// Wall time and task-body durations of one timed_parallel_for, in ns.
struct ParallelTiming {
  std::uint64_t wall_ns = 0;
  std::uint64_t task_ns_sum = 0;
  std::uint64_t task_ns_max = 0;
};

/// pool.parallel_for(n, fn), timed when `pool` is profiling: the fan-out's
/// wall time and the sum and maximum of its task bodies (the Amdahl
/// attribution in pool_profile.hpp; the caller records the section with its
/// own serial time).  Returns nothing and reads no clock otherwise.
template <typename Fn>
std::optional<ParallelTiming> timed_parallel_for(ThreadPool& pool,
                                                 std::size_t n, Fn&& fn) {
  if (!pool.profiling()) {
    pool.parallel_for(n, fn);
    return std::nullopt;
  }
  using Clock = std::chrono::steady_clock;
  const auto ns_since = [](Clock::time_point start) {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                             start)
            .count());
  };
  std::atomic<std::uint64_t> sum{0};
  std::atomic<std::uint64_t> max{0};
  const auto wall_start = Clock::now();
  pool.parallel_for(n, [&](std::size_t i) {
    const auto t0 = Clock::now();
    fn(i);
    const std::uint64_t ns = ns_since(t0);
    sum.fetch_add(ns, std::memory_order_relaxed);
    std::uint64_t seen = max.load(std::memory_order_relaxed);
    while (seen < ns && !max.compare_exchange_weak(seen, ns,
                                                   std::memory_order_relaxed)) {
    }
  });
  ParallelTiming timing;
  timing.wall_ns = ns_since(wall_start);
  timing.task_ns_sum = sum.load(std::memory_order_relaxed);
  timing.task_ns_max = max.load(std::memory_order_relaxed);
  return timing;
}

/// Runs fn(i, stream) for i in [0, streams.size()) on `pool`, each call on a
/// private copy of streams[i], and returns the results in index order.
///
/// When `pool` has profiling on, the fan-out is measured as one parallel
/// section under `section`: `serial_ns` of setup the caller did on its own
/// thread before the fan-out, the parallel wall time, and the per-task body
/// durations (timed_parallel_for).  Instrumentation never touches the
/// streams, so results stay bit-identical whether profiling is on or off.
template <typename Fn>
auto fanout_streams(ThreadPool& pool, const std::vector<Rng>& streams, Fn fn,
                    const char* section, std::uint64_t serial_ns)
    -> std::vector<std::invoke_result_t<Fn&, std::size_t, Rng&>> {
  const std::size_t n = streams.size();
  std::vector<std::invoke_result_t<Fn&, std::size_t, Rng&>> results(n);
  const std::optional<ParallelTiming> timing =
      timed_parallel_for(pool, n, [&](std::size_t i) {
        Rng local = streams[i];  // private mutable copy; streams stays pristine
        results[i] = fn(i, local);
      });
  if (timing) {
    record_parallel_section(section, serial_ns, timing->wall_ns, n,
                            timing->task_ns_sum, timing->task_ns_max);
  }
  return results;
}

/// Runs fn(i, stream_i) for i in [0, n) on `pool` and returns the results in
/// index order.  stream_i is the i-th child of `rng` exactly as n serial
/// rng.split() calls would produce (and `rng` advances identically).  The
/// stream derivation is the section's serial time (fanout_streams).
template <typename Fn>
auto deterministic_fanout(ThreadPool& pool, Rng& rng, std::size_t n, Fn fn,
                          const char* section = "fanout")
    -> std::vector<std::invoke_result_t<Fn&, std::size_t, Rng&>> {
  const auto serial_start = std::chrono::steady_clock::now();
  const std::vector<Rng> streams = rng.split_n(n);
  const auto serial_ns = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - serial_start)
          .count());
  return fanout_streams(pool, streams, std::move(fn), section, serial_ns);
}

}  // namespace isex::runtime
