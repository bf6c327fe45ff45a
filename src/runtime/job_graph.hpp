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
// identical jobs before the fan-out).  Both record the fan-out as a section
// of the pool they ran on, from the timing ThreadPool::parallel_for returns
// while that pool is profiling.
#pragma once

#include <chrono>
#include <cstdint>
#include <optional>
#include <type_traits>
#include <utility>
#include <vector>

#include "runtime/thread_pool.hpp"
#include "util/rng.hpp"

namespace isex::runtime {

/// Runs fn(i, stream) for i in [0, streams.size()) on `pool`, each call on a
/// private copy of streams[i], and returns the results in index order.
///
/// When `pool` has profiling on, the fan-out is measured as one invocation
/// of `pool`'s section `section`: `serial_ns` of setup the caller did on its
/// own thread before the fan-out, the parallel wall time, and the per-task
/// body durations (ThreadPool::parallel_for's timing).  Instrumentation never
/// touches the streams, so results stay bit-identical whether profiling is
/// on or off.
template <typename Fn>
auto fanout_streams(ThreadPool& pool, const std::vector<Rng>& streams, Fn fn,
                    const char* section, std::uint64_t serial_ns)
    -> std::vector<std::invoke_result_t<Fn&, std::size_t, Rng&>> {
  const std::size_t n = streams.size();
  std::vector<std::invoke_result_t<Fn&, std::size_t, Rng&>> results(n);
  const std::optional<ParallelTiming> timing =
      pool.parallel_for(n, [&](std::size_t i) {
        Rng local = streams[i];  // private mutable copy; streams stays pristine
        results[i] = fn(i, local);
      });
  if (timing) pool.record_section(section, serial_ns, n, *timing);
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
