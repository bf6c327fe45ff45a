// Sharded, mutex-striped memo cache for schedule evaluations.
//
// The ACO inner loop re-evaluates identical schedules constantly: every
// repeat of explore_best_of walks the same block, rounds re-score the same
// collapsed candidate graphs, and sweep harnesses revisit the same
// (benchmark, machine) pairs.  Scheduling is O(cycles × resources) while a
// structural fingerprint is O(V + E), so memoizing cycles() pays for itself
// after the first hit.
//
// Concurrency: the key space is striped over independent shards, each a
// mutex + hash map + FIFO eviction ring, so parallel exploration jobs rarely
// contend on the same lock.  A concurrent miss may compute the same value
// twice — both threads then insert the identical (pure-function) result, so
// correctness and determinism are unaffected.  get_or_compute counts such a
// key once: the thread whose insert is fresh counts the miss and the one
// that finds the key already inserted counts a hit, so its stats are those
// of a serial run at any thread count.
//
// Determinism: the cache is invisible in results.  Values are pure functions
// of their 128-bit key (see hash.hpp for why collisions are negligible), so
// a hit returns exactly what recomputation would.
//
// Ownership: a cache exists only where its owner creates it, and its stats
// count that owner's work alone.  Each design flow run memoizes through the
// cache its caller passes or a private one it creates; each server::Server
// owns one, warm-loaded from its log; the CLI and the harnesses that time
// or print the memo create one per run.  An explorer given no cache
// schedules every evaluation directly.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <unordered_map>
#include <vector>

#include "runtime/hash.hpp"
#include "trace/metrics.hpp"

namespace isex::sched {
class ListScheduler;
}

namespace isex::runtime {

struct CacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t insertions = 0;
  std::uint64_t evictions = 0;

  double hit_rate() const {
    const std::uint64_t total = hits + misses;
    return total > 0 ? static_cast<double>(hits) / static_cast<double>(total)
                     : 0.0;
  }
};

class EvalCache {
 public:
  /// `capacity` is the total entry budget, split evenly across `shards`
  /// (each rounded up to at least one entry).
  explicit EvalCache(std::size_t capacity = 1 << 18, std::size_t shards = 16);

  EvalCache(const EvalCache&) = delete;
  EvalCache& operator=(const EvalCache&) = delete;

  /// The cached value; counts a hit, or a miss when absent.
  std::optional<int> lookup(const Key128& key) {
    return find(key, /*count_miss=*/true);
  }
  /// Inserts unless the key is present; counts neither a hit nor a miss.
  void insert(const Key128& key, int value) {
    emplace(key, value, /*count_outcome=*/false);
  }

  /// The cached value, or compute()'s, inserted.  `compute` runs outside
  /// any shard lock.  A miss is counted when the insert is fresh, so two
  /// threads that miss the same key concurrently count one miss and one hit.
  template <typename Fn>
  int get_or_compute(const Key128& key, Fn compute) {
    if (const std::optional<int> hit = find(key, /*count_miss=*/false))
      return *hit;
    const int value = compute();
    emplace(key, value, /*count_outcome=*/true);
    return value;
  }

  /// Drops every entry; the counters survive.
  void clear();

  /// Write-through hook: called once per *fresh* insertion (not for
  /// duplicates racing a concurrent miss), outside any shard lock, from the
  /// inserting thread.  The persistence layer (persistent_cache.hpp) uses it
  /// to append new evaluations to the disk log; an empty function detaches.
  using PersistSink = std::function<void(const Key128&, int)>;
  void set_persist_sink(PersistSink sink);

  CacheStats stats() const;
  std::size_t size() const;
  std::size_t capacity() const { return shard_capacity_ * shards_.size(); }

 private:
  struct Shard {
    std::mutex mutex;
    std::unordered_map<Key128, int, Key128Hash> map;
    /// Insertion order; the front is evicted when the shard is full.
    std::deque<Key128> fifo;
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t insertions = 0;
    std::uint64_t evictions = 0;
  };

  /// Looks `key` up, counting a hit when present and, with `count_miss`,
  /// a miss when absent.
  std::optional<int> find(const Key128& key, bool count_miss);
  /// Inserts `key` unless present and returns whether the insert was fresh.
  /// With `count_outcome`, a fresh insert counts a miss and a present key a
  /// hit, under the same shard lock.
  bool emplace(const Key128& key, int value, bool count_outcome);

  Shard& shard_for(const Key128& key) {
    return *shards_[(key.hi ^ (key.hi >> 32)) % shards_.size()];
  }

  std::vector<std::unique_ptr<Shard>> shards_;
  std::size_t shard_capacity_;
  /// Guarded by sink_mutex_; shared_ptr so a concurrent set_persist_sink
  /// cannot destroy a sink mid-call.
  mutable std::mutex sink_mutex_;
  std::shared_ptr<const PersistSink> sink_;
  /// Process-wide metrics mirrored alongside the per-shard counters (which
  /// stay authoritative for stats(); the registry aggregates every cache).
  trace::Counter* hits_metric_;
  trace::Counter* misses_metric_;
  trace::Counter* insertions_metric_;
  trace::Counter* evictions_metric_;
};

/// A process-wide cache that nothing in the program explores through: an
/// explorer memoizes only through the cache its caller passes
/// (core::ExplorerParams::eval_cache), and isex_serve owns its own.  Kept
/// only because perfbench's serve_mix reads its stats.
EvalCache& schedule_cache();

/// scheduler.cycles(graph), memoized in `cache` under
/// schedule_key(graph, scheduler.config(), scheduler.priority()).
int cached_schedule_cycles(EvalCache& cache,
                           const sched::ListScheduler& scheduler,
                           const dfg::Graph& graph);

}  // namespace isex::runtime
