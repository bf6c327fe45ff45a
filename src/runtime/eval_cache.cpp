#include "runtime/eval_cache.hpp"

#include "sched/list_scheduler.hpp"
#include "util/assert.hpp"

namespace isex::runtime {

EvalCache::EvalCache(std::size_t capacity, std::size_t shards)
    : hits_metric_(&trace::MetricsRegistry::global().counter(
          "isex_schedule_cache_hits_total")),
      misses_metric_(&trace::MetricsRegistry::global().counter(
          "isex_schedule_cache_misses_total")),
      insertions_metric_(&trace::MetricsRegistry::global().counter(
          "isex_schedule_cache_insertions_total")),
      evictions_metric_(&trace::MetricsRegistry::global().counter(
          "isex_schedule_cache_evictions_total")) {
  ISEX_ASSERT(shards >= 1);
  shard_capacity_ = capacity / shards;
  if (shard_capacity_ == 0) shard_capacity_ = 1;
  shards_.reserve(shards);
  for (std::size_t i = 0; i < shards; ++i)
    shards_.push_back(std::make_unique<Shard>());
}

std::optional<int> EvalCache::find(const Key128& key, bool count_miss) {
  Shard& shard = shard_for(key);
  std::lock_guard<std::mutex> lock(shard.mutex);
  const auto it = shard.map.find(key);
  if (it == shard.map.end()) {
    if (count_miss) {
      ++shard.misses;
      misses_metric_->inc();
    }
    return std::nullopt;
  }
  ++shard.hits;
  hits_metric_->inc();
  return it->second;
}

bool EvalCache::emplace(const Key128& key, int value, bool count_outcome) {
  Shard& shard = shard_for(key);
  {
    std::lock_guard<std::mutex> lock(shard.mutex);
    const auto [it, inserted] = shard.map.emplace(key, value);
    if (count_outcome) {
      // A racing miss inserted the identical value first: this lookup is
      // counted as the hit a serial run would have made.
      if (inserted) {
        ++shard.misses;
        misses_metric_->inc();
      } else {
        ++shard.hits;
        hits_metric_->inc();
      }
    }
    if (!inserted) return false;
    shard.fifo.push_back(key);
    ++shard.insertions;
    insertions_metric_->inc();
    while (shard.map.size() > shard_capacity_) {
      shard.map.erase(shard.fifo.front());
      shard.fifo.pop_front();
      ++shard.evictions;
      evictions_metric_->inc();
    }
  }
  // Write-through outside the shard lock: the sink takes its own (I/O)
  // lock, and holding a shard lock across a disk append would serialize
  // unrelated lookups behind it.
  std::shared_ptr<const PersistSink> sink;
  {
    std::lock_guard<std::mutex> lock(sink_mutex_);
    sink = sink_;
  }
  if (sink && *sink) (*sink)(key, value);
  return true;
}

void EvalCache::set_persist_sink(PersistSink sink) {
  std::lock_guard<std::mutex> lock(sink_mutex_);
  sink_ = sink ? std::make_shared<const PersistSink>(std::move(sink))
               : nullptr;
}

void EvalCache::clear() {
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mutex);
    shard->map.clear();
    shard->fifo.clear();
  }
}

CacheStats EvalCache::stats() const {
  CacheStats total;
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mutex);
    total.hits += shard->hits;
    total.misses += shard->misses;
    total.insertions += shard->insertions;
    total.evictions += shard->evictions;
  }
  return total;
}

std::size_t EvalCache::size() const {
  std::size_t n = 0;
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mutex);
    n += shard->map.size();
  }
  return n;
}

EvalCache& schedule_cache() {
  static EvalCache cache;
  return cache;
}

int cached_schedule_cycles(EvalCache& cache,
                           const sched::ListScheduler& scheduler,
                           const dfg::Graph& graph) {
  const Key128 key =
      schedule_key(graph, scheduler.config(), scheduler.priority());
  return cache.get_or_compute(key,
                              [&]() { return scheduler.cycles(graph); });
}

}  // namespace isex::runtime
