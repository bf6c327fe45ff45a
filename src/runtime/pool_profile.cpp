#include "runtime/pool_profile.hpp"

#include <algorithm>
#include <mutex>
#include <ostream>

#include "runtime/thread_pool.hpp"
#include "trace/json.hpp"

namespace isex::runtime {
namespace {

/// Process-wide parallel-section registry.  Fan-outs are coarse (one entry
/// per fan-out invocation, not per task), so a single mutex
/// over a small vector is plenty.
struct SectionRegistry {
  std::mutex mutex;
  std::vector<SectionProfile> sections;

  SectionProfile& find_or_create(const char* name) {
    for (SectionProfile& s : sections)
      if (s.name == name) return s;
    sections.emplace_back();
    sections.back().name = name;
    return sections.back();
  }

  static SectionRegistry& instance() {
    static SectionRegistry registry;
    return registry;
  }
};

std::string worker_label(std::size_t index, std::size_t n_slots) {
  return index + 1 == n_slots ? std::string("external")
                              : std::to_string(index);
}

}  // namespace

void record_parallel_section(const char* name, std::uint64_t serial_ns,
                             std::uint64_t wall_ns, std::uint64_t tasks,
                             std::uint64_t task_ns_sum,
                             std::uint64_t task_ns_max) {
  SectionRegistry& registry = SectionRegistry::instance();
  std::lock_guard<std::mutex> lock(registry.mutex);
  SectionProfile& s = registry.find_or_create(name);
  s.invocations += 1;
  s.tasks += tasks;
  s.serial_seconds += static_cast<double>(serial_ns) * 1e-9;
  s.wall_seconds += static_cast<double>(wall_ns) * 1e-9;
  s.task_seconds += static_cast<double>(task_ns_sum) * 1e-9;
  s.max_task_seconds =
      std::max(s.max_task_seconds, static_cast<double>(task_ns_max) * 1e-9);
}

std::vector<SectionProfile> parallel_sections_snapshot() {
  SectionRegistry& registry = SectionRegistry::instance();
  std::lock_guard<std::mutex> lock(registry.mutex);
  return registry.sections;
}

void reset_parallel_sections() {
  SectionRegistry& registry = SectionRegistry::instance();
  std::lock_guard<std::mutex> lock(registry.mutex);
  registry.sections.clear();
}

PoolProfile collect_pool_profile(const ThreadPool& pool) {
  PoolProfile profile;
  profile.threads = pool.num_threads();
  profile.profiled = pool.profiling();
  profile.workers = pool.occupancy();
  profile.task_bounds_us = ThreadPool::task_duration_bounds_us();
  profile.task_counts = pool.task_duration_counts();
  profile.task_count = pool.profiled_task_count();
  profile.task_seconds_total = pool.profiled_task_seconds();
  profile.sections = parallel_sections_snapshot();
  return profile;
}

void PoolProfile::write_json(std::ostream& out) const {
  std::string text;
  trace::JsonWriter json(text);
  json.begin_object().newline().key("pool").begin_object()
      .key("threads").integer(threads)
      .key("profiled").boolean(profiled)
      .key("task_count").integer(task_count)
      .key("task_seconds_total").number(task_seconds_total)
      .end_object().newline().key("workers").begin_array();
  for (std::size_t i = 0; i < workers.size(); ++i) {
    const WorkerOccupancy& w = workers[i];
    json.newline().begin_object()
        .key("worker").string(worker_label(i, workers.size()))
        .key("tasks").integer(w.tasks).key("steals").integer(w.steals)
        .key("busy_seconds").number(w.busy_seconds)
        .key("idle_seconds").number(w.idle_seconds)
        .key("occupancy").number(w.occupancy()).end_object();
  }
  json.newline().end_array().newline().key("task_histogram").begin_object()
      .key("bounds_us").begin_array();
  for (const double bound : task_bounds_us) json.number(bound);
  json.end_array().key("counts").begin_array();
  for (const std::uint64_t count : task_counts) json.integer(count);
  json.end_array().end_object().newline().key("sections").begin_array();
  for (const SectionProfile& s : sections) {
    json.newline().begin_object().key("name").string(s.name)
        .key("invocations").integer(s.invocations).key("tasks").integer(s.tasks)
        .key("serial_seconds").number(s.serial_seconds)
        .key("wall_seconds").number(s.wall_seconds)
        .key("task_seconds").number(s.task_seconds)
        .key("max_task_seconds").number(s.max_task_seconds)
        .key("serial_fraction").number(s.serial_fraction())
        .key("imbalance").number(s.imbalance()).end_object();
  }
  json.newline().end_array().end_object().newline();
  out << text;
}

void PoolProfile::publish(trace::MetricsRegistry& registry) const {
  for (std::size_t i = 0; i < workers.size(); ++i) {
    const WorkerOccupancy& w = workers[i];
    const trace::Labels labels{{"worker", worker_label(i, workers.size())}};
    registry.gauge("isex_pool_worker_busy_seconds", labels)
        .set(w.busy_seconds);
    registry.gauge("isex_pool_worker_idle_seconds", labels)
        .set(w.idle_seconds);
    registry.gauge("isex_pool_worker_occupancy", labels).set(w.occupancy());
    registry.gauge("isex_pool_worker_tasks", labels)
        .set(static_cast<double>(w.tasks));
  }
  for (const SectionProfile& s : sections) {
    const trace::Labels labels{{"section", s.name}};
    registry.gauge("isex_pool_section_serial_fraction", labels)
        .set(s.serial_fraction());
    registry.gauge("isex_pool_section_wall_seconds", labels)
        .set(s.wall_seconds);
    registry.gauge("isex_pool_section_task_seconds", labels)
        .set(s.task_seconds);
    registry.gauge("isex_pool_section_imbalance", labels).set(s.imbalance());
    registry.gauge("isex_pool_section_tasks", labels)
        .set(static_cast<double>(s.tasks));
  }
}

}  // namespace isex::runtime
