#include "runtime/pool_profile.hpp"

#include <algorithm>
#include <mutex>
#include <ostream>

#include "runtime/thread_pool.hpp"
#include "trace/trace.hpp"

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
  out << "{\n\"pool\":{\"threads\":" << threads
      << ",\"profiled\":" << (profiled ? "true" : "false")
      << ",\"task_count\":" << task_count
      << ",\"task_seconds_total\":" << task_seconds_total << "},\n";
  out << "\"workers\":[";
  for (std::size_t i = 0; i < workers.size(); ++i) {
    const WorkerOccupancy& w = workers[i];
    if (i != 0) out << ",";
    out << "\n{\"worker\":\""
        << trace::json_escape(worker_label(i, workers.size()))
        << "\",\"tasks\":" << w.tasks << ",\"steals\":" << w.steals
        << ",\"busy_seconds\":" << w.busy_seconds
        << ",\"idle_seconds\":" << w.idle_seconds
        << ",\"occupancy\":" << w.occupancy() << "}";
  }
  out << "\n],\n\"task_histogram\":{\"bounds_us\":[";
  for (std::size_t i = 0; i < task_bounds_us.size(); ++i) {
    if (i != 0) out << ",";
    out << task_bounds_us[i];
  }
  out << "],\"counts\":[";
  for (std::size_t i = 0; i < task_counts.size(); ++i) {
    if (i != 0) out << ",";
    out << task_counts[i];
  }
  out << "]},\n\"sections\":[";
  for (std::size_t i = 0; i < sections.size(); ++i) {
    const SectionProfile& s = sections[i];
    if (i != 0) out << ",";
    out << "\n{\"name\":\"" << trace::json_escape(s.name)
        << "\",\"invocations\":" << s.invocations << ",\"tasks\":" << s.tasks
        << ",\"serial_seconds\":" << s.serial_seconds
        << ",\"wall_seconds\":" << s.wall_seconds
        << ",\"task_seconds\":" << s.task_seconds
        << ",\"max_task_seconds\":" << s.max_task_seconds
        << ",\"serial_fraction\":" << s.serial_fraction()
        << ",\"imbalance\":" << s.imbalance() << "}";
  }
  out << "\n]}\n";
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
