#include "runtime/pool_profile.hpp"

#include <ostream>

#include "runtime/thread_pool.hpp"
#include "trace/json.hpp"

namespace isex::runtime {
namespace {

std::string worker_label(std::size_t index, std::size_t n_slots) {
  return index + 1 == n_slots ? std::string("external")
                              : std::to_string(index);
}

}  // namespace

PoolProfile collect_pool_profile(const ThreadPool& pool) {
  PoolProfile profile;
  profile.threads = pool.num_threads();
  profile.profiled = pool.profiling();
  profile.workers = pool.occupancy();
  profile.task_bounds_us.assign(ThreadPool::kTaskDurationBoundsUs.begin(),
                                ThreadPool::kTaskDurationBoundsUs.end());
  profile.task_counts = pool.task_duration_counts();
  profile.task_count = pool.profiled_task_count();
  profile.task_seconds_total = pool.profiled_task_seconds();
  profile.sections = pool.sections();
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
        .key("tasks").integer(w.tasks)
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

}  // namespace isex::runtime
