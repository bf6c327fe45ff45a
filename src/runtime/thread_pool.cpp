#include "runtime/thread_pool.hpp"

#include <algorithm>
#include <chrono>
#include <cstdlib>

#include "trace/trace.hpp"
#include "util/assert.hpp"

namespace isex::runtime {
namespace {

using Clock = std::chrono::steady_clock;

std::uint64_t ns_between(Clock::time_point from, Clock::time_point to) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(to - from)
          .count());
}

std::uint64_t elapsed_ns(Clock::time_point since) {
  return ns_between(since, Clock::now());
}

std::vector<double> task_bounds_seconds() {
  std::vector<double> bounds;
  for (const double us : ThreadPool::kTaskDurationBoundsUs)
    bounds.push_back(us * 1e-6);
  return bounds;
}

}  // namespace

struct ThreadPool::Group {
  Group(std::size_t count, const std::function<void(std::size_t)>& fn,
        bool timed)
      : n(count), body(&fn), profiled(timed), remaining(count) {}

  const std::size_t n;
  /// The caller's body; read only after a successful claim, which implies
  /// the caller still waits in parallel_for.  A worker that reaches the
  /// group after its cursor ran out claims nothing and never touches it.
  const std::function<void(std::size_t)>* body;
  /// Whether the pool was profiling when the group was posted: each index
  /// then records its sample and adds its duration to the sums below.
  const bool profiled;
  /// The poster's trace context while the tracer is on, installed around a
  /// worker's claims so spans inside an index parent under the span (stage,
  /// job) that posted the group.
  trace::TraceContext context;
  std::atomic<std::size_t> next{0};
  std::atomic<std::size_t> remaining;
  std::atomic<std::uint64_t> task_ns_sum{0};
  std::atomic<std::uint64_t> task_ns_max{0};
  std::mutex mutex;
  std::condition_variable done;
  std::exception_ptr first_error;
};

thread_local bool ThreadPool::in_task_ = false;

ThreadPool::ThreadPool(int threads)
    : jobs_metric_(&trace::MetricsRegistry::global().counter(
          "isex_pool_jobs_total")),
      task_seconds_metric_(&trace::MetricsRegistry::global().histogram(
          "isex_pool_task_seconds", task_bounds_seconds())) {
  if (threads <= 0) threads = default_jobs();
  prof_slots_.reserve(static_cast<std::size_t>(threads) + 1);
  for (int i = 0; i < threads + 1; ++i)
    prof_slots_.push_back(std::make_unique<ProfSlot>());
  threads_.reserve(static_cast<std::size_t>(threads));
  for (int i = 0; i < threads; ++i)
    threads_.emplace_back([this, i]() { worker_loop(i); });
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  wake_.notify_all();
  for (std::thread& t : threads_) t.join();
}

void ThreadPool::worker_loop(int self) {
  for (;;) {
    std::shared_ptr<Group> group;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      if (groups_.empty() && !stop_) {
        ProfSlot& slot = *prof_slots_[static_cast<std::size_t>(self)];
        slot.waiting = true;
        if (profiling()) slot.idle_since = Clock::now();
        wake_.wait(lock, [this]() { return stop_ || !groups_.empty(); });
        if (slot.idle_since) slot.idle_ns += elapsed_ns(*slot.idle_since);
        slot.idle_since.reset();
        slot.waiting = false;
      }
      // A stopping pool has no open group: every caller retires its group
      // before parallel_for returns.
      if (groups_.empty()) return;
      group = groups_.front();
    }
    {
      const trace::ContextScope scope(group->context);
      claim_indices(*group, self);
    }
    retire(*group);
  }
}

void ThreadPool::set_profiling(bool enabled) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (profiling() == enabled) return;
  profiling_.store(enabled, std::memory_order_relaxed);
  // A wait in progress starts counting now, or stops counting now.
  const Clock::time_point now = Clock::now();
  for (std::size_t w = 0; w < threads_.size(); ++w) {
    ProfSlot& slot = *prof_slots_[w];
    if (!slot.waiting) continue;
    if (enabled) {
      slot.idle_since = now;
    } else if (slot.idle_since) {
      slot.idle_ns += ns_between(*slot.idle_since, now);
      slot.idle_since.reset();
    }
  }
}

void ThreadPool::claim_indices(Group& group, int self) {
  for (;;) {
    const std::size_t i = group.next.fetch_add(1, std::memory_order_relaxed);
    if (i >= group.n) return;
    jobs_run_.fetch_add(1, std::memory_order_relaxed);
    jobs_metric_->inc();
    const auto start = group.profiled ? Clock::now() : Clock::time_point{};
    // The marker is set even when profiling is off: it makes a parallel_for
    // inside the index run inline.
    ISEX_ASSERT_MSG(!in_task_, "pool task started inside another task");
    in_task_ = true;
    try {
      (*group.body)(i);
    } catch (...) {
      std::lock_guard<std::mutex> lock(group.mutex);
      if (!group.first_error) group.first_error = std::current_exception();
    }
    in_task_ = false;
    if (group.profiled) record_profiled_index(group, self, elapsed_ns(start));
    // After the sample: the caller this releases reads complete counts.
    if (group.remaining.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      std::lock_guard<std::mutex> lock(group.mutex);
      group.done.notify_all();
    }
  }
}

void ThreadPool::retire(const Group& group) {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = std::find_if(
      groups_.begin(), groups_.end(),
      [&group](const std::shared_ptr<Group>& open) {
        return open.get() == &group;
      });
  if (it != groups_.end()) groups_.erase(it);
}

void ThreadPool::record_profiled_index(Group& group, int self,
                                       std::uint64_t ns) {
  ProfSlot& slot =
      *prof_slots_[self >= 0 ? static_cast<std::size_t>(self)
                             : threads_.size()];
  slot.tasks.fetch_add(1, std::memory_order_relaxed);
  slot.busy_ns.fetch_add(ns, std::memory_order_relaxed);
  // The first bucket whose bound is >= the duration; +Inf past the last.
  const std::size_t bin = static_cast<std::size_t>(
      std::lower_bound(kTaskDurationBoundsUs.begin(),
                       kTaskDurationBoundsUs.end(),
                       static_cast<double>(ns) * 1e-3) -
      kTaskDurationBoundsUs.begin());
  task_bins_[bin].fetch_add(1, std::memory_order_relaxed);
  task_seconds_metric_->observe(static_cast<double>(ns) * 1e-9);
  group.task_ns_sum.fetch_add(ns, std::memory_order_relaxed);
  std::uint64_t seen = group.task_ns_max.load(std::memory_order_relaxed);
  while (seen < ns && !group.task_ns_max.compare_exchange_weak(
                          seen, ns, std::memory_order_relaxed)) {
  }
}

std::optional<ParallelTiming> ThreadPool::parallel_for(
    std::size_t n, const std::function<void(std::size_t)>& body) {
  const bool profiled = profiling();
  const auto start = profiled ? Clock::now() : Clock::time_point{};
  ParallelTiming timing;
  // A fan-out nested in a task of any pool runs inline: the task's thread
  // *is* this fan-out's budget.  Queue-and-wait from inside a worker could
  // deadlock a fully busy pool.
  if (in_task_ || n <= 1) {
    for (std::size_t i = 0; i < n; ++i) {
      if (!profiled) {
        body(i);
        continue;
      }
      const auto body_start = Clock::now();
      body(i);
      const std::uint64_t ns = elapsed_ns(body_start);
      timing.task_ns_sum += ns;
      timing.task_ns_max = std::max(timing.task_ns_max, ns);
    }
  } else {
    // One ordered group: post it, wake the workers it can use, and claim
    // too.  The caller can always finish every unclaimed index itself, so
    // it waits only for indices that already run.
    const auto group = std::make_shared<Group>(n, body, profiled);
    if (trace::Tracer::global().enabled())
      group->context = trace::current_context();
    {
      std::lock_guard<std::mutex> lock(mutex_);
      groups_.push_back(group);
    }
    const std::size_t helpers = std::min(n - 1, threads_.size());
    for (std::size_t k = 0; k < helpers; ++k) wake_.notify_one();
    claim_indices(*group, /*self=*/-1);
    retire(*group);
    {
      std::unique_lock<std::mutex> lock(group->mutex);
      group->done.wait(lock, [&]() {
        return group->remaining.load(std::memory_order_acquire) == 0;
      });
    }
    if (group->first_error) std::rethrow_exception(group->first_error);
    timing.task_ns_sum = group->task_ns_sum.load(std::memory_order_relaxed);
    timing.task_ns_max = group->task_ns_max.load(std::memory_order_relaxed);
  }
  if (!profiled) return std::nullopt;
  timing.wall_ns = elapsed_ns(start);
  return timing;
}

PoolStats ThreadPool::stats() const {
  PoolStats s;
  s.jobs_run = jobs_run_.load(std::memory_order_relaxed);
  s.threads = num_threads();
  return s;
}

std::vector<WorkerOccupancy> ThreadPool::occupancy() const {
  std::vector<WorkerOccupancy> out;
  out.reserve(prof_slots_.size());
  std::lock_guard<std::mutex> lock(mutex_);
  // Waits still in progress count up to this snapshot.
  const Clock::time_point now =
      profiling() ? Clock::now() : Clock::time_point{};
  for (const auto& slot : prof_slots_) {
    WorkerOccupancy w;
    w.tasks = slot->tasks.load(std::memory_order_relaxed);
    w.busy_seconds =
        static_cast<double>(slot->busy_ns.load(std::memory_order_relaxed)) *
        1e-9;
    std::uint64_t idle_ns = slot->idle_ns;
    if (slot->idle_since) idle_ns += ns_between(*slot->idle_since, now);
    w.idle_seconds = static_cast<double>(idle_ns) * 1e-9;
    out.push_back(w);
  }
  return out;
}

std::vector<std::uint64_t> ThreadPool::task_duration_counts() const {
  std::vector<std::uint64_t> counts(kTaskBins);
  for (std::size_t i = 0; i < kTaskBins; ++i)
    counts[i] = task_bins_[i].load(std::memory_order_relaxed);
  return counts;
}

std::uint64_t ThreadPool::profiled_task_count() const {
  std::uint64_t count = 0;
  for (const auto& slot : prof_slots_)
    count += slot->tasks.load(std::memory_order_relaxed);
  return count;
}

double ThreadPool::profiled_task_seconds() const {
  std::uint64_t ns = 0;
  for (const auto& slot : prof_slots_)
    ns += slot->busy_ns.load(std::memory_order_relaxed);
  return static_cast<double>(ns) * 1e-9;
}

namespace {

std::mutex g_default_pool_mutex;
std::unique_ptr<ThreadPool> g_default_pool;
int g_default_jobs_override = 0;

}  // namespace

ThreadPool& ThreadPool::default_pool() {
  std::lock_guard<std::mutex> lock(g_default_pool_mutex);
  if (!g_default_pool) {
    g_default_pool = std::make_unique<ThreadPool>(
        g_default_jobs_override > 0 ? g_default_jobs_override : 0);
  }
  return *g_default_pool;
}

void ThreadPool::set_default_jobs(int jobs) {
  std::lock_guard<std::mutex> lock(g_default_pool_mutex);
  g_default_jobs_override = jobs;
  g_default_pool.reset();  // rebuilt lazily at the new size
}

int ThreadPool::default_jobs() {
  if (const char* env = std::getenv("ISEX_JOBS")) {
    const int v = std::atoi(env);
    if (v >= 1) return v;
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? static_cast<int>(hw) : 1;
}

}  // namespace isex::runtime
