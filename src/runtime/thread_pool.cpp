#include "runtime/thread_pool.hpp"

#include <chrono>
#include <cstdlib>
#include <utility>

#include "trace/trace.hpp"
#include "util/assert.hpp"

namespace isex::runtime {
namespace {

std::uint64_t elapsed_ns(std::chrono::steady_clock::time_point since) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - since)
          .count());
}

std::vector<double> task_bounds_seconds() {
  std::vector<double> bounds;
  for (const double us : ThreadPool::task_duration_bounds_us())
    bounds.push_back(us * 1e-6);
  return bounds;
}

}  // namespace

struct ThreadPool::TaskSample {
  int self;
  bool stolen;
  std::chrono::steady_clock::time_point start;
  bool recorded;
};

thread_local ThreadPool::TaskSample* ThreadPool::running_sample_ = nullptr;

const std::vector<double>& ThreadPool::task_duration_bounds_us() {
  // Log-spaced from 50µs (around the cheapest candidate-eval tasks) to 1s;
  // kTaskBins - 1 bounds plus the implicit +Inf bucket.  Leaked on purpose:
  // record_profiled_task can read these after a task signalled completion
  // (a submit() future is ready before run_one records its sample), a
  // window that extends into static destruction for the default pool's
  // final task.
  static const std::vector<double>& bounds = *new std::vector<double>{
      50,    100,   250,    500,    1000,   2500,   5000,
      10000, 25000, 50000, 100000, 250000, 1000000};
  return bounds;
}

ThreadPool::ThreadPool(int threads)
    : jobs_metric_(&trace::MetricsRegistry::global().counter(
          "isex_pool_jobs_total")),
      steals_metric_(&trace::MetricsRegistry::global().counter(
          "isex_pool_steals_total")),
      task_seconds_metric_(&trace::MetricsRegistry::global().histogram(
          "isex_pool_task_seconds", task_bounds_seconds())) {
  if (threads <= 0) threads = default_jobs();
  ISEX_ASSERT(task_duration_bounds_us().size() + 1 == kTaskBins);
  workers_.reserve(static_cast<std::size_t>(threads));
  for (int i = 0; i < threads; ++i)
    workers_.push_back(std::make_unique<Worker>());
  prof_slots_.reserve(static_cast<std::size_t>(threads) + 1);
  for (int i = 0; i < threads + 1; ++i)
    prof_slots_.push_back(std::make_unique<ProfSlot>());
  threads_.reserve(static_cast<std::size_t>(threads));
  for (int i = 0; i < threads; ++i)
    threads_.emplace_back([this, i]() { worker_loop(i); });
}

ThreadPool::~ThreadPool() {
  stop_.store(true, std::memory_order_release);
  {
    // Pair the flag with the lock so a worker checking the predicate between
    // its test and its wait cannot miss the notification.
    std::lock_guard<std::mutex> lock(wake_mutex_);
  }
  wake_cv_.notify_all();
  for (std::thread& t : threads_) t.join();
}

void ThreadPool::enqueue(std::function<void()> task) {
  ISEX_ASSERT(!workers_.empty());
  // Trace-context propagation: carry the submitter's ambient context across
  // the thread hop so spans recorded inside the task parent under the span
  // (stage, job) that spawned it.  Costs nothing while tracing is off.
  if (trace::Tracer::global().enabled()) {
    const trace::TraceContext ctx = trace::current_context();
    if (ctx.active()) {
      task = [ctx, inner = std::move(task)]() {
        const trace::ContextScope scope(ctx);
        inner();
      };
    }
  }
  const std::size_t target =
      next_worker_.fetch_add(1, std::memory_order_relaxed) % workers_.size();
  {
    std::lock_guard<std::mutex> lock(workers_[target]->mutex);
    workers_[target]->queue.push_back(std::move(task));
  }
  pending_.fetch_add(1, std::memory_order_release);
  {
    std::lock_guard<std::mutex> lock(wake_mutex_);
  }
  wake_cv_.notify_one();
}

bool ThreadPool::run_one(int self) {
  const std::size_t n = workers_.size();
  std::function<void()> task;
  bool stolen = false;
  // Own deque first (back = LIFO, cache-warm), then sweep the others from
  // the front (FIFO) — classic work stealing.
  const std::size_t start = self >= 0 ? static_cast<std::size_t>(self) : 0;
  for (std::size_t k = 0; k < n && !task; ++k) {
    const std::size_t w = (start + k) % n;
    Worker& worker = *workers_[w];
    std::lock_guard<std::mutex> lock(worker.mutex);
    if (worker.queue.empty()) continue;
    const bool own = self >= 0 && w == static_cast<std::size_t>(self);
    if (own) {
      task = std::move(worker.queue.back());
      worker.queue.pop_back();
    } else {
      task = std::move(worker.queue.front());
      worker.queue.pop_front();
      stolen = true;
    }
  }
  if (!task) return false;
  pending_.fetch_sub(1, std::memory_order_acq_rel);
  if (stolen) {
    steals_.fetch_add(1, std::memory_order_relaxed);
    steals_metric_->inc();
  }
  jobs_run_.fetch_add(1, std::memory_order_relaxed);
  jobs_metric_->inc();
  // The task may record its own sample before it releases a waiter
  // (record_running_task); whatever it left unrecorded is recorded here.
  // The sample is installed even when profiling is off: it is also the
  // marker that makes a parallel_for inside the task run inline.
  TaskSample sample{self, stolen, {}, /*recorded=*/!profiling()};
  if (!sample.recorded) sample.start = std::chrono::steady_clock::now();
  ISEX_ASSERT_MSG(running_sample_ == nullptr,
                  "pool task started inside another task");
  running_sample_ = &sample;
  task();
  running_sample_ = nullptr;
  record_task_sample(sample);
  return true;
}

void ThreadPool::record_running_task() {
  if (running_sample_ != nullptr) record_task_sample(*running_sample_);
}

void ThreadPool::record_task_sample(TaskSample& sample) {
  if (sample.recorded) return;
  sample.recorded = true;
  record_profiled_task(sample.self, sample.stolen, elapsed_ns(sample.start));
}

void ThreadPool::record_profiled_task(int self, bool stolen,
                                      std::uint64_t ns) {
  ProfSlot& slot =
      *prof_slots_[self >= 0 ? static_cast<std::size_t>(self)
                             : workers_.size()];
  slot.tasks.fetch_add(1, std::memory_order_relaxed);
  if (stolen) slot.steals.fetch_add(1, std::memory_order_relaxed);
  slot.busy_ns.fetch_add(ns, std::memory_order_relaxed);
  prof_task_count_.fetch_add(1, std::memory_order_relaxed);
  prof_task_ns_.fetch_add(ns, std::memory_order_relaxed);
  const double us = static_cast<double>(ns) * 1e-3;
  const std::vector<double>& bounds = task_duration_bounds_us();
  std::size_t bin = bounds.size();
  for (std::size_t i = 0; i < bounds.size(); ++i) {
    if (us <= bounds[i]) {
      bin = i;
      break;
    }
  }
  task_bins_[bin].fetch_add(1, std::memory_order_relaxed);
  task_seconds_metric_->observe(static_cast<double>(ns) * 1e-9);
}

void ThreadPool::worker_loop(int index) {
  for (;;) {
    if (run_one(index)) continue;
    const bool prof = profiling();
    const auto idle_start = prof ? std::chrono::steady_clock::now()
                                 : std::chrono::steady_clock::time_point{};
    {
      std::unique_lock<std::mutex> lock(wake_mutex_);
      wake_cv_.wait(lock, [this]() {
        return stop_.load(std::memory_order_acquire) ||
               pending_.load(std::memory_order_acquire) > 0;
      });
    }
    if (prof) {
      prof_slots_[static_cast<std::size_t>(index)]->idle_ns.fetch_add(
          elapsed_ns(idle_start), std::memory_order_relaxed);
    }
    if (stop_.load(std::memory_order_acquire) &&
        pending_.load(std::memory_order_acquire) == 0)
      break;
  }
}

void ThreadPool::parallel_for(std::size_t n,
                              const std::function<void(std::size_t)>& body) {
  if (n == 0) return;
  // A fan-out nested in a task of any pool runs inline: the task's thread
  // *is* this fan-out's budget.  Queue-and-wait from inside a worker could
  // deadlock a fully busy pool, and a helping caller would stack unrelated
  // queued tasks under the suspended one.
  if (running_task() || workers_.empty() || n == 1) {
    for (std::size_t i = 0; i < n; ++i) body(i);
    return;
  }

  struct Join {
    std::atomic<std::size_t> remaining;
    std::mutex mutex;
    std::condition_variable done;
    std::exception_ptr first_error;
  };
  auto join = std::make_shared<Join>();
  join->remaining.store(n, std::memory_order_relaxed);

  for (std::size_t i = 0; i < n; ++i) {
    enqueue([this, join, i, &body]() {
      try {
        body(i);
      } catch (...) {
        std::lock_guard<std::mutex> lock(join->mutex);
        if (!join->first_error) join->first_error = std::current_exception();
      }
      // Before the latch: the caller it releases reads complete counts.
      record_running_task();
      if (join->remaining.fetch_sub(1, std::memory_order_acq_rel) == 1) {
        {
          std::lock_guard<std::mutex> lock(join->mutex);
        }
        join->done.notify_all();
      }
    });
  }

  // Help while waiting: drain pool tasks on this thread instead of blocking,
  // so the caller contributes a core.  It runs no task here, so every task
  // it picks up runs to completion before it looks at the join again.
  while (join->remaining.load(std::memory_order_acquire) > 0) {
    if (run_one(/*self=*/-1)) continue;
    std::unique_lock<std::mutex> lock(join->mutex);
    join->done.wait_for(lock, std::chrono::milliseconds(1), [&]() {
      return join->remaining.load(std::memory_order_acquire) == 0;
    });
  }
  if (join->first_error) std::rethrow_exception(join->first_error);
}

PoolStats ThreadPool::stats() const {
  PoolStats s;
  s.jobs_run = jobs_run_.load(std::memory_order_relaxed);
  s.steals = steals_.load(std::memory_order_relaxed);
  s.threads = num_threads();
  return s;
}

std::vector<WorkerOccupancy> ThreadPool::occupancy() const {
  std::vector<WorkerOccupancy> out;
  out.reserve(prof_slots_.size());
  for (const auto& slot : prof_slots_) {
    WorkerOccupancy w;
    w.tasks = slot->tasks.load(std::memory_order_relaxed);
    w.steals = slot->steals.load(std::memory_order_relaxed);
    w.busy_seconds =
        static_cast<double>(slot->busy_ns.load(std::memory_order_relaxed)) *
        1e-9;
    w.idle_seconds =
        static_cast<double>(slot->idle_ns.load(std::memory_order_relaxed)) *
        1e-9;
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

bool ThreadPool::running_task() { return running_sample_ != nullptr; }

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
