#include "runtime/thread_pool.hpp"

#include <algorithm>
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

struct ThreadPool::Group {
  Group(std::size_t count, const std::function<void(std::size_t)>& fn)
      : n(count), body(&fn), remaining(count) {}

  const std::size_t n;
  /// The caller's body; read only after a successful claim, which implies
  /// the caller still waits in parallel_for.  A claimer that runs after the
  /// group finished claims nothing and never touches it.
  const std::function<void(std::size_t)>* body;
  std::atomic<std::size_t> next{0};
  std::atomic<std::size_t> remaining;
  std::mutex mutex;
  std::condition_variable done;
  std::exception_ptr first_error;
};

thread_local bool ThreadPool::in_task_ = false;

const std::vector<double>& ThreadPool::task_duration_bounds_us() {
  // Log-spaced from 50µs (around the cheapest candidate-eval tasks) to 1s;
  // kTaskBins - 1 bounds plus the implicit +Inf bucket.  Leaked on purpose:
  // record_profiled_task can read these after a task signalled completion
  // (a submit() future is ready before run_task records its sample), a
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

void ThreadPool::enqueue(Task task) {
  ISEX_ASSERT(!workers_.empty());
  // Trace-context propagation: carry the submitter's ambient context across
  // the thread hop so spans recorded inside the task parent under the span
  // (stage, job) that spawned it.  Costs nothing while tracing is off.
  if (trace::Tracer::global().enabled()) {
    const trace::TraceContext ctx = trace::current_context();
    if (ctx.active()) {
      task = [ctx, inner = std::move(task)](int self, bool stolen) {
        const trace::ContextScope scope(ctx);
        inner(self, stolen);
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
  Task task;
  bool stolen = false;
  // Own deque first (back = LIFO, cache-warm), then sweep the others from
  // the front (FIFO) — classic work stealing.
  for (std::size_t k = 0; k < n && !task; ++k) {
    const std::size_t w = (static_cast<std::size_t>(self) + k) % n;
    Worker& worker = *workers_[w];
    std::lock_guard<std::mutex> lock(worker.mutex);
    if (worker.queue.empty()) continue;
    if (k == 0) {
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
  task(self, stolen);
  return true;
}

void ThreadPool::run_task(int self, bool stolen,
                          const std::function<void()>& fn) {
  if (stolen) {
    steals_.fetch_add(1, std::memory_order_relaxed);
    steals_metric_->inc();
  }
  jobs_run_.fetch_add(1, std::memory_order_relaxed);
  jobs_metric_->inc();
  const bool profiled = profiling();
  const auto start = profiled ? std::chrono::steady_clock::now()
                              : std::chrono::steady_clock::time_point{};
  // The marker is set even when profiling is off: it makes a parallel_for
  // inside the task run inline.
  ISEX_ASSERT_MSG(!in_task_, "pool task started inside another task");
  in_task_ = true;
  fn();
  in_task_ = false;
  if (profiled) record_profiled_task(self, stolen, elapsed_ns(start));
}

void ThreadPool::claim_indices(Group& group, int self, bool stolen) {
  for (;;) {
    const std::size_t i = group.next.fetch_add(1, std::memory_order_relaxed);
    if (i >= group.n) return;
    run_task(self, stolen, [&group, i]() {
      try {
        (*group.body)(i);
      } catch (...) {
        std::lock_guard<std::mutex> lock(group.mutex);
        if (!group.first_error) group.first_error = std::current_exception();
      }
    });
    // After the sample: the caller this releases reads complete counts.
    if (group.remaining.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      std::lock_guard<std::mutex> lock(group.mutex);
      group.done.notify_all();
    }
  }
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
  // deadlock a fully busy pool.
  if (running_task() || workers_.empty() || n == 1) {
    for (std::size_t i = 0; i < n; ++i) body(i);
    return;
  }

  // One ordered group: claimers for the workers, then the caller claims
  // too.  The caller can always finish every unclaimed index itself, so it
  // waits only for indices that already run.
  auto group = std::make_shared<Group>(n, body);
  const std::size_t claimers = std::min(n - 1, workers_.size());
  for (std::size_t k = 0; k < claimers; ++k) {
    enqueue([this, group](int self, bool stolen) {
      claim_indices(*group, self, stolen);
    });
  }
  claim_indices(*group, /*self=*/-1, /*stolen=*/false);
  {
    std::unique_lock<std::mutex> lock(group->mutex);
    group->done.wait(lock, [&]() {
      return group->remaining.load(std::memory_order_acquire) == 0;
    });
  }
  if (group->first_error) std::rethrow_exception(group->first_error);
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

bool ThreadPool::running_task() { return in_task_; }

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
