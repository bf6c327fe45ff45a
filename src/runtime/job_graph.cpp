#include "runtime/job_graph.hpp"

#include <condition_variable>
#include <mutex>
#include <stdexcept>
#include <utility>

#include "util/assert.hpp"

namespace isex::runtime {

JobGraph::JobId JobGraph::add(std::string name, std::function<void()> fn) {
  ISEX_ASSERT_MSG(!ran_, "JobGraph is single-shot");
  Job job;
  job.name = std::move(name);
  job.fn = std::move(fn);
  jobs_.push_back(std::move(job));
  return jobs_.size() - 1;
}

void JobGraph::add_dependency(JobId job, JobId prerequisite) {
  ISEX_ASSERT(job < jobs_.size() && prerequisite < jobs_.size());
  ISEX_ASSERT_MSG(job != prerequisite, "a job cannot depend on itself");
  jobs_[prerequisite].successors.push_back(job);
  ++jobs_[job].prerequisites;
}

void JobGraph::run(ThreadPool& pool) {
  ISEX_ASSERT_MSG(!ran_, "JobGraph is single-shot");
  ran_ = true;
  if (jobs_.empty()) return;

  // Kahn topological order up front; a cycle is a caller bug and must be
  // reported before anything executes.
  std::vector<int> prereqs(jobs_.size());
  for (JobId id = 0; id < jobs_.size(); ++id)
    prereqs[id] = jobs_[id].prerequisites;
  std::vector<JobId> order;
  {
    std::vector<int> remaining = prereqs;
    order.reserve(jobs_.size());
    for (JobId id = 0; id < jobs_.size(); ++id)
      if (remaining[id] == 0) order.push_back(id);
    for (std::size_t head = 0; head < order.size(); ++head)
      for (const JobId s : jobs_[order[head]].successors)
        if (--remaining[s] == 0) order.push_back(s);
    if (order.size() != jobs_.size())
      throw std::logic_error("JobGraph: dependency cycle");
  }

  // Serial fallback inside a task of any pool, by parallel_for's rule:
  // queue-and-wait from inside a worker could deadlock a busy pool.
  // Topological order preserves the parallel path's contract exactly.
  if (ThreadPool::running_task() || pool.num_threads() == 0) {
    std::vector<bool> poisoned(jobs_.size(), false);
    std::exception_ptr first_error;
    for (const JobId id : order) {
      Job& job = jobs_[id];
      if (poisoned[id]) {
        job.state = State::kSkipped;
      } else {
        try {
          job.fn();
          job.state = State::kDone;
        } catch (...) {
          job.state = State::kFailed;
          if (!first_error) first_error = std::current_exception();
        }
      }
      if (job.state != State::kDone)
        for (const JobId s : job.successors) poisoned[s] = true;
    }
    if (first_error) std::rethrow_exception(first_error);
    return;
  }

  struct Shared {
    std::mutex mutex;
    std::condition_variable done_cv;
    std::size_t finished = 0;
    std::exception_ptr first_error;
    std::vector<int> remaining;
    std::vector<bool> poisoned;
  };
  Shared shared;
  shared.remaining = prereqs;
  shared.poisoned.assign(jobs_.size(), false);

  // Records one job's outcome, poisons/releases successors, and collects
  // jobs that just became runnable.  Caller holds shared.mutex.
  auto finish = [&](JobId id, State state, std::vector<JobId>& runnable) {
    std::vector<std::pair<JobId, State>> stack = {{id, state}};
    while (!stack.empty()) {
      const auto [cur, cur_state] = stack.back();
      stack.pop_back();
      jobs_[cur].state = cur_state;
      ++shared.finished;
      for (const JobId s : jobs_[cur].successors) {
        if (cur_state != State::kDone) shared.poisoned[s] = true;
        if (--shared.remaining[s] == 0) {
          if (shared.poisoned[s]) {
            stack.emplace_back(s, State::kSkipped);
          } else {
            runnable.push_back(s);
          }
        }
      }
    }
  };

  std::function<void(JobId)> dispatch = [&](JobId id) {
    (void)pool.submit([&, id]() {
      State state = State::kDone;
      try {
        jobs_[id].fn();
      } catch (...) {
        state = State::kFailed;
        std::lock_guard<std::mutex> lock(shared.mutex);
        if (!shared.first_error) shared.first_error = std::current_exception();
      }
      std::vector<JobId> runnable;
      {
        // Notify while still holding the mutex: the waiter cannot wake, see
        // the predicate, and destroy `shared` until we release it — after
        // which this thread never touches `shared` again.
        std::lock_guard<std::mutex> lock(shared.mutex);
        finish(id, state, runnable);
        if (shared.finished == jobs_.size()) shared.done_cv.notify_all();
      }
      for (const JobId r : runnable) dispatch(r);
    });
  };

  for (JobId id = 0; id < jobs_.size(); ++id)
    if (prereqs[id] == 0) dispatch(id);

  std::unique_lock<std::mutex> lock(shared.mutex);
  shared.done_cv.wait(lock, [&]() { return shared.finished == jobs_.size(); });
  if (shared.first_error) std::rethrow_exception(shared.first_error);
}

}  // namespace isex::runtime
