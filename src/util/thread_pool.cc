#include "util/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <utility>

namespace sj {

/// Shared between a Group handle, the pool's ready ring, and any workers
/// currently running the group's tasks, so the bookkeeping survives
/// whichever of them finishes last.
struct ThreadPool::Group::State {
  std::deque<std::function<void()>> pending;
  size_t running = 0;
  bool in_ring = false;  // Linked in ready_groups_.
  std::exception_ptr first_exception;
  std::condition_variable done_cv;
};

ThreadPool::ThreadPool(uint32_t num_threads) {
  workers_.reserve(num_threads);
  for (uint32_t i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    shutdown_ = true;
  }
  cv_.notify_all();
  for (std::thread& w : workers_) w.join();
}

bool ThreadPool::PopNextLocked(std::function<void()>* fn,
                               std::shared_ptr<Group::State>* group) {
  if (ready_groups_.empty()) return false;
  // One task per group per turn: take the front group's next task, then
  // rotate it to the back (or drop it from the ring when drained).
  std::shared_ptr<Group::State> g = std::move(ready_groups_.front());
  ready_groups_.pop_front();
  *fn = std::move(g->pending.front());
  g->pending.pop_front();
  g->running++;
  if (g->pending.empty()) {
    g->in_ring = false;
  } else {
    ready_groups_.push_back(g);
  }
  *group = std::move(g);
  return true;
}

void ThreadPool::RunTask(std::function<void()> fn,
                         const std::shared_ptr<Group::State>& group) {
  std::exception_ptr exception;
  try {
    fn();
  } catch (...) {
    exception = std::current_exception();
  }
  std::lock_guard<std::mutex> lock(mu_);
  group->running--;
  if (exception && !group->first_exception) {
    group->first_exception = exception;
  }
  if (group->running == 0 && group->pending.empty()) {
    group->done_cv.notify_all();
  }
}

void ThreadPool::WorkerLoop() {
  for (;;) {
    std::function<void()> fn;
    std::shared_ptr<Group::State> group;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this] { return shutdown_ || !ready_groups_.empty(); });
      // Drain all queued work even during shutdown so every submitted
      // task runs and every Wait()/future becomes ready.
      if (!PopNextLocked(&fn, &group)) return;
    }
    RunTask(std::move(fn), group);
  }
}

ThreadPool::Group::Group(ThreadPool& pool)
    : pool_(pool), state_(std::make_shared<State>()) {}

ThreadPool::Group::~Group() { Wait(); }

void ThreadPool::Group::Submit(std::function<void()> fn) {
  if (pool_.workers_.empty()) {
    // Inline mode: run now; exceptions surface at Wait() like everywhere
    // else so Submit's control flow does not depend on the pool size.
    std::exception_ptr exception;
    try {
      fn();
    } catch (...) {
      exception = std::current_exception();
    }
    if (exception) {
      std::lock_guard<std::mutex> lock(pool_.mu_);
      if (!state_->first_exception) state_->first_exception = exception;
    }
    return;
  }
  {
    std::lock_guard<std::mutex> lock(pool_.mu_);
    state_->pending.push_back(std::move(fn));
    if (!state_->in_ring) {
      state_->in_ring = true;
      pool_.ready_groups_.push_back(state_);
    }
  }
  pool_.cv_.notify_one();
}

void ThreadPool::Group::Wait() {
  std::unique_lock<std::mutex> lock(pool_.mu_);
  for (;;) {
    if (!state_->pending.empty()) {
      // Help: run this group's own queued work on the waiting thread. A
      // task running here frees a worker slot for other groups and keeps
      // nested ParallelFors deadlock-free.
      std::function<void()> fn = std::move(state_->pending.front());
      state_->pending.pop_front();
      state_->running++;
      if (state_->pending.empty() && state_->in_ring) {
        state_->in_ring = false;
        for (auto it = pool_.ready_groups_.begin();
             it != pool_.ready_groups_.end(); ++it) {
          if (it->get() == state_.get()) {
            pool_.ready_groups_.erase(it);
            break;
          }
        }
      }
      lock.unlock();
      pool_.RunTask(std::move(fn), state_);
      lock.lock();
      continue;
    }
    if (state_->running == 0) break;
    state_->done_cv.wait(lock);
  }
  std::exception_ptr exception = state_->first_exception;
  state_->first_exception = nullptr;
  lock.unlock();
  if (exception) std::rethrow_exception(exception);
}

std::future<void> ThreadPool::Submit(std::function<void()> fn) {
  auto task =
      std::make_shared<std::packaged_task<void()>>(std::move(fn));
  std::future<void> future = task->get_future();
  if (workers_.empty()) {
    (*task)();  // Inline mode.
    return future;
  }
  auto state = std::make_shared<Group::State>();
  {
    std::lock_guard<std::mutex> lock(mu_);
    state->pending.push_back([task] { (*task)(); });
    state->in_ring = true;
    ready_groups_.push_back(std::move(state));
  }
  cv_.notify_one();
  return future;
}

Status ParallelFor(ThreadPool* shared, uint32_t num_threads, uint64_t n,
                   const std::function<Status(uint64_t)>& fn) {
  if (ParallelForRunsInline(shared, num_threads, n)) {
    for (uint64_t i = 0; i < n; ++i) {
      Status s = fn(i);
      if (!s.ok()) return s;
    }
    return Status::OK();
  }

  const uint32_t runners =
      static_cast<uint32_t>(std::min<uint64_t>(num_threads, n));
  std::vector<Status> statuses(n);
  std::atomic<uint64_t> next{0};
  std::atomic<bool> failed{false};
  auto runner = [&] {
    for (;;) {
      const uint64_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= n || failed.load(std::memory_order_relaxed)) return;
      statuses[i] = fn(i);
      if (!statuses[i].ok()) failed.store(true, std::memory_order_relaxed);
    }
  };

  if (shared != nullptr) {
    // Morsel mode: the caller is one runner; the helpers land on the
    // shared pool as one group, so concurrent queries interleave fairly
    // instead of spawning a private team each. The caller's own runner
    // loop claims every index even if no helper ever gets a worker slot,
    // so progress never depends on the pool's load.
    ThreadPool::Group group(*shared);
    for (uint32_t w = 0; w + 1 < runners; ++w) group.Submit(runner);
    std::exception_ptr caller_exception;
    try {
      runner();
    } catch (...) {
      caller_exception = std::current_exception();
    }
    group.Wait();  // Helps, then blocks; rethrows helper exceptions.
    if (caller_exception) std::rethrow_exception(caller_exception);
  } else {
    ThreadPool pool(runners);
    std::vector<std::future<void>> futures;
    futures.reserve(runners);
    for (uint32_t w = 0; w < runners; ++w) futures.push_back(pool.Submit(runner));
    std::exception_ptr first_exception;
    for (std::future<void>& f : futures) {
      try {
        f.get();
      } catch (...) {
        if (!first_exception) first_exception = std::current_exception();
      }
    }
    if (first_exception) std::rethrow_exception(first_exception);
  }

  for (uint64_t i = 0; i < n; ++i) {
    if (!statuses[i].ok()) return statuses[i];
  }
  return Status::OK();
}

Status ParallelFor(uint32_t num_threads, uint64_t n,
                   const std::function<Status(uint64_t)>& fn) {
  return ParallelFor(nullptr, num_threads, n, fn);
}

bool ParallelForRunsInline(const ThreadPool* shared, uint32_t num_threads,
                           uint64_t n) {
  return num_threads <= 1 || n <= 1 ||
         (shared != nullptr && shared->size() == 0);
}

}  // namespace sj
