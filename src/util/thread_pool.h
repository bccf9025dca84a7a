#ifndef USJ_UTIL_THREAD_POOL_H_
#define USJ_UTIL_THREAD_POOL_H_

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "util/status.h"

namespace sj {

/// A fixed-size pool of worker threads shared morsel-style by any number
/// of concurrent clients. Work is submitted through *task groups*: each
/// group (one query's partition pairs, one refinement's slices) keeps
/// its own FIFO, and the workers drain the groups round-robin — one task
/// per group per turn — so a query with a thousand strips cannot starve a
/// query with two.
///
/// Waiting is *helping*: Group::Wait() runs the group's still-queued
/// tasks on the calling thread and only blocks for tasks already running
/// elsewhere. Because every waiter makes progress through its own queue,
/// nested parallelism (a query task on a worker fanning out its strips
/// onto the same pool) can never deadlock, no matter how many queries
/// are in flight.
///
/// `num_threads == 0` degenerates to inline execution on the submitting
/// thread, so callers can thread a `num_threads` knob straight through
/// without special-casing serial runs.
class ThreadPool {
 public:
  explicit ThreadPool(uint32_t num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// One client's slice of the pool: submit any number of tasks, then
  /// Wait() for all of them. Waiting helps (see class comment). The
  /// destructor waits. A Group is owned by one thread; the pool may be
  /// shared by any number of groups on any threads.
  class Group {
   public:
    explicit Group(ThreadPool& pool);
    ~Group();

    Group(const Group&) = delete;
    Group& operator=(const Group&) = delete;

    /// Enqueues `fn` (runs it inline when the pool has no workers).
    void Submit(std::function<void()> fn);

    /// Blocks until every submitted task has finished, executing queued
    /// tasks of this group on the calling thread while it waits. Rethrows
    /// the first exception any task of the group raised.
    void Wait();

   private:
    friend class ThreadPool;
    struct State;
    ThreadPool& pool_;
    std::shared_ptr<State> state_;
  };

  /// Enqueues `fn` on an internal single-use group. The future becomes
  /// ready when the task finishes and rethrows any exception the task
  /// body raised.
  std::future<void> Submit(std::function<void()> fn);

  /// Number of worker threads (0 = inline mode).
  uint32_t size() const { return static_cast<uint32_t>(workers_.size()); }

 private:
  void WorkerLoop();
  /// Pops the next task in round-robin group order. Returns false when no
  /// group has queued work. Caller must hold mu_.
  bool PopNextLocked(std::function<void()>* fn,
                     std::shared_ptr<Group::State>* group);
  /// Runs `fn` outside the lock, capturing exceptions and completing the
  /// group's bookkeeping.
  void RunTask(std::function<void()> fn, const std::shared_ptr<Group::State>& group);

  std::mutex mu_;
  std::condition_variable cv_;
  /// Round-robin ring of groups with queued tasks (each appears once).
  std::deque<std::shared_ptr<Group::State>> ready_groups_;
  bool shutdown_ = false;
  std::vector<std::thread> workers_;
};

/// Runs `fn(i)` for every i in [0, n) on up to `num_threads` workers
/// (<= 1 means inline on the caller). Indices are claimed dynamically, but
/// the reported error is the non-OK status with the *lowest index*, so the
/// Status a caller sees never depends on thread scheduling. Once any task
/// fails, unclaimed indices are abandoned. Task exceptions propagate to
/// the caller.
///
/// With `shared == nullptr` the call spins up a private pool of
/// `num_threads` workers (the pre-service behaviour). With a shared pool,
/// the caller becomes one runner and up to `num_threads - 1` helper
/// runners are submitted as one task group — concurrent ParallelFors
/// interleave fairly on the shared workers instead of spawning one team
/// each, and the helping Wait() keeps nested calls deadlock-free.
Status ParallelFor(ThreadPool* shared, uint32_t num_threads, uint64_t n,
                   const std::function<Status(uint64_t)>& fn);

/// Private-pool form (equivalent to shared == nullptr).
Status ParallelFor(uint32_t num_threads, uint64_t n,
                   const std::function<Status(uint64_t)>& fn);

/// True when ParallelFor(shared, num_threads, n, ...) runs every index on
/// the calling thread, in index order, without handing any to a helper.
/// Callers that stream results in index order may then skip buffering.
bool ParallelForRunsInline(const ThreadPool* shared, uint32_t num_threads,
                           uint64_t n);

}  // namespace sj

#endif  // USJ_UTIL_THREAD_POOL_H_
