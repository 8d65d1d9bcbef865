// A reusable fork/join task pool (extracted from the former
// engine/worker_pool so construction code can share it with the query
// engine).
//
// Two usage patterns:
//
//  * parallel_for(total, grain, fn) — the flat chunk-claiming loop the
//    batch query engine uses: claimants take fixed-size chunks of an index
//    range from a shared atomic cursor, so load balances even when per-item
//    cost varies.
//
//  * Group — recursive fork/join for divide-and-conquer construction
//    (parallel atom computation, parallel AP Tree subtree builds).  A task
//    may itself create a Group and fork subtasks; a thread that joins a
//    Group *helps*: it drains pending tasks from the shared queue instead
//    of blocking, so nested forks never deadlock and no thread busy-spins
//    (idle threads park on a condition variable).
//
// Threads are started once and live for the pool's lifetime.  A pool with 0
// worker threads is valid and degenerates to inline execution on the
// calling thread — useful for deterministic tests and 1-core machines.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "obs/metrics.hpp"
#include "util/error.hpp"

namespace apc::util {

class TaskPool {
 public:
  /// Starts `threads` worker threads (callers of wait()/parallel_for also
  /// execute tasks, so effective parallelism is threads + callers).
  explicit TaskPool(std::size_t threads);
  ~TaskPool();

  TaskPool(const TaskPool&) = delete;
  TaskPool& operator=(const TaskPool&) = delete;

  std::size_t thread_count() const { return workers_.size(); }

  /// `threads` knob resolution used across the construction pipeline:
  /// 0 = hardware_concurrency (min 1), anything else is taken literally.
  static std::size_t resolve_threads(std::size_t requested);

  /// A fork/join scope.  run() enqueues a task; wait() blocks until every
  /// task run() through this group has finished, helping to execute queued
  /// tasks (from any group) while it waits.  The destructor waits too, so a
  /// Group can never outlive its forked work.  If a task throws, the first
  /// exception is captured and rethrown from wait().
  class Group {
   public:
    explicit Group(TaskPool& pool) : pool_(pool) {}
    ~Group() noexcept(false) { wait(); }

    Group(const Group&) = delete;
    Group& operator=(const Group&) = delete;

    /// Forks `fn` as a task.  With 0 worker threads the task runs inline.
    void run(std::function<void()> fn);
    void wait();

   private:
    friend class TaskPool;
    TaskPool& pool_;
    std::atomic<std::size_t> pending_{0};
    std::mutex error_mu_;
    std::exception_ptr error_;
  };

  /// Invokes fn(first, last) over disjoint chunks covering [0, total).
  /// Blocks until every chunk has completed; the calling thread
  /// participates.  Safe to call concurrently from several threads (each
  /// call is its own Group); `fn` must be safe to invoke concurrently.  A
  /// range of at most `grain` items, or any range on a pool with no
  /// workers, runs as one fn(0, total) on the caller, with no heap work:
  /// only a real fan-out wraps `fn` in a std::function.
  template <typename Fn>
  void parallel_for(std::size_t total, std::size_t grain, Fn&& fn) {
    if (total == 0) return;
    require(grain > 0, "TaskPool::parallel_for: zero grain");
    if (workers_.empty() || total <= grain) {
      fn(std::size_t{0}, total);
      return;
    }
    fan_out(total, grain, fn);
  }

  // ---- Observability (see src/obs/) ----
  /// Tasks run to completion (by workers and helping joiners alike).
  const obs::Counter& tasks_executed() const { return tasks_executed_; }
  /// Tasks a joiner executed while help-waiting in Group::wait().
  const obs::Counter& help_joins() const { return help_joins_; }
  /// High-water mark of the shared queue depth since construction.
  const obs::Gauge& queue_depth_high_water() const { return queue_depth_hw_; }
  /// Registers the pool's metrics under `prefix` (e.g. "pool.").
  void register_metrics(obs::MetricsRegistry& reg, const std::string& prefix) const;

 private:
  struct Task {
    std::function<void()> fn;
    Group* group = nullptr;
  };

  /// parallel_for's chunk-claiming loop over a range larger than `grain`.
  void fan_out(std::size_t total, std::size_t grain,
               const std::function<void(std::size_t, std::size_t)>& fn);
  void worker_loop();
  /// Runs one task popped under `lock` (released while executing).
  void execute(std::unique_lock<std::mutex>& lock, Task task);
  /// Marks one task of `g` complete; wakes joiners when the group drains.
  void finish(Group& g);

  std::vector<std::thread> workers_;
  std::mutex mu_;               // guards queue_/stop_
  std::condition_variable cv_;  // signaled on enqueue, group drain, stop
  std::deque<Task> queue_;
  bool stop_ = false;

  obs::Counter tasks_executed_;
  obs::Counter help_joins_;
  obs::Gauge queue_depth_hw_;
};

}  // namespace apc::util
