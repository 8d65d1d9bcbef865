#include "util/task_pool.hpp"

#include <algorithm>
#include <memory>
#include <utility>

#include "util/error.hpp"
#include "util/fault_injection.hpp"

namespace apc::util {

TaskPool::TaskPool(std::size_t threads) {
  workers_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i)
    workers_.emplace_back([this] { worker_loop(); });
}

TaskPool::~TaskPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  for (std::thread& t : workers_) t.join();
}

std::size_t TaskPool::resolve_threads(std::size_t requested) {
  if (requested > 0) return requested;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? hw : 1;
}

void TaskPool::register_metrics(obs::MetricsRegistry& reg,
                                const std::string& prefix) const {
  reg.register_counter(prefix + "tasks_executed", &tasks_executed_);
  reg.register_counter(prefix + "help_joins", &help_joins_);
  reg.register_gauge(prefix + "queue_depth_high_water", &queue_depth_hw_);
}

void TaskPool::execute(std::unique_lock<std::mutex>& lock, Task task) {
  lock.unlock();
  try {
    // Chaos hook: a fired "taskpool.task" fault surfaces through the same
    // capture-and-rethrow path a real task exception takes, so tests can
    // prove fork/join error propagation without a cooperating task.
    if (fault_fires("taskpool.task"))
      throw Error(ErrorCode::kInternal, "injected fault at task boundary");
    task.fn();
  } catch (...) {
    if (task.group) {
      std::lock_guard<std::mutex> elock(task.group->error_mu_);
      if (!task.group->error_) task.group->error_ = std::current_exception();
    }
  }
  tasks_executed_.add();
  if (task.group) finish(*task.group);
  lock.lock();
}

void TaskPool::finish(Group& g) {
  if (g.pending_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
    // Last task: wake joiners.  Take the lock so the notify cannot slip
    // between a joiner's predicate check and its wait.
    std::lock_guard<std::mutex> lock(mu_);
    cv_.notify_all();
  }
}

void TaskPool::worker_loop() {
  std::unique_lock<std::mutex> lock(mu_);
  while (true) {
    cv_.wait(lock, [&] { return stop_ || !queue_.empty(); });
    if (stop_) return;
    Task task = std::move(queue_.front());
    queue_.pop_front();
    execute(lock, std::move(task));
  }
}

void TaskPool::Group::run(std::function<void()> fn) {
  if (pool_.workers_.empty()) {
    fn();  // no workers: degenerate to inline execution (exceptions propagate)
    return;
  }
  pending_.fetch_add(1, std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lock(pool_.mu_);
    pool_.queue_.push_back({std::move(fn), this});
    pool_.queue_depth_hw_.update_max(
        static_cast<std::int64_t>(pool_.queue_.size()));
  }
  pool_.cv_.notify_all();
}

void TaskPool::Group::wait() {
  if (!pool_.workers_.empty()) {
    std::unique_lock<std::mutex> lock(pool_.mu_);
    while (pending_.load(std::memory_order_acquire) > 0) {
      if (!pool_.queue_.empty()) {
        // Help: run any queued task (possibly from another group) instead
        // of blocking — this is what makes recursive fork/join safe.
        Task task = std::move(pool_.queue_.front());
        pool_.queue_.pop_front();
        pool_.help_joins_.add();
        pool_.execute(lock, std::move(task));
      } else {
        pool_.cv_.wait(lock, [&] {
          return pending_.load(std::memory_order_acquire) == 0 ||
                 !pool_.queue_.empty();
        });
      }
    }
  }
  std::exception_ptr err;
  {
    std::lock_guard<std::mutex> elock(error_mu_);
    err = std::exchange(error_, nullptr);
  }
  if (err) std::rethrow_exception(err);
}

void TaskPool::fan_out(std::size_t total, std::size_t grain,
                       const std::function<void(std::size_t, std::size_t)>& fn) {
  struct Cursor {
    std::atomic<std::size_t> next{0};
    std::size_t chunk_count = 0;
    std::size_t grain = 1;
    std::size_t total = 0;
  };
  // Shared so a straggler task that starts after parallel_for returned
  // (having found no chunk left) still reads valid state.
  auto cur = std::make_shared<Cursor>();
  cur->chunk_count = (total + grain - 1) / grain;
  cur->grain = grain;
  cur->total = total;

  const auto run_chunks = [cur, &fn] {
    while (true) {
      const std::size_t c = cur->next.fetch_add(1, std::memory_order_relaxed);
      if (c >= cur->chunk_count) return;
      const std::size_t first = c * cur->grain;
      const std::size_t last = std::min(first + cur->grain, cur->total);
      fn(first, last);
    }
  };

  Group g(*this);
  const std::size_t helpers = std::min(workers_.size(), cur->chunk_count - 1);
  for (std::size_t i = 0; i < helpers; ++i) g.run(run_chunks);
  run_chunks();  // the caller is a claimant too
  g.wait();
}

}  // namespace apc::util
