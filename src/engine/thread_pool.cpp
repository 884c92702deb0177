#include "engine/thread_pool.h"

#include <chrono>
#include <utility>

#include "obs/metrics.h"

namespace patchecko {

namespace {

// Bound once; the registry guarantees handle stability (see obs/metrics.h).
// All four counters plus the depth gauge let tests check internal
// consistency: submitted == local_pops + steals == completed after a drain,
// and the queue-depth gauge returns to zero.
struct PoolMetrics {
  obs::Counter& submitted = obs::Registry::global().counter("pool.submitted");
  obs::Counter& local_pops =
      obs::Registry::global().counter("pool.local_pops");
  obs::Counter& steals = obs::Registry::global().counter("pool.steals");
  obs::Counter& completed = obs::Registry::global().counter("pool.completed");
  obs::Gauge& queue_depth = obs::Registry::global().gauge("pool.queue_depth");

  static PoolMetrics& get() {
    static PoolMetrics metrics;
    return metrics;
  }
};

}  // namespace

ThreadPool::ThreadPool(unsigned thread_count) {
  if (thread_count == 0) {
    const unsigned hw = std::thread::hardware_concurrency();
    thread_count = hw == 0 ? 1 : hw;
  }
  queues_.reserve(thread_count);
  for (unsigned i = 0; i < thread_count; ++i)
    queues_.push_back(std::make_unique<WorkerQueue>());
  workers_.reserve(thread_count);
  for (unsigned i = 0; i < thread_count; ++i)
    workers_.emplace_back([this, i] { worker_loop(i); });
}

ThreadPool::~ThreadPool() {
  stop_.store(true);
  {
    // Lock/unlock pairs with the wait predicate so no worker can miss the
    // stop flag between checking it and going to sleep.
    std::lock_guard<std::mutex> barrier(sleep_mutex_);
  }
  wake_.notify_all();
  for (std::thread& worker : workers_) worker.join();
}

void ThreadPool::submit(std::function<void()> task) {
  const std::size_t slot =
      next_queue_.fetch_add(1, std::memory_order_relaxed) % queues_.size();
  {
    std::lock_guard<std::mutex> lock(queues_[slot]->mutex);
    queues_[slot]->tasks.push_back(std::move(task));
  }
  queued_.fetch_add(1, std::memory_order_release);
  PoolMetrics::get().submitted.add();
  PoolMetrics::get().queue_depth.add(1);
  {
    std::lock_guard<std::mutex> barrier(sleep_mutex_);
  }
  wake_.notify_one();
}

bool ThreadPool::pop_task(std::size_t preferred, std::function<void()>& out) {
  const std::size_t n = queues_.size();
  for (std::size_t offset = 0; offset < n; ++offset) {
    WorkerQueue& queue = *queues_[(preferred + offset) % n];
    std::lock_guard<std::mutex> lock(queue.mutex);
    if (queue.tasks.empty()) continue;
    if (offset == 0) {  // own queue: LIFO keeps the working set hot
      out = std::move(queue.tasks.back());
      queue.tasks.pop_back();
      PoolMetrics::get().local_pops.add();
    } else {  // steal the oldest task: FIFO spreads whole subtrees
      out = std::move(queue.tasks.front());
      queue.tasks.pop_front();
      PoolMetrics::get().steals.add();
    }
    queued_.fetch_sub(1, std::memory_order_relaxed);
    PoolMetrics::get().queue_depth.add(-1);
    return true;
  }
  return false;
}

bool ThreadPool::try_run_one() {
  // External threads have no own deque; start the scan at a rotating slot so
  // concurrent helpers don't all hammer queue 0.
  std::function<void()> task;
  const std::size_t start =
      next_queue_.fetch_add(1, std::memory_order_relaxed) % queues_.size();
  if (!pop_task(start, task)) return false;
  task();
  return true;
}

void ThreadPool::worker_loop(std::size_t index) {
  while (true) {
    std::function<void()> task;
    if (pop_task(index, task)) {
      task();
      continue;
    }
    std::unique_lock<std::mutex> lock(sleep_mutex_);
    wake_.wait(lock, [this] {
      return stop_.load() || queued_.load(std::memory_order_acquire) > 0;
    });
    if (stop_.load() && queued_.load(std::memory_order_acquire) == 0) return;
  }
}

ThreadPool& ThreadPool::shared() {
  static ThreadPool pool;
  return pool;
}

TaskGroup::~TaskGroup() {
  try {
    wait();
  } catch (...) {
    // Destruction must not throw; an unconsumed task exception is dropped.
  }
}

void TaskGroup::run(std::function<void()> task) {
  const std::size_t index =
      submitted_.fetch_add(1, std::memory_order_relaxed);
  remaining_.fetch_add(1, std::memory_order_relaxed);
  pool_.submit([this, index, task = std::move(task)] {
    try {
      task();
    } catch (...) {
      std::lock_guard<std::mutex> lock(mutex_);
      if (index < error_index_) {
        error_index_ = index;
        error_ = std::current_exception();
      }
    }
    PoolMetrics::get().completed.add();
    finish_one();
  });
}

void TaskGroup::finish_one() {
  // The decrement must happen under mutex_: wait() ends by acquiring
  // mutex_, so it cannot return (and let the owner destroy this group)
  // until the completing task has fully left this critical section.
  // Decrementing outside the lock leaves a window where the group is
  // destroyed between this thread's decrement and its notify, and the
  // notify then touches a dead mutex.
  std::lock_guard<std::mutex> lock(mutex_);
  if (remaining_.fetch_sub(1, std::memory_order_acq_rel) == 1)
    done_.notify_all();
}

void TaskGroup::wait() {
  while (remaining_.load(std::memory_order_acquire) > 0) {
    if (pool_.try_run_one()) continue;
    // Nothing queued: our tasks are in flight on workers. Sleep briefly; the
    // timeout covers the race where the last task finishes between the
    // remaining_ check above and this wait.
    std::unique_lock<std::mutex> lock(mutex_);
    done_.wait_for(lock, std::chrono::milliseconds(1), [this] {
      return remaining_.load(std::memory_order_acquire) == 0;
    });
  }
  std::lock_guard<std::mutex> lock(mutex_);
  if (error_) {
    std::exception_ptr error = std::exchange(error_, nullptr);
    error_index_ = static_cast<std::size_t>(-1);
    std::rethrow_exception(error);
  }
}

}  // namespace patchecko
