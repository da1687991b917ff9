#include "src/common/thread_pool.h"

#include <algorithm>
#include <atomic>

namespace obladi {

ThreadPool::ThreadPool(size_t num_threads) {
  if (num_threads == 0) {
    num_threads = 1;
  }
  workers_.reserve(num_threads);
  for (size_t i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lk(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  for (auto& w : workers_) {
    w.join();
  }
}

void ThreadPool::Enqueue(std::function<void()> fn) {
  {
    std::lock_guard<std::mutex> lk(mu_);
    queue_.push_back(std::move(fn));
  }
  cv_.notify_one();
}

void ThreadPool::ParallelFor(size_t n, const std::function<void(size_t)>& fn) {
  if (n == 0) {
    return;
  }
  // One task per worker, not per index: each task claims indices from a
  // shared counter until none are left, so a task that starts late (its
  // worker still busy with other work) finds its share already taken.
  size_t tasks = std::min(n, workers_.size());
  std::atomic<size_t> next{0};
  CountdownLatch latch(tasks);
  for (size_t t = 0; t < tasks; ++t) {
    Enqueue([&] {
      for (size_t i = next.fetch_add(1, std::memory_order_relaxed); i < n;
           i = next.fetch_add(1, std::memory_order_relaxed)) {
        fn(i);
      }
      latch.CountDown();
    });
  }
  latch.Wait();
}

void ThreadPool::WorkerLoop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lk(mu_);
      cv_.wait(lk, [&] { return stop_ || !queue_.empty(); });
      if (stop_ && queue_.empty()) {
        return;
      }
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    task();
  }
}

}  // namespace obladi
