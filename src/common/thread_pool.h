// Fixed-size worker pool used by the async storage layer and the parallel
// ORAM executor. Tasks are plain std::function<void()>; completion is tracked
// either by futures (Submit) or by a WaitGroup-style counter (Dispatch/Wait).
#ifndef OBLADI_SRC_COMMON_THREAD_POOL_H_
#define OBLADI_SRC_COMMON_THREAD_POOL_H_

#include <condition_variable>
#include <deque>
#include <functional>
#include <future>
#include <mutex>
#include <thread>
#include <vector>

namespace obladi {

class ThreadPool {
 public:
  explicit ThreadPool(size_t num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  size_t num_threads() const { return workers_.size(); }

  // Enqueue a task; returns a future completed when it finishes.
  template <typename F>
  auto Submit(F&& fn) -> std::future<decltype(fn())> {
    using R = decltype(fn());
    auto task = std::make_shared<std::packaged_task<R()>>(std::forward<F>(fn));
    std::future<R> fut = task->get_future();
    Enqueue([task]() { (*task)(); });
    return fut;
  }

  // Fire-and-forget enqueue; pair with a CountdownLatch for completion.
  void Enqueue(std::function<void()> fn);

  // Run fn(i) for i in [0, n) across the pool and wait for all to finish.
  // Enqueues min(n, num_threads()) tasks; each index runs exactly once.
  void ParallelFor(size_t n, const std::function<void(size_t)>& fn);

 private:
  void WorkerLoop();

  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<std::function<void()>> queue_;
  std::vector<std::thread> workers_;
  bool stop_ = false;
};

// Simple countdown latch usable with fire-and-forget pool tasks.
class CountdownLatch {
 public:
  explicit CountdownLatch(size_t count) : count_(count) {}

  void CountDown() {
    std::lock_guard<std::mutex> lk(mu_);
    if (count_ > 0 && --count_ == 0) {
      cv_.notify_all();
    }
  }

  void Wait() {
    std::unique_lock<std::mutex> lk(mu_);
    cv_.wait(lk, [&] { return count_ == 0; });
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  size_t count_;
};

}  // namespace obladi

#endif  // OBLADI_SRC_COMMON_THREAD_POOL_H_
