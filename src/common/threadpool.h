#ifndef BISTRO_COMMON_THREADPOOL_H_
#define BISTRO_COMMON_THREADPOOL_H_

#include <condition_variable>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace bistro {

/// Fixed-size worker pool. Used by the delivery scheduler to model a
/// partition's dedicated CPU share: each scheduling partition owns its own
/// pool, so a slow partition cannot consume another partition's workers.
class ThreadPool {
 public:
  explicit ThreadPool(size_t num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueues a task; returns false if the pool is shutting down.
  bool Submit(std::function<void()> task);

  /// Blocks until the queue is empty and all workers are idle.
  void Wait();

  /// Stops accepting tasks, drains the queue, joins workers.
  void Shutdown();

  size_t num_threads() const { return threads_.size(); }

 private:
  void WorkerLoop();

  std::mutex mu_;
  std::condition_variable work_cv_;
  std::condition_variable idle_cv_;
  std::deque<std::function<void()>> queue_;
  std::vector<std::thread> threads_;
  size_t active_ = 0;
  bool shutdown_ = false;
};

}  // namespace bistro

#endif  // BISTRO_COMMON_THREADPOOL_H_
