#ifndef LOGSTORE_COMMON_THREADPOOL_H_
#define LOGSTORE_COMMON_THREADPOOL_H_

#include <condition_variable>
#include <deque>
#include <functional>
#include <future>
#include <mutex>
#include <thread>
#include <vector>

namespace logstore {

// A fixed-size thread pool. Used by the data builder's process-wide build
// pool (every build pass encodes and uploads its LogBlocks on it), by each
// query engine's block-scan pool and by the parallel prefetch service
// (§5.2).
class ThreadPool {
 public:
  explicit ThreadPool(int num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  // Schedules `fn` to run on a pool thread.
  void Schedule(std::function<void()> fn);

  // Schedules `fn` and returns a future for its result.
  template <typename F>
  auto Submit(F&& fn) -> std::future<decltype(fn())> {
    using R = decltype(fn());
    auto task = std::make_shared<std::packaged_task<R()>>(std::forward<F>(fn));
    std::future<R> future = task->get_future();
    Schedule([task] { (*task)(); });
    return future;
  }

  // Blocks until all scheduled work has finished.
  void Wait();

  int num_threads() const { return static_cast<int>(threads_.size()); }
  size_t queue_depth() const;

 private:
  void WorkerLoop();

  mutable std::mutex mu_;
  std::condition_variable work_available_;
  std::condition_variable idle_;
  std::deque<std::function<void()>> queue_;
  std::vector<std::thread> threads_;
  int active_ = 0;
  bool shutdown_ = false;
};

}  // namespace logstore

#endif  // LOGSTORE_COMMON_THREADPOOL_H_
