#ifndef LOGSTORE_COMMON_THREADPOOL_H_
#define LOGSTORE_COMMON_THREADPOOL_H_

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <future>
#include <mutex>
#include <thread>
#include <vector>

#include "common/fair_queue.h"

namespace logstore {

// A fixed-size thread pool whose queue is fair across owners: each task is
// queued under an owner, owners are served round-robin and each owner's
// tasks run in FIFO order. Used by the data builder's process-wide build
// pool (every build pass encodes and uploads its LogBlocks on it, all under
// owner 0, so strict FIFO), by the query engine's block-scan pool (owner =
// the query's tenant, the per-tenant isolation of DESIGN §12) and by the
// parallel prefetch service (owner = the issuing query, §5.2).
class ThreadPool {
 public:
  explicit ThreadPool(int num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  // Schedules `fn` to run on a pool thread, queued behind `owner`'s earlier
  // tasks and taking turns with every other owner's.
  void Schedule(uint64_t owner, std::function<void()> fn);
  // Owner 0: a single-owner caller keeps strict FIFO.
  void Schedule(std::function<void()> fn) { Schedule(0, std::move(fn)); }

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
  FairQueue<std::function<void()>> queue_;
  std::vector<std::thread> threads_;
  int active_ = 0;
  bool shutdown_ = false;
};

}  // namespace logstore

#endif  // LOGSTORE_COMMON_THREADPOOL_H_
