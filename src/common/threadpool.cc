#include "common/threadpool.h"

namespace logstore {

ThreadPool::ThreadPool(int num_threads) {
  threads_.reserve(num_threads);
  for (int i = 0; i < num_threads; ++i) {
    threads_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    shutdown_ = true;
  }
  work_available_.notify_all();
  for (auto& t : threads_) t.join();
}

void ThreadPool::Schedule(uint64_t owner, std::function<void()> fn) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    queue_.Push(owner, std::move(fn));
  }
  work_available_.notify_one();
}

void ThreadPool::Wait() {
  std::unique_lock<std::mutex> lock(mu_);
  idle_.wait(lock, [this] { return queue_.empty() && active_ == 0; });
}

size_t ThreadPool::queue_depth() const {
  std::lock_guard<std::mutex> lock(mu_);
  return queue_.size();
}

void ThreadPool::WorkerLoop() {
  while (true) {
    std::function<void()> fn;
    {
      std::unique_lock<std::mutex> lock(mu_);
      work_available_.wait(lock, [this] { return shutdown_ || !queue_.empty(); });
      if (!queue_.PopNext(&fn)) return;  // shutdown with drained queue
      ++active_;
    }
    fn();
    {
      std::lock_guard<std::mutex> lock(mu_);
      --active_;
      if (queue_.empty() && active_ == 0) idle_.notify_all();
    }
  }
}

}  // namespace logstore
