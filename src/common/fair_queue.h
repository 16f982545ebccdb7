#ifndef LOGSTORE_COMMON_FAIR_QUEUE_H_
#define LOGSTORE_COMMON_FAIR_QUEUE_H_

#include <cstdint>
#include <deque>
#include <map>

namespace logstore {

// Per-owner FIFO queues drained round-robin across owners: the task queue
// of ThreadPool. Within an owner, strict FIFO; across owners, each PopNext
// serves the first owner strictly after the last-served one, wrapping to
// the smallest — so one owner enqueueing hundreds of items shares the drain
// rate fairly with an owner enqueueing one.
//
// Externally synchronized: the caller holds its own mutex around every call.
template <typename T>
class FairQueue {
 public:
  void Push(uint64_t owner, T item) {
    queues_[owner].push_back(std::move(item));
    ++size_;
  }

  // Pops the next item round-robin across owners. Returns false when empty.
  bool PopNext(T* out) {
    if (queues_.empty()) return false;
    auto it = queues_.upper_bound(rr_last_owner_);
    if (it == queues_.end()) it = queues_.begin();
    rr_last_owner_ = it->first;
    *out = std::move(it->second.front());
    it->second.pop_front();
    if (it->second.empty()) queues_.erase(it);
    --size_;
    return true;
  }

  bool empty() const { return size_ == 0; }
  size_t size() const { return size_; }

 private:
  std::map<uint64_t, std::deque<T>> queues_;
  uint64_t rr_last_owner_ = 0;
  size_t size_ = 0;
};

}  // namespace logstore

#endif  // LOGSTORE_COMMON_FAIR_QUEUE_H_
