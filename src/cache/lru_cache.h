#ifndef LOGSTORE_CACHE_LRU_CACHE_H_
#define LOGSTORE_CACHE_LRU_CACHE_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/hash.h"
#include "common/metrics.h"

namespace logstore::cache {

struct CacheStats {
  metrics::Counter hits{0};
  metrics::Counter misses{0};
  metrics::Counter inserts{0};
  metrics::Counter evictions{0};

  double HitRate() const {
    const uint64_t h = hits.load(), m = misses.load();
    return h + m == 0 ? 0.0 : static_cast<double>(h) / (h + m);
  }
  void Reset() { hits = misses = inserts = evictions = 0; }

  // Mirrors this instance's increments into the registry's `cache.*`
  // aggregates for the given tier ("memory", "ssd", "object").
  void BindTo(metrics::MetricRegistry* registry, const std::string& tier) {
    const metrics::Labels labels = {{"tier", tier}};
    hits.Bind(registry->Counter("cache.hits", labels));
    misses.Bind(registry->Counter("cache.misses", labels));
    inserts.Bind(registry->Counter("cache.inserts", labels));
    evictions.Bind(registry->Counter("cache.evictions", labels));
  }
};

// A byte-budgeted LRU cache of shared values. Thread-safe via a single
// mutex; use ShardedLruCache for contended paths.
template <typename V>
class LruCache {
 public:
  explicit LruCache(uint64_t capacity_bytes, CacheStats* stats = nullptr)
      : capacity_(capacity_bytes), stats_(stats) {}

  // Inserts (or replaces) `key` with `value` of logical size `charge`,
  // evicting LRU entries to fit. Values larger than the whole capacity are
  // rejected up front: the rejection counts no insert and leaves any
  // existing entry for the same key untouched.
  void Insert(const std::string& key, std::shared_ptr<V> value,
              uint64_t charge) {
    std::vector<Evicted> victims;
    BatchEvictionCallback on_evict;
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (charge > capacity_) return;
      if (stats_ != nullptr) stats_->inserts++;
      auto it = map_.find(key);
      if (it != map_.end()) {
        used_ -= it->second->charge;
        lru_.erase(it->second->lru_pos);
        map_.erase(it);
      }
      auto entry = std::make_shared<Entry>();
      entry->value = std::move(value);
      entry->charge = charge;
      lru_.push_front(key);
      entry->lru_pos = lru_.begin();
      map_[key] = entry;
      used_ += charge;
      CollectEvictionsLocked(&victims);
      on_evict = on_evict_;
      if (!on_evict) victims.clear();
      // A victim stays readable until its callback (a spill to a lower
      // level) returns, so it is never in neither level.
      for (const Evicted& v : victims) spilling_[v.key] = v.value;
    }
    // The callback runs after the shard mutex is released: the SSD spill
    // does disk IO, and a callback that re-enters the cache must not
    // deadlock. It receives all victims of this insert at once, so adjacent
    // blocks evicted together can spill into one file.
    if (victims.empty()) return;
    on_evict(std::vector<Evicted>(victims));
    std::lock_guard<std::mutex> lock(mu_);
    for (const Evicted& v : victims) {  // unless a later eviction replaced it
      auto it = spilling_.find(v.key);
      if (it != spilling_.end() && it->second == v.value) spilling_.erase(it);
    }
  }

  // Returns the value and refreshes recency (or a victim whose eviction
  // callback is running), or nullptr.
  std::shared_ptr<V> Get(const std::string& key) {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = map_.find(key);
    if (it == map_.end()) {
      auto spilling = spilling_.find(key);
      if (spilling != spilling_.end()) {
        if (stats_ != nullptr) stats_->hits++;
        return spilling->second;
      }
      if (stats_ != nullptr) stats_->misses++;
      return nullptr;
    }
    if (stats_ != nullptr) stats_->hits++;
    lru_.erase(it->second->lru_pos);
    lru_.push_front(key);
    it->second->lru_pos = lru_.begin();
    return it->second->value;
  }

  bool Contains(const std::string& key) const {
    std::lock_guard<std::mutex> lock(mu_);
    return map_.count(key) > 0 || spilling_.count(key) > 0;
  }

  void Erase(const std::string& key) {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = map_.find(key);
    if (it == map_.end()) return;
    used_ -= it->second->charge;
    lru_.erase(it->second->lru_pos);
    map_.erase(it);
  }

  void Clear() {
    std::lock_guard<std::mutex> lock(mu_);
    map_.clear();
    lru_.clear();
    used_ = 0;
  }

  uint64_t used_bytes() const {
    std::lock_guard<std::mutex> lock(mu_);
    return used_;
  }
  size_t entry_count() const {
    std::lock_guard<std::mutex> lock(mu_);
    return map_.size();
  }
  uint64_t capacity() const { return capacity_; }

  struct Evicted {
    std::string key;
    std::shared_ptr<V> value;
    uint64_t charge;
  };
  // Invoked once per insert with every victim it displaced, in LRU order;
  // used by the memory block cache to spill into the SSD cache (§5.2: "When
  // its size exceeds the threshold, the memory cache will spill to the SSD
  // block cache").
  using BatchEvictionCallback = std::function<void(std::vector<Evicted>&&)>;
  void set_batch_eviction_callback(BatchEvictionCallback cb) {
    std::lock_guard<std::mutex> lock(mu_);
    on_evict_ = std::move(cb);
  }

 private:
  struct Entry {
    std::shared_ptr<V> value;
    uint64_t charge = 0;
    typename std::list<std::string>::iterator lru_pos;
  };

  // Detaches LRU entries until the cache fits, appending them to `victims`
  // for the caller to announce after releasing the mutex.
  void CollectEvictionsLocked(std::vector<Evicted>* victims) {
    while (used_ > capacity_ && !lru_.empty()) {
      const std::string victim = lru_.back();
      auto it = map_.find(victim);
      victims->push_back({victim, it->second->value, it->second->charge});
      used_ -= it->second->charge;
      map_.erase(it);
      lru_.pop_back();
      if (stats_ != nullptr) stats_->evictions++;
    }
  }

  const uint64_t capacity_;
  CacheStats* stats_;
  mutable std::mutex mu_;
  std::unordered_map<std::string, std::shared_ptr<Entry>> map_;
  std::list<std::string> lru_;  // front = most recent
  uint64_t used_ = 0;
  BatchEvictionCallback on_evict_;
  // Uncharged victims whose eviction callback is running.
  std::unordered_map<std::string, std::shared_ptr<V>> spilling_;
};

// Hash-sharded LRU: reduces mutex contention for the hot block-cache path.
template <typename V>
class ShardedLruCache {
 public:
  ShardedLruCache(uint64_t capacity_bytes, int num_shards = 16,
                  CacheStats* stats = nullptr) {
    shards_.reserve(num_shards);
    for (int i = 0; i < num_shards; ++i) {
      shards_.push_back(std::make_unique<LruCache<V>>(
          capacity_bytes / num_shards, stats));
    }
  }

  void Insert(const std::string& key, std::shared_ptr<V> value,
              uint64_t charge) {
    Shard(key).Insert(key, std::move(value), charge);
  }
  std::shared_ptr<V> Get(const std::string& key) { return Shard(key).Get(key); }
  bool Contains(const std::string& key) const {
    return ShardConst(key).Contains(key);
  }
  void Erase(const std::string& key) { Shard(key).Erase(key); }

  uint64_t used_bytes() const {
    uint64_t total = 0;
    for (const auto& shard : shards_) total += shard->used_bytes();
    return total;
  }
  size_t entry_count() const {
    size_t total = 0;
    for (const auto& shard : shards_) total += shard->entry_count();
    return total;
  }
  void Clear() {
    for (auto& shard : shards_) shard->Clear();
  }

  void set_batch_eviction_callback(
      typename LruCache<V>::BatchEvictionCallback cb) {
    for (auto& shard : shards_) shard->set_batch_eviction_callback(cb);
  }

 private:
  LruCache<V>& Shard(const std::string& key) {
    return *shards_[Hash64(key) % shards_.size()];
  }
  const LruCache<V>& ShardConst(const std::string& key) const {
    return *shards_[Hash64(key) % shards_.size()];
  }

  std::vector<std::unique_ptr<LruCache<V>>> shards_;
};

}  // namespace logstore::cache

#endif  // LOGSTORE_CACHE_LRU_CACHE_H_
