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
  //
  // `spill_on_evict = false` suppresses the eviction callback when this
  // entry is later evicted — used for promotions from a lower cache level
  // that already holds the bytes.
  void Insert(const std::string& key, std::shared_ptr<V> value,
              uint64_t charge, bool spill_on_evict = true) {
    std::vector<Victim> victims;
    EvictionCallback on_evict;
    BatchEvictionCallback on_evict_batch;
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
      entry->spill_on_evict = spill_on_evict;
      lru_.push_front(key);
      entry->lru_pos = lru_.begin();
      map_[key] = entry;
      used_ += charge;
      CollectEvictionsLocked(&victims);
      on_evict = on_evict_;
      on_evict_batch = on_evict_batch_;
      if (!on_evict && !on_evict_batch) victims.clear();
      // A victim stays readable until its callback (a spill to a lower
      // level) returns, so it is never in neither level.
      for (const Victim& v : victims) spilling_[v.key] = v.value;
    }
    // Callbacks run after the shard mutex is released: the SSD-spill
    // callback does disk IO, and a callback that re-enters the cache must
    // not deadlock. When a batch callback is set it receives all victims of
    // this insert at once (so adjacent blocks evicted together can spill
    // into one file); otherwise each victim is announced individually.
    if (victims.empty()) return;
    if (on_evict_batch) {
      std::vector<Evicted> batch;
      batch.reserve(victims.size());
      for (const Victim& v : victims) {
        batch.push_back({v.key, v.value, v.charge});
      }
      on_evict_batch(std::move(batch));
    } else {
      for (const Victim& v : victims) on_evict(v.key, v.value, v.charge);
    }
    std::lock_guard<std::mutex> lock(mu_);
    for (const Victim& v : victims) {  // unless a later eviction replaced it
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

  // Invoked with (key, value, charge) for each eviction; used by the memory
  // block cache to spill into the SSD cache (§5.2: "When its size exceeds
  // the threshold, the memory cache will spill to the SSD block cache").
  using EvictionCallback =
      std::function<void(const std::string&, const std::shared_ptr<V>&, uint64_t)>;
  void set_eviction_callback(EvictionCallback cb) {
    std::lock_guard<std::mutex> lock(mu_);
    on_evict_ = std::move(cb);
  }

  // Batch variant: one call per insert with every victim it displaced, in
  // LRU order. Takes precedence over the per-victim callback when set.
  struct Evicted {
    std::string key;
    std::shared_ptr<V> value;
    uint64_t charge;
  };
  using BatchEvictionCallback = std::function<void(std::vector<Evicted>&&)>;
  void set_batch_eviction_callback(BatchEvictionCallback cb) {
    std::lock_guard<std::mutex> lock(mu_);
    on_evict_batch_ = std::move(cb);
  }

 private:
  struct Entry {
    std::shared_ptr<V> value;
    uint64_t charge = 0;
    bool spill_on_evict = true;
    typename std::list<std::string>::iterator lru_pos;
  };

  struct Victim {
    std::string key;
    std::shared_ptr<V> value;
    uint64_t charge;
  };

  // Detaches LRU entries until the cache fits, appending the ones whose
  // eviction should be announced to `victims` for the caller to process
  // after releasing the mutex.
  void CollectEvictionsLocked(std::vector<Victim>* victims) {
    while (used_ > capacity_ && !lru_.empty()) {
      const std::string victim = lru_.back();
      auto it = map_.find(victim);
      if (it->second->spill_on_evict) {
        victims->push_back({victim, it->second->value, it->second->charge});
      }
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
  EvictionCallback on_evict_;
  BatchEvictionCallback on_evict_batch_;
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
              uint64_t charge, bool spill_on_evict = true) {
    Shard(key).Insert(key, std::move(value), charge, spill_on_evict);
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

  void set_eviction_callback(typename LruCache<V>::EvictionCallback cb) {
    for (auto& shard : shards_) shard->set_eviction_callback(cb);
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
