#ifndef LOGSTORE_CACHE_BLOCK_MANAGER_H_
#define LOGSTORE_CACHE_BLOCK_MANAGER_H_

#include <memory>
#include <string>
#include <vector>

#include "cache/lru_cache.h"
#include "cache/ssd_block_cache.h"
#include "common/result.h"

namespace logstore::cache {

struct BlockManagerOptions {
  // Paper production sizes are 8 GB memory / 200 GB SSD; tests and benches
  // scale these down.
  uint64_t memory_capacity_bytes = 64ull << 20;
  int memory_shards = 16;
  // Empty `ssd_dir` disables the SSD level.
  std::string ssd_dir;
  uint64_t ssd_capacity_bytes = 1ull << 30;
  // Registry receiving the per-tier `cache.*` aggregates; nullptr means the
  // process-wide default.
  metrics::MetricRegistry* registry = nullptr;
};

// The block manager of §5.2 (Figure 9): a two-level file-block cache.
// Inserts land in the memory block cache; evicted blocks spill to the SSD
// block cache (adjacent blocks evicted together spill into one run file);
// SSD hits are promoted back into memory. All operations are thread-safe:
// parallel query execution probes one manager from many threads at once.
class BlockManager {
 public:
  static Result<std::unique_ptr<BlockManager>> Open(
      const BlockManagerOptions& options);

  // Looks up a block in memory, then SSD. SSD hits are promoted.
  std::shared_ptr<const std::string> Get(const std::string& key);

  // Batched lookup for a run of (typically adjacent) blocks: one slot per
  // key, nullptr on miss. SSD-resident blocks sharing a run file are read
  // with one coalesced ranged pread. Promotes like Get.
  std::vector<std::shared_ptr<const std::string>> GetBatch(
      const std::vector<std::string>& keys);

  // Inserts into the memory level (spilling may push older blocks to SSD).
  void Insert(const std::string& key, std::shared_ptr<const std::string> block);

  bool Contains(const std::string& key) const;

  CacheStats& memory_stats() { return memory_stats_; }
  CacheStats& ssd_stats() { return ssd_stats_; }
  uint64_t memory_used_bytes() const { return memory_->used_bytes(); }
  uint64_t ssd_used_bytes() const {
    return ssd_ == nullptr ? 0 : ssd_->used_bytes();
  }
  void Clear();

 private:
  explicit BlockManager(const BlockManagerOptions& options);

  // Reads `keys` (each a memory miss) from the SSD tier and promotes every
  // hit into memory; one slot per key, nullptr on miss.
  std::vector<std::shared_ptr<const std::string>> PromoteFromSsd(
      const std::vector<std::string>& keys);

  CacheStats memory_stats_;
  CacheStats ssd_stats_;
  std::unique_ptr<ShardedLruCache<const std::string>> memory_;
  std::unique_ptr<SsdBlockCache> ssd_;
};

}  // namespace logstore::cache

#endif  // LOGSTORE_CACHE_BLOCK_MANAGER_H_
