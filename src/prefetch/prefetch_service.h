#ifndef LOGSTORE_PREFETCH_PREFETCH_SERVICE_H_
#define LOGSTORE_PREFETCH_PREFETCH_SERVICE_H_

#include <condition_variable>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <vector>

#include "cache/block_manager.h"
#include "common/byte_range.h"
#include "common/result.h"
#include "common/threadpool.h"
#include "objectstore/object_store.h"

namespace logstore::prefetch {

struct PrefetchOptions {
  // Fetch parallelism (paper's Figure 16 uses 32 threads).
  int threads = 32;
  // Block alignment: ranges are split/merged into fixed-size aligned file
  // blocks (Figure 10's "block alignment adapter" + "split / merge"), so
  // overlapping requests dedup into identical cache keys.
  uint64_t block_size = 64 * 1024;
  // Runs of adjacent missing blocks coalesce into one ranged GET of at
  // most this many bytes (Figure 10's request merge): a sequential scan
  // costs a handful of large requests instead of one per block.
  uint64_t max_coalesced_bytes = 4 * 1024 * 1024;
  // Registry receiving the `prefetch.*` aggregates; nullptr means the
  // process-wide default.
  metrics::MetricRegistry* registry = nullptr;
};

// The parallel prefetch service of §5.2 (Figure 10). All reads go through
// AlignedRead; Prefetch warms the cache asynchronously with the same
// aligned-block pipeline, deduplicating in-flight IO so a prefetch and a
// blocking read of the same block issue one object-store request.
class PrefetchService {
 public:
  // `store` and `cache` must outlive the service; `cache` must not be null.
  PrefetchService(objectstore::ObjectStore* store, cache::BlockManager* cache,
                  PrefetchOptions options = {});
  ~PrefetchService();

  // `object_size`, when nonzero, is the object's size in bytes (callers
  // know it from the LogBlock map). Every ranged GET is then clamped to the
  // object's end, so a fetch that reaches the last block asks for exactly
  // the bytes that exist and comes back whole, instead of short — a short
  // read costs the retry layer a serial Head to prove end-of-object. A read
  // that still comes back short is a real truncation and is verified and
  // reported as before. 0 = unknown: fetch whole aligned runs.

  // Schedules asynchronous fetches of the aligned blocks covering `ranges`
  // into the cache. Returns immediately.
  //
  // `owner` identifies the issuing query: each fetch run is one task of the
  // service's pool, queued under its owner, and the pool serves owners
  // round-robin, so one wide query that floods the pool cannot starve the
  // prefetches of queries arriving behind it. Owner 0 is the shared/untagged
  // bucket.
  void Prefetch(uint64_t owner, const std::string& object_key,
                const std::vector<ByteRange>& ranges,
                uint64_t object_size = 0);
  void Prefetch(const std::string& object_key,
                const std::vector<ByteRange>& ranges) {
    Prefetch(0, object_key, ranges);
  }

  // Reads [offset, offset+size) of `object_key` via the aligned block
  // cache. Blocks on in-flight fetches of the same blocks instead of
  // re-requesting them.
  Result<std::string> Read(const std::string& object_key, uint64_t offset,
                           uint64_t size, uint64_t object_size = 0);

  // Blocks until all scheduled prefetches complete.
  void WaitIdle();

  // Number of object-store block fetches actually issued (after cache and
  // in-flight dedup).
  uint64_t fetches_issued() const { return fetches_issued_.load(); }

  // Number of issued fetches whose ranged GET failed (after whatever retry
  // layer the store carries gave up). Blocking reads surface the error;
  // failed prefetches degrade to a later blocking read.
  uint64_t fetch_errors() const { return fetch_errors_.load(); }

  const PrefetchOptions& options() const { return options_; }

 private:
  std::string BlockKey(const std::string& object_key, uint64_t block_idx) const;

  // Returns block `block_idx`, fetching it (and up to `fetch_limit`
  // subsequent missing blocks, coalesced into one ranged GET clamped to
  // `object_size` when known) if needed. Thread-safe with per-block
  // in-flight dedup.
  Result<std::shared_ptr<const std::string>> GetOrFetchBlock(
      const std::string& object_key, uint64_t block_idx, uint64_t fetch_limit,
      uint64_t object_size);

  objectstore::ObjectStore* store_;
  cache::BlockManager* cache_;
  const PrefetchOptions options_;
  std::unique_ptr<ThreadPool> pool_;

  std::mutex mu_;
  std::condition_variable fetch_done_;
  std::set<std::string> in_flight_;
  metrics::Counter fetches_issued_{0};
  metrics::Counter fetch_errors_{0};
};

}  // namespace logstore::prefetch

#endif  // LOGSTORE_PREFETCH_PREFETCH_SERVICE_H_
