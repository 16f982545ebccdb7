#include "prefetch/prefetch_service.h"

#include <algorithm>

namespace logstore::prefetch {

PrefetchService::PrefetchService(objectstore::ObjectStore* store,
                                 cache::BlockManager* cache,
                                 PrefetchOptions options)
    : store_(store),
      cache_(cache),
      options_(options),
      pool_(std::make_unique<ThreadPool>(options.threads)) {
  metrics::MetricRegistry* registry = metrics::OrDefault(options_.registry);
  fetches_issued_.Bind(registry->Counter("prefetch.fetches_issued"));
  fetch_errors_.Bind(registry->Counter("prefetch.fetch_errors"));
}

PrefetchService::~PrefetchService() { WaitIdle(); }

std::string PrefetchService::BlockKey(const std::string& object_key,
                                      uint64_t block_idx) const {
  return object_key + "#" + std::to_string(block_idx);
}

Result<std::shared_ptr<const std::string>> PrefetchService::GetOrFetchBlock(
    const std::string& object_key, uint64_t block_idx, uint64_t fetch_limit,
    uint64_t object_size) {
  while (true) {
    if (auto block = cache_->Get(BlockKey(object_key, block_idx))) {
      return block;
    }

    // Claim a run of consecutive missing blocks starting at block_idx
    // (Figure 10's merge: they become one ranged GET). The run ends at a
    // cached block, an in-flight block, the coalescing cap, or
    // `fetch_limit` blocks.
    uint64_t run_len = 0;
    {
      std::unique_lock<std::mutex> lock(mu_);
      if (in_flight_.count(BlockKey(object_key, block_idx)) != 0) {
        // Another thread is fetching this block; wait and re-check the
        // cache ("repeated data block read IO requests will be merged").
        fetch_done_.wait(lock, [&] {
          return in_flight_.count(BlockKey(object_key, block_idx)) == 0;
        });
        continue;
      }
      const uint64_t max_run = std::max<uint64_t>(
          1, std::min(fetch_limit,
                      options_.max_coalesced_bytes / options_.block_size));
      while (run_len < max_run) {
        const std::string key = BlockKey(object_key, block_idx + run_len);
        if (in_flight_.count(key) != 0) break;
        if (run_len > 0 && cache_->Contains(key)) break;
        in_flight_.insert(key);
        ++run_len;
      }
    }
    if (run_len == 0) continue;  // lost the race entirely; retry

    fetches_issued_++;
    const uint64_t start = block_idx * options_.block_size;
    uint64_t length = run_len * options_.block_size;
    if (start < object_size) length = std::min(length, object_size - start);
    auto data = store_->GetRange(object_key, start, length);

    std::shared_ptr<const std::string> first_block;
    if (data.ok()) {
      // Slice the run into aligned cache blocks.
      const std::string& bytes = *data;
      for (uint64_t b = 0; b < run_len; ++b) {
        const uint64_t begin = b * options_.block_size;
        if (begin >= bytes.size()) break;
        const uint64_t len =
            std::min<uint64_t>(options_.block_size, bytes.size() - begin);
        auto block =
            std::make_shared<const std::string>(bytes.substr(begin, len));
        if (b == 0) first_block = block;
        cache_->Insert(BlockKey(object_key, block_idx + b), block);
      }
      if (first_block == nullptr) {
        first_block = std::make_shared<const std::string>();
      }
    }

    {
      std::lock_guard<std::mutex> lock(mu_);
      for (uint64_t b = 0; b < run_len; ++b) {
        in_flight_.erase(BlockKey(object_key, block_idx + b));
      }
    }
    fetch_done_.notify_all();

    if (!data.ok()) {
      fetch_errors_++;
      return data.status();
    }
    return first_block;
  }
}

void PrefetchService::Prefetch(uint64_t owner, const std::string& object_key,
                               const std::vector<ByteRange>& ranges,
                               uint64_t object_size) {
  // Split: expand ranges to aligned block indices, dedup. Blocks wholly
  // past a known object end are dropped.
  std::set<uint64_t> blocks;
  for (const ByteRange& range : ranges) {
    uint64_t end = range.end();
    if (object_size > 0) end = std::min(end, object_size);
    if (end <= range.offset) continue;
    const uint64_t first = range.offset / options_.block_size;
    const uint64_t last = (end - 1) / options_.block_size;
    for (uint64_t b = first; b <= last; ++b) blocks.insert(b);
  }

  // Merge: group consecutive missing blocks into runs and schedule each run
  // as one pool task under this owner. The pool serves owners round-robin,
  // so a query that queues hundreds of runs shares it fairly with a query
  // that queues one.
  auto it = blocks.begin();
  while (it != blocks.end()) {
    const uint64_t run_start = *it;
    uint64_t run_len = 1;
    auto next = std::next(it);
    while (next != blocks.end() && *next == run_start + run_len &&
           run_len * options_.block_size < options_.max_coalesced_bytes) {
      ++run_len;
      ++next;
    }
    it = next;
    if (cache_->Contains(BlockKey(object_key, run_start)) && run_len == 1) {
      continue;
    }
    pool_->Schedule(owner, [this, object_key, run_start, run_len,
                            object_size] {
      // Errors are ignored: a failed prefetch degrades to a blocking read.
      (void)GetOrFetchBlock(object_key, run_start, run_len, object_size);
    });
  }
}

Result<std::string> PrefetchService::Read(const std::string& object_key,
                                          uint64_t offset, uint64_t size,
                                          uint64_t object_size) {
  if (size == 0) return std::string();

  const uint64_t first = offset / options_.block_size;
  const uint64_t last = (offset + size - 1) / options_.block_size;

  // Multi-block span: probe the cache for the whole run at once, so blocks
  // that spilled to SSD together come back with one ranged file read
  // instead of one open/read/close per block.
  std::vector<std::shared_ptr<const std::string>> cached;
  if (last > first) {
    std::vector<std::string> keys;
    keys.reserve(last - first + 1);
    for (uint64_t b = first; b <= last; ++b) {
      keys.push_back(BlockKey(object_key, b));
    }
    cached = cache_->GetBatch(keys);
  }

  std::string out;
  out.reserve(size);
  for (uint64_t b = first; b <= last; ++b) {
    Result<std::shared_ptr<const std::string>> block =
        (b - first) < cached.size() && cached[b - first] != nullptr
            ? Result<std::shared_ptr<const std::string>>(
                  std::move(cached[b - first]))
            : GetOrFetchBlock(object_key, b, last - b + 1, object_size);
    if (!block.ok()) return block.status();
    const uint64_t block_start = b * options_.block_size;
    const uint64_t want_start = std::max(offset, block_start);
    const uint64_t want_end =
        std::min(offset + size, block_start + (*block)->size());
    if (want_start < want_end) {
      out.append(**block, want_start - block_start, want_end - want_start);
    }
    if ((*block)->size() < options_.block_size) break;  // object ended
  }
  if (out.size() != size) {
    return Status::IOError("short read: object smaller than requested range");
  }
  return out;
}

void PrefetchService::WaitIdle() { pool_->Wait(); }

}  // namespace logstore::prefetch
