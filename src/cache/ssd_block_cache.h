#ifndef LOGSTORE_CACHE_SSD_BLOCK_CACHE_H_
#define LOGSTORE_CACHE_SSD_BLOCK_CACHE_H_

#include <atomic>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "cache/lru_cache.h"
#include "common/result.h"
#include "common/status.h"

namespace logstore::cache {

// The second cache level of §5.2: blocks evicted from the memory cache
// spill to local SSD (a directory of small files with an in-memory LRU
// index). Much larger than the memory cache (paper: 8 GB vs 200 GB) and
// still far cheaper to read than the object store.
//
// Files are named by a hash of a key, so two keys can collide onto the
// same file. Every stored block carries a header with its full key;
// GetBatch verifies it and treats a mismatch as a miss, and Insert detaches
// the index entries of any keys whose file it overwrites — colliding keys
// can never serve each other's bytes.
//
// Adjacent blocks evicted together are spilled through InsertBatch into one
// run file (named by a hash of all its keys), and GetBatch reads every
// requested block living in the same file with one coalesced ranged pread —
// a sequential SSD-resident scan costs a handful of large reads instead of
// one open/read/close per block. A run file's disk bytes are reclaimed when
// its last live block is evicted.
//
// Under concurrency a block leaves this tier only by capacity eviction, by
// Erase of the entry a GetBatch returned (its promotion), or by a hash
// collision of its file's name: files are renamed into place under the
// mutex, entries are versioned, and run files are named by all their keys
// (DESIGN §7).
class SsdBlockCache {
 public:
  // `dir` is created if missing; pre-existing files are ignored (the cache
  // is a best-effort accelerator, not a durability layer). `hash_bits`
  // narrows the file-name hash to its low N bits — production uses the
  // default 64; tests shrink it to force collisions.
  static Result<std::unique_ptr<SsdBlockCache>> Open(
      const std::string& dir, uint64_t capacity_bytes,
      CacheStats* stats = nullptr, int hash_bits = 64,
      metrics::MetricRegistry* registry = nullptr);

  ~SsdBlockCache();

  // Writes the block to disk; evicts LRU files over capacity.
  void Insert(const std::string& key, const std::string& data);

  // Writes a batch of blocks (typically adjacent blocks of one object,
  // evicted from the memory level together) into a single run file, so a
  // later GetBatch of the same blocks is one ranged read. Falls back to
  // per-key files when the batch alone exceeds the cache capacity.
  void InsertBatch(
      const std::vector<std::pair<std::string, std::shared_ptr<const std::string>>>&
          blocks);

  // The tier's one lookup: reads blocks back, refreshing their recency,
  // and returns one slot per key, nullptr on miss, IO error, or header/key
  // mismatch. Blocks that live in the same file are fetched with one
  // coalesced ranged pread. The disk reads happen outside the cache mutex,
  // so concurrent lookups overlap their IO. `versions` (when given)
  // receives, per hit, the version of the entry read, for Erase.
  std::vector<std::shared_ptr<const std::string>> GetBatch(
      const std::vector<std::string>& keys,
      std::vector<uint64_t>* versions = nullptr);

  bool Contains(const std::string& key) const;

  // Any entry of a key, for Erase.
  static constexpr uint64_t kAnyVersion = 0;

  // Drops `key` and deletes its file if no other live block remains in it
  // (used when a block is promoted to the memory level: the two levels are
  // exclusive, so the SSD copy is released rather than left double-charged).
  // With a version, only that entry: a promotion passes the version its
  // GetBatch read, so a newer spill of the same key stays.
  void Erase(const std::string& key, uint64_t version = kAnyVersion);

  uint64_t used_bytes() const;
  size_t entry_count() const;

  // Number of disk read spans issued by GetBatch — with run files, fewer
  // spans than blocks means adjacent reads were coalesced.
  uint64_t ranged_reads() const { return ranged_reads_.load(); }

  // Number of multi-block run files written by InsertBatch (memory-level
  // eviction batches spilled as one file).
  uint64_t run_spills() const { return run_spills_.load(); }

 private:
  SsdBlockCache(std::string dir, uint64_t capacity_bytes, CacheStats* stats,
                int hash_bits, metrics::MetricRegistry* registry)
      : dir_(std::move(dir)),
        capacity_(capacity_bytes),
        stats_(stats),
        hash_bits_(hash_bits) {
    metrics::MetricRegistry* reg = metrics::OrDefault(registry);
    ranged_reads_.Bind(reg->Counter("cache.ranged_reads", {{"tier", "ssd"}}));
    run_spills_.Bind(reg->Counter("cache.run_spills", {{"tier", "ssd"}}));
  }

  struct Entry {
    uint64_t size;           // data bytes (header excluded)
    uint64_t file_hash;      // file the bytes live in (not always Hash(key))
    uint64_t header_offset;  // offset of this block's header in the file
    uint64_t version;        // unique per recorded entry, never kAnyVersion
    std::list<std::string>::iterator lru_pos;
  };

  // A located block, resolved under the mutex for IO outside it.
  struct Located {
    size_t slot;  // index into the GetBatch result vector
    std::string key;
    uint64_t file_hash;
    uint64_t header_offset;
    uint64_t size;
    uint64_t version;
  };

  uint64_t FileHash(const std::string& key) const;
  // The name of a run file: a hash over every key it holds.
  uint64_t RunFileHash(
      const std::vector<std::pair<std::string,
                                  std::shared_ptr<const std::string>>>& blocks)
      const;
  std::string PathForHash(uint64_t file_hash) const;

  // Removes `key`'s entry of `version` (any entry for kAnyVersion) from
  // index_/lru_/used_ and from its file's owner list; deletes the file when
  // it holds no other live block and `unlink_empty`.
  void DetachEntryLocked(const std::string& key, uint64_t version,
                         bool unlink_empty);

  // Drops every live key whose bytes sit in `file_hash` (the file is being
  // overwritten).
  void DetachFileOwnersLocked(uint64_t file_hash);

  void RecordInsertLocked(const std::string& key, uint64_t file_hash,
                          uint64_t header_offset, uint64_t size);
  void EvictLocked();

  const std::string dir_;
  const uint64_t capacity_;
  CacheStats* stats_;
  const int hash_bits_;

  mutable std::mutex mu_;
  std::unordered_map<std::string, Entry> index_;
  // file-name hash -> keys whose bytes currently live in that file.
  std::unordered_map<uint64_t, std::vector<std::string>> file_owner_;
  std::list<std::string> lru_;  // front = most recent
  uint64_t used_ = 0;
  uint64_t last_version_ = kAnyVersion;
  std::atomic<uint64_t> next_tmp_{0};  // temporary file names
  metrics::Counter ranged_reads_{0};
  metrics::Counter run_spills_{0};
};

}  // namespace logstore::cache

#endif  // LOGSTORE_CACHE_SSD_BLOCK_CACHE_H_
