#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "cache/block_manager.h"
#include "cache/lru_cache.h"
#include "cache/ssd_block_cache.h"
#include "common/metrics.h"
#include "common/random.h"
#include "test_env.h"

namespace logstore::cache {
namespace {

std::shared_ptr<const std::string> Block(const std::string& s) {
  return std::make_shared<const std::string>(s);
}

// A one-key lookup of the SSD tier, whose one lookup is GetBatch.
std::shared_ptr<const std::string> SsdGet(SsdBlockCache& cache,
                                          const std::string& key) {
  return cache.GetBatch({key}).front();
}

TEST(LruCacheTest, InsertGetErase) {
  LruCache<const std::string> cache(1000);
  cache.Insert("a", Block("aaa"), 3);
  auto got = cache.Get("a");
  ASSERT_NE(got, nullptr);
  EXPECT_EQ(*got, "aaa");
  EXPECT_EQ(cache.used_bytes(), 3u);
  cache.Erase("a");
  EXPECT_EQ(cache.Get("a"), nullptr);
  EXPECT_EQ(cache.used_bytes(), 0u);
}

TEST(LruCacheTest, EvictsLeastRecentlyUsed) {
  LruCache<const std::string> cache(10);
  cache.Insert("a", Block("aaaa"), 4);
  cache.Insert("b", Block("bbbb"), 4);
  cache.Get("a");                      // refresh a; b is now LRU
  cache.Insert("c", Block("cccc"), 4); // 12 > 10: evict b
  EXPECT_NE(cache.Get("a"), nullptr);
  EXPECT_EQ(cache.Get("b"), nullptr);
  EXPECT_NE(cache.Get("c"), nullptr);
}

TEST(LruCacheTest, ReplaceUpdatesCharge) {
  LruCache<const std::string> cache(100);
  cache.Insert("a", Block("xx"), 2);
  cache.Insert("a", Block("xxxxxxxx"), 8);
  EXPECT_EQ(cache.used_bytes(), 8u);
  EXPECT_EQ(*cache.Get("a"), "xxxxxxxx");
}

TEST(LruCacheTest, OversizedValueNotCached) {
  LruCache<const std::string> cache(5);
  cache.Insert("big", Block("0123456789"), 10);
  EXPECT_EQ(cache.Get("big"), nullptr);
  EXPECT_EQ(cache.used_bytes(), 0u);
}

TEST(LruCacheTest, StatsTrackHitsMisses) {
  // Legacy CacheStats fields and their registry mirrors are dual-written
  // by the same increments and must agree exactly.
  metrics::MetricRegistry registry;
  CacheStats stats;
  stats.BindTo(&registry, "memory");
  LruCache<const std::string> cache(100, &stats);
  cache.Insert("a", Block("a"), 1);
  cache.Get("a");
  cache.Get("missing");
  EXPECT_EQ(stats.hits.load(), 1u);
  EXPECT_EQ(stats.misses.load(), 1u);
  EXPECT_DOUBLE_EQ(stats.HitRate(), 0.5);
  const auto snap = registry.SnapshotMap();
  EXPECT_EQ(snap.at("cache.hits{tier=memory}"),
            static_cast<int64_t>(stats.hits.load()));
  EXPECT_EQ(snap.at("cache.misses{tier=memory}"),
            static_cast<int64_t>(stats.misses.load()));
  EXPECT_EQ(snap.at("cache.inserts{tier=memory}"),
            static_cast<int64_t>(stats.inserts.load()));
}

TEST(LruCacheTest, EvictionCallbackFires) {
  LruCache<const std::string> cache(8);
  std::vector<std::string> evicted;
  cache.set_batch_eviction_callback(
      [&](std::vector<LruCache<const std::string>::Evicted>&& victims) {
        for (const auto& victim : victims) evicted.push_back(victim.key);
      });
  cache.Insert("a", Block("aaaa"), 4);
  cache.Insert("b", Block("bbbb"), 4);
  EXPECT_TRUE(evicted.empty());
  cache.Insert("c", Block("cccccccc"), 8);  // one insert evicts a, then b
  ASSERT_EQ(evicted.size(), 2u);
  EXPECT_EQ(evicted[0], "a");
  EXPECT_EQ(evicted[1], "b");
}

// Regression: the eviction callback used to run while the cache mutex was
// held, so a callback touching the same cache self-deadlocked. It must be
// safe for the callback to re-enter the cache.
TEST(LruCacheTest, EvictionCallbackMayReenterCache) {
  LruCache<const std::string> cache(8);
  std::vector<std::string> evicted;
  cache.set_batch_eviction_callback(
      [&](std::vector<LruCache<const std::string>::Evicted>&& victims) {
        for (const auto& victim : victims) {
          evicted.push_back(victim.key);
          // Re-entrant reads and writes: both took the mutex recursively
          // before the fix.
          (void)cache.Get(victim.key);
          cache.Insert("reentrant-" + victim.key, Block("r"), 1);
        }
      });
  cache.Insert("a", Block("aaaa"), 4);
  cache.Insert("b", Block("bbbb"), 4);
  cache.Insert("c", Block("cccc"), 4);  // evicts a; re-entrant insert
                                        // cascades to evict b as well
  ASSERT_EQ(evicted.size(), 2u);
  EXPECT_EQ(evicted[0], "a");
  EXPECT_EQ(evicted[1], "b");
  EXPECT_NE(cache.Get("reentrant-a"), nullptr);
  EXPECT_NE(cache.Get("reentrant-b"), nullptr);
}

// A victim stays readable until its eviction callback returns: the SSD
// tier stores a spilled block only inside the callback, and a block in
// neither level meanwhile would be read again from the object store.
TEST(LruCacheTest, VictimStaysReadableWhileItsCallbackRuns) {
  LruCache<const std::string> cache(4);
  int seen = 0;
  cache.set_batch_eviction_callback(
      [&](std::vector<LruCache<const std::string>::Evicted>&& victims) {
        for (const auto& victim : victims) {
          EXPECT_TRUE(cache.Contains(victim.key));
          auto got = cache.Get(victim.key);
          ASSERT_NE(got, nullptr);
          EXPECT_EQ(*got, "aaaa");
          ++seen;
        }
      });
  cache.Insert("a", Block("aaaa"), 4);
  cache.Insert("b", Block("bbbb"), 4);
  EXPECT_EQ(seen, 1);
  EXPECT_FALSE(cache.Contains("a"));
  EXPECT_EQ(cache.Get("a"), nullptr);
  EXPECT_EQ(cache.used_bytes(), 4u);
}

// Regression: an oversized insert used to count an insert, erase any
// existing entry for the key, and only then reject the new value — losing
// the old entry and skewing stats.
TEST(LruCacheTest, OversizedInsertKeepsExistingEntry) {
  CacheStats stats;
  LruCache<const std::string> cache(5, &stats);
  cache.Insert("a", Block("xx"), 2);
  cache.Insert("a", Block("0123456789"), 10);  // larger than capacity
  auto got = cache.Get("a");
  ASSERT_NE(got, nullptr);
  EXPECT_EQ(*got, "xx");
  EXPECT_EQ(cache.used_bytes(), 2u);
  EXPECT_EQ(stats.inserts.load(), 1u);
  EXPECT_EQ(stats.evictions.load(), 0u);
}

TEST(ShardedLruCacheTest, SpreadsAcrossShards) {
  ShardedLruCache<const std::string> cache(16000, 16);
  for (int i = 0; i < 100; ++i) {
    cache.Insert("key" + std::to_string(i), Block("v"), 1);
  }
  EXPECT_EQ(cache.entry_count(), 100u);
  for (int i = 0; i < 100; ++i) {
    EXPECT_NE(cache.Get("key" + std::to_string(i)), nullptr) << i;
  }
  cache.Clear();
  EXPECT_EQ(cache.entry_count(), 0u);
}

TEST(ShardedLruCacheTest, ConcurrentAccessIsSafe) {
  ShardedLruCache<const std::string> cache(1 << 20, 8);
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&cache, t] {
      for (int i = 0; i < 1000; ++i) {
        const std::string key = "k" + std::to_string((t * 1000 + i) % 97);
        cache.Insert(key, Block("data"), 4);
        cache.Get(key);
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_LE(cache.entry_count(), 97u);
}

class SsdCacheTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // Pid-qualified, so two builds' cache_test runs at once never share it.
    dir_ = testenv::UniqueTempDir(
        "logstore_ssd_" + std::string(::testing::UnitTest::GetInstance()
                                          ->current_test_info()
                                          ->name()),
        0);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }
  std::filesystem::path dir_;
};

TEST_F(SsdCacheTest, RoundTrip) {
  auto cache = SsdBlockCache::Open(dir_.string(), 1 << 20);
  ASSERT_TRUE(cache.ok());
  (*cache)->Insert("obj#0", "block-zero-bytes");
  auto got = SsdGet(**cache, "obj#0");
  ASSERT_NE(got, nullptr);
  EXPECT_EQ(*got, "block-zero-bytes");
  EXPECT_EQ(SsdGet(**cache, "obj#1"), nullptr);
  EXPECT_EQ((*cache)->entry_count(), 1u);
}

TEST_F(SsdCacheTest, EvictsOverCapacity) {
  auto cache = SsdBlockCache::Open(dir_.string(), 100);
  ASSERT_TRUE(cache.ok());
  (*cache)->Insert("a", std::string(60, 'a'));
  (*cache)->Insert("b", std::string(60, 'b'));  // 120 > 100: evict a
  EXPECT_EQ(SsdGet(**cache, "a"), nullptr);
  ASSERT_NE(SsdGet(**cache, "b"), nullptr);
  EXPECT_LE((*cache)->used_bytes(), 100u);
}

TEST_F(SsdCacheTest, FilesRemovedOnDestruction) {
  {
    auto cache = SsdBlockCache::Open(dir_.string(), 1 << 20);
    ASSERT_TRUE(cache.ok());
    (*cache)->Insert("k", "v");
  }
  EXPECT_FALSE(std::filesystem::exists(dir_));
}

TEST_F(SsdCacheTest, BlockManagerSpillsToSsdAndPromotes) {
  BlockManagerOptions options;
  options.memory_capacity_bytes = 64;  // tiny: force spills
  options.memory_shards = 1;
  options.ssd_dir = dir_.string();
  options.ssd_capacity_bytes = 1 << 20;
  auto manager = BlockManager::Open(options);
  ASSERT_TRUE(manager.ok());

  (*manager)->Insert("a", Block(std::string(40, 'a')));
  (*manager)->Insert("b", Block(std::string(40, 'b')));  // evicts a -> SSD

  EXPECT_EQ((*manager)->memory_stats().evictions.load(), 1u);
  EXPECT_GT((*manager)->ssd_used_bytes(), 0u);

  // "a" must still be readable (from SSD), and gets promoted to memory.
  auto a = (*manager)->Get("a");
  ASSERT_NE(a, nullptr);
  EXPECT_EQ(*a, std::string(40, 'a'));
  EXPECT_EQ((*manager)->ssd_stats().hits.load(), 1u);

  // Each lookup counts exactly one memory hit or miss, whatever the SSD
  // tier answers.
  ASSERT_NE((*manager)->Get("a"), nullptr);
  EXPECT_EQ((*manager)->Get("missing"), nullptr);
  EXPECT_EQ((*manager)->memory_stats().hits.load(), 1u);
  EXPECT_EQ((*manager)->memory_stats().misses.load(), 2u);
  EXPECT_EQ((*manager)->ssd_stats().misses.load(), 1u);
}

// Regression: cache files are named by a hash of the key; two colliding
// keys share one file. The seed served whichever bytes were written last
// under either key. With the embedded-key header, a collision overwrite
// turns the older key into a miss instead of wrong data.
TEST_F(SsdCacheTest, HashCollisionsDoNotServeWrongBytes) {
  CacheStats stats;
  auto cache = SsdBlockCache::Open(dir_.string(), 1 << 20, &stats,
                                   /*hash_bits=*/4);
  ASSERT_TRUE(cache.ok());

  // Find two distinct keys whose low-4-bit file hashes collide.
  auto masked = [](const std::string& key) { return Hash64(key) & 0xf; };
  const std::string first = "key0";
  std::string second;
  for (int i = 1; second.empty(); ++i) {
    std::string candidate = "key" + std::to_string(i);
    if (masked(candidate) == masked(first)) second = candidate;
  }

  (*cache)->Insert(first, "bytes-of-first");
  ASSERT_NE(SsdGet(**cache, first), nullptr);
  (*cache)->Insert(second, "bytes-of-second");

  // `first`'s file was overwritten: it must read as a miss, never as
  // `second`'s bytes.
  EXPECT_EQ(SsdGet(**cache, first), nullptr);
  auto got = SsdGet(**cache, second);
  ASSERT_NE(got, nullptr);
  EXPECT_EQ(*got, "bytes-of-second");
  EXPECT_EQ((*cache)->entry_count(), 1u);

  // Evicting/overwriting `second` must not resurrect `first`.
  (*cache)->Insert(first, "fresh-first");
  got = SsdGet(**cache, first);
  ASSERT_NE(got, nullptr);
  EXPECT_EQ(*got, "fresh-first");
  EXPECT_EQ(SsdGet(**cache, second), nullptr);
}

TEST_F(SsdCacheTest, TamperedFileReadsAsMiss) {
  auto cache = SsdBlockCache::Open(dir_.string(), 1 << 20);
  ASSERT_TRUE(cache.ok());
  (*cache)->Insert("obj#7", "block-bytes");
  ASSERT_NE(SsdGet(**cache, "obj#7"), nullptr);

  // Corrupt the header of the single cache file on disk.
  for (const auto& entry : std::filesystem::directory_iterator(dir_)) {
    std::fstream file(entry.path(), std::ios::binary | std::ios::in |
                                        std::ios::out);
    ASSERT_TRUE(file.is_open());
    file.seekp(0);
    file.write("XXXX", 4);  // clobber the magic
  }

  EXPECT_EQ(SsdGet(**cache, "obj#7"), nullptr);
  // The stale index entry is dropped; later inserts work normally.
  EXPECT_EQ((*cache)->entry_count(), 0u);
  (*cache)->Insert("obj#7", "replacement");
  auto got = SsdGet(**cache, "obj#7");
  ASSERT_NE(got, nullptr);
  EXPECT_EQ(*got, "replacement");
}

// Regression (ROADMAP): an SSD hit used to be promoted by copying — the
// block stayed charged at the SSD level AND in memory until the memory copy
// aged out. The levels are exclusive now: promotion moves the block up, a
// later memory eviction spills it back down.
TEST_F(SsdCacheTest, PromotionIsExclusiveAcrossLevels) {
  BlockManagerOptions options;
  options.memory_capacity_bytes = 64;  // one 40-byte block at a time
  options.memory_shards = 1;
  options.ssd_dir = dir_.string();
  options.ssd_capacity_bytes = 1 << 20;
  auto manager = BlockManager::Open(options);
  ASSERT_TRUE(manager.ok());

  (*manager)->Insert("a", Block(std::string(40, 'a')));
  (*manager)->Insert("b", Block(std::string(40, 'b')));  // a -> SSD
  EXPECT_EQ((*manager)->ssd_stats().inserts.load(), 1u);
  EXPECT_EQ((*manager)->memory_used_bytes(), 40u);
  EXPECT_EQ((*manager)->ssd_used_bytes(), 40u);

  // Promoting `a` moves it up: the SSD copy is released (no double charge)
  // and the displaced `b` spills down.
  ASSERT_NE((*manager)->Get("a"), nullptr);
  EXPECT_EQ((*manager)->ssd_stats().inserts.load(), 2u);
  EXPECT_EQ((*manager)->memory_used_bytes(), 40u);  // a
  EXPECT_EQ((*manager)->ssd_used_bytes(), 40u);     // b only — a was moved
  EXPECT_EQ((*manager)->memory_used_bytes() + (*manager)->ssd_used_bytes(),
            80u);  // each block charged exactly once across the hierarchy

  // The promoted copy is now the only copy, so when it ages out of memory
  // it MUST spill back to SSD (the old no-respill rule would lose it from
  // the cache hierarchy entirely).
  (*manager)->Insert("c", Block(std::string(40, 'c')));  // evicts a
  EXPECT_EQ((*manager)->ssd_stats().inserts.load(), 3u);
  EXPECT_EQ((*manager)->ssd_used_bytes(), 80u);  // a and b
  auto a = (*manager)->Get("a");                 // served from SSD
  ASSERT_NE(a, nullptr);
  EXPECT_EQ(*a, std::string(40, 'a'));
}

TEST_F(SsdCacheTest, BlockManagerWithoutSsdStillCaches) {
  BlockManagerOptions options;
  options.memory_capacity_bytes = 1 << 20;
  options.ssd_dir.clear();
  auto manager = BlockManager::Open(options);
  ASSERT_TRUE(manager.ok());
  (*manager)->Insert("k", Block("v"));
  ASSERT_NE((*manager)->Get("k"), nullptr);
  EXPECT_EQ((*manager)->Get("missing"), nullptr);
  EXPECT_EQ((*manager)->ssd_used_bytes(), 0u);
}

TEST_F(SsdCacheTest, ParallelGetsDoNotSerializeOrCorrupt) {
  // Many threads hammering Get on a shared working set: the disk reads run
  // outside the cache mutex, so this exercises the lock-free hit path for
  // races (ASan/TSan) and verifies every thread always sees its key's own
  // bytes — never a colliding key's, never a torn read.
  CacheStats stats;
  auto cache = SsdBlockCache::Open(dir_.string(), 16 << 20, &stats);
  ASSERT_TRUE(cache.ok());
  constexpr int kKeys = 32;
  std::vector<std::string> payloads;
  for (int k = 0; k < kKeys; ++k) {
    payloads.push_back(std::string(4096, static_cast<char>('a' + k % 26)) +
                       "#" + std::to_string(k));
    (*cache)->Insert("key-" + std::to_string(k), payloads[k]);
  }

  std::atomic<int> wrong{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 8; ++t) {
    readers.emplace_back([&, t] {
      for (int i = 0; i < 200; ++i) {
        const int k = (t * 37 + i) % kKeys;
        auto got = SsdGet(**cache, "key-" + std::to_string(k));
        if (got == nullptr || *got != payloads[k]) wrong.fetch_add(1);
      }
    });
  }
  for (auto& t : readers) t.join();
  EXPECT_EQ(wrong.load(), 0);
  EXPECT_EQ(stats.hits.load(), 8 * 200);
}

TEST_F(SsdCacheTest, InsertBatchReadsBackWithOneRangedRead) {
  auto cache = SsdBlockCache::Open(dir_.string(), 1 << 20);
  ASSERT_TRUE(cache.ok());

  std::vector<std::pair<std::string, std::shared_ptr<const std::string>>> batch;
  std::vector<std::string> keys;
  for (int b = 0; b < 8; ++b) {
    keys.push_back("obj#" + std::to_string(b));
    batch.emplace_back(keys.back(),
                       Block(std::string(512, static_cast<char>('a' + b))));
  }
  (*cache)->InsertBatch(batch);
  EXPECT_EQ((*cache)->entry_count(), 8u);

  // All eight blocks live in one run file, so the batched lookup must cost
  // exactly one disk read span.
  EXPECT_EQ((*cache)->ranged_reads(), 0u);
  auto got = (*cache)->GetBatch(keys);
  ASSERT_EQ(got.size(), keys.size());
  for (int b = 0; b < 8; ++b) {
    ASSERT_NE(got[b], nullptr) << keys[b];
    EXPECT_EQ(*got[b], std::string(512, static_cast<char>('a' + b)));
  }
  EXPECT_EQ((*cache)->ranged_reads(), 1u);

  // A one-key lookup still works against a run file.
  auto single = SsdGet(**cache, "obj#3");
  ASSERT_NE(single, nullptr);
  EXPECT_EQ(*single, std::string(512, 'd'));
}

TEST_F(SsdCacheTest, GetBatchReportsMissesAndSurvivesPartialErase) {
  auto cache = SsdBlockCache::Open(dir_.string(), 1 << 20);
  ASSERT_TRUE(cache.ok());
  std::vector<std::pair<std::string, std::shared_ptr<const std::string>>> batch;
  for (int b = 0; b < 4; ++b) {
    batch.emplace_back("run#" + std::to_string(b), Block("data-" + std::to_string(b)));
  }
  (*cache)->InsertBatch(batch);

  // Erasing one member of the run must not disturb its neighbors' extents.
  (*cache)->Erase("run#1");
  auto got = (*cache)->GetBatch({"run#0", "run#1", "run#2", "missing"});
  ASSERT_NE(got[0], nullptr);
  EXPECT_EQ(*got[0], "data-0");
  EXPECT_EQ(got[1], nullptr);
  ASSERT_NE(got[2], nullptr);
  EXPECT_EQ(*got[2], "data-2");
  EXPECT_EQ(got[3], nullptr);

  // Dropping the rest reclaims the run file's bytes.
  (*cache)->Erase("run#0");
  (*cache)->Erase("run#2");
  (*cache)->Erase("run#3");
  EXPECT_EQ((*cache)->used_bytes(), 0u);
  EXPECT_EQ((*cache)->entry_count(), 0u);
}

TEST_F(SsdCacheTest, BlockManagerBatchSpillAndBatchRead) {
  // Adjacent blocks aging out of memory in one eviction wave must land in
  // one run file and come back through GetBatch (with promotion, like Get).
  BlockManagerOptions options;
  options.memory_capacity_bytes = 8 * 512;  // exactly the run
  options.memory_shards = 1;
  options.ssd_dir = dir_.string();
  options.ssd_capacity_bytes = 1 << 20;
  auto manager = BlockManager::Open(options);
  ASSERT_TRUE(manager.ok());

  std::vector<std::string> keys;
  for (int b = 0; b < 8; ++b) {
    keys.push_back("obj#" + std::to_string(b));
    (*manager)->Insert(keys.back(),
                       Block(std::string(512, static_cast<char>('a' + b))));
  }
  // One oversized insert displaces the whole run as a single batch.
  (*manager)->Insert("big", Block(std::string(8 * 512, 'z')));
  EXPECT_EQ((*manager)->memory_stats().evictions.load(), 8u);
  EXPECT_GT((*manager)->ssd_used_bytes(), 0u);

  auto got = (*manager)->GetBatch(keys);
  ASSERT_EQ(got.size(), keys.size());
  for (int b = 0; b < 8; ++b) {
    ASSERT_NE(got[b], nullptr) << keys[b];
    EXPECT_EQ(*got[b], std::string(512, static_cast<char>('a' + b)));
  }
  EXPECT_EQ((*manager)->ssd_stats().hits.load(), 8u);
  // Promotion is exclusive: the run's SSD copies were released. Only "big"
  // remains below — it was displaced by the first promotion.
  EXPECT_EQ((*manager)->ssd_used_bytes(), 8u * 512);
}

TEST_F(SsdCacheTest, ConcurrentPromotionNeverMissesBothLevels) {
  // Regression for the promotion race: Get used to erase the SSD copy
  // before the memory insert was visible, so a concurrent Get of the same
  // key could miss both levels even though the block was cached. Hammer
  // promotion from many threads; a cached key must never read as absent.
  BlockManagerOptions options;
  options.memory_capacity_bytes = 4096;
  options.memory_shards = 1;
  options.ssd_dir = dir_.string();
  options.ssd_capacity_bytes = 1 << 20;
  auto manager = BlockManager::Open(options);
  ASSERT_TRUE(manager.ok());

  // Seed all keys, then displace the lot to SSD with one capacity-sized
  // insert. During the racing phase the working set fits in memory again,
  // so every key lives in exactly one level at all times.
  constexpr int kKeys = 64;
  auto payload = [](int k) {
    return std::string(40, static_cast<char>('a' + k % 26));
  };
  for (int k = 0; k < kKeys; ++k) {
    (*manager)->Insert("k" + std::to_string(k), Block(payload(k)));
  }
  (*manager)->Insert("big", Block(std::string(4096, 'z')));
  EXPECT_GE((*manager)->memory_stats().evictions.load(),
            static_cast<uint64_t>(kKeys));

  std::atomic<int> missing{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&] {
      for (int k = 0; k < kKeys; ++k) {
        auto got = (*manager)->Get("k" + std::to_string(k));
        if (got == nullptr || *got != payload(k)) missing.fetch_add(1);
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(missing.load(), 0);
}

TEST_F(SsdCacheTest, ConcurrentReadsLoseNoBlockFromBothLevels) {
  // A block leaves the SSD tier only by capacity eviction or by its own
  // promotion. The SSD tier here evicts nothing, so after any mix of
  // concurrent Get and GetBatch every block still reads back from one of
  // the levels. Losses this caught: a re-spill rewriting a file other
  // threads were reading, a failed read or a promotion dropping a newer
  // spill of the same key, an unlink removing a freshly published file,
  // and a re-spill of a run's first key replacing the whole run.
  constexpr int kBlocks = 64;
  constexpr int kThreads = 8;
  auto key = [](int b) { return "obj#" + std::to_string(b); };
  auto payload = [](int b) {
    return std::string(4096, static_cast<char>('a' + b % 26)) +
           std::to_string(b);
  };
  for (int round = 0; round < 20; ++round) {
    SCOPED_TRACE("round " + std::to_string(round));
    std::filesystem::remove_all(dir_);
    BlockManagerOptions options;
    options.memory_capacity_bytes = 32 << 10;
    options.memory_shards = 2;
    options.ssd_dir = dir_.string();
    options.ssd_capacity_bytes = 1ull << 30;
    auto manager = BlockManager::Open(options);
    ASSERT_TRUE(manager.ok());
    for (int b = 0; b < kBlocks; ++b) {
      (*manager)->Insert(key(b), Block(payload(b)));
    }

    std::atomic<int> wrong{0};
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        Random rng(static_cast<uint64_t>(round * kThreads + t + 1));
        for (int op = 0; op < 200; ++op) {
          const int first = static_cast<int>(rng.Uniform(kBlocks));
          if (rng.OneIn(2)) {
            auto got = (*manager)->Get(key(first));
            if (got != nullptr && *got != payload(first)) wrong.fetch_add(1);
            continue;
          }
          std::vector<std::string> keys;
          for (int b = first; b < std::min(first + 4, kBlocks); ++b) {
            keys.push_back(key(b));
          }
          auto got = (*manager)->GetBatch(keys);
          for (size_t i = 0; i < got.size(); ++i) {
            if (got[i] != nullptr &&
                *got[i] != payload(first + static_cast<int>(i))) {
              wrong.fetch_add(1);
            }
          }
        }
      });
    }
    for (auto& thread : threads) thread.join();
    EXPECT_EQ(wrong.load(), 0);
    int missing = 0;
    for (int b = 0; b < kBlocks; ++b) {
      auto got = (*manager)->Get(key(b));
      if (got == nullptr || *got != payload(b)) ++missing;
    }
    EXPECT_EQ(missing, 0);
    EXPECT_EQ((*manager)->ssd_stats().evictions.load(), 0u);
  }
}

}  // namespace
}  // namespace logstore::cache
