#include <gtest/gtest.h>

#include <atomic>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "cache/block_manager.h"
#include "common/random.h"
#include "logblock/logblock_reader.h"
#include "logblock/logblock_writer.h"
#include "objectstore/memory_object_store.h"
#include "objectstore/retrying_object_store.h"
#include "objectstore/simulated_object_store.h"
#include "prefetch/cached_source.h"
#include "prefetch/prefetch_service.h"

namespace logstore::prefetch {
namespace {

std::string MakeObject(size_t n, uint64_t seed) {
  Random rng(seed);
  std::string data(n, '\0');
  for (size_t i = 0; i < n; ++i) data[i] = static_cast<char>(rng.Uniform(256));
  return data;
}

class PrefetchServiceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    store_ = std::make_unique<objectstore::MemoryObjectStore>();
    auto cache = cache::BlockManager::Open({.memory_capacity_bytes = 8 << 20,
                                            .memory_shards = 4,
                                            .ssd_dir = ""});
    ASSERT_TRUE(cache.ok());
    cache_ = std::move(cache).value();
  }

  std::unique_ptr<objectstore::MemoryObjectStore> store_;
  std::unique_ptr<cache::BlockManager> cache_;
};

TEST_F(PrefetchServiceTest, ReadAssemblesAcrossBlocks) {
  const std::string data = MakeObject(10000, 1);
  ASSERT_TRUE(store_->Put("obj", data).ok());
  PrefetchService service(store_.get(), cache_.get(),
                          {.threads = 4, .block_size = 1024});

  // Spans multiple aligned blocks with odd offsets.
  for (auto [offset, size] : std::vector<std::pair<uint64_t, uint64_t>>{
           {0, 10}, {1000, 100}, {1023, 2}, {5000, 4000}, {9990, 10}}) {
    auto got = service.Read("obj", offset, size);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    EXPECT_EQ(*got, data.substr(offset, size)) << offset << "+" << size;
  }
}

TEST_F(PrefetchServiceTest, ReadBeyondObjectFails) {
  ASSERT_TRUE(store_->Put("obj", "0123456789").ok());
  PrefetchService service(store_.get(), cache_.get(),
                          {.threads = 2, .block_size = 4});
  EXPECT_FALSE(service.Read("obj", 5, 100).ok());
  EXPECT_FALSE(service.Read("missing", 0, 1).ok());
}

// Counts Head calls, which the retry layer issues to verify a short read.
class HeadCountingStore : public objectstore::ObjectStore {
 public:
  explicit HeadCountingStore(objectstore::ObjectStore* base) : base_(base) {}

  Status Put(const std::string& key, const Slice& data) override {
    return base_->Put(key, data);
  }
  Result<std::string> Get(const std::string& key) override {
    return base_->Get(key);
  }
  Result<std::string> GetRange(const std::string& key, uint64_t offset,
                               uint64_t length) override {
    return base_->GetRange(key, offset, length);
  }
  Result<uint64_t> Head(const std::string& key) override {
    heads_.fetch_add(1);
    return base_->Head(key);
  }
  Result<std::vector<std::string>> List(const std::string& prefix) override {
    return base_->List(prefix);
  }
  Status Delete(const std::string& key) override { return base_->Delete(key); }
  objectstore::ObjectStoreStats& stats() override { return base_->stats(); }

  uint64_t heads() const { return heads_.load(); }

 private:
  objectstore::ObjectStore* base_;
  std::atomic<uint64_t> heads_{0};
};

TEST_F(PrefetchServiceTest, KnownObjectSizeClampsTailReads) {
  // 10000 bytes in 1024-byte blocks: the last block is short, so an
  // unclamped fetch of it comes back short and the retry layer proves
  // end-of-object with a Head. With the size known, no fetch is short.
  const std::string data = MakeObject(10000, 11);
  ASSERT_TRUE(store_->Put("obj", data).ok());
  HeadCountingStore counting(store_.get());
  objectstore::RetryingObjectStore retrying(&counting);
  ASSERT_TRUE(retrying.options().verify_short_reads);

  {
    PrefetchService service(&retrying, cache_.get(),
                            {.threads = 2, .block_size = 1024});
    auto got = service.Read("obj", 9000, 1000);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    EXPECT_EQ(*got, data.substr(9000));
    EXPECT_GT(counting.heads(), 0u) << "unknown size: the tail read is short";
  }

  ASSERT_TRUE(store_->Put("obj2", data).ok());
  const uint64_t heads_before = counting.heads();
  PrefetchService service(&retrying, cache_.get(),
                          {.threads = 2, .block_size = 1024});
  // A prefetch past the end and reads that reach the last block.
  service.Prefetch(/*owner=*/1, "obj2", {{8000, 4096}}, data.size());
  service.WaitIdle();
  for (auto [offset, size] : std::vector<std::pair<uint64_t, uint64_t>>{
           {9000, 1000}, {0, 10000}, {9999, 1}}) {
    auto got = service.Read("obj2", offset, size, data.size());
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    EXPECT_EQ(*got, data.substr(offset, size)) << offset << "+" << size;
  }
  EXPECT_EQ(counting.heads(), heads_before);
  EXPECT_EQ(retrying.retry_stats().short_reads.load(), 0u);
}

TEST_F(PrefetchServiceTest, ObjectShorterThanKnownSizeStillFails) {
  // The map says 10000 bytes but the store holds 6000: the clamped fetch
  // still comes back short, the retry layer's Head check runs as before,
  // and the read fails as a retryable IOError instead of returning fewer
  // bytes.
  const std::string data = MakeObject(10000, 12);
  ASSERT_TRUE(store_->Put("obj", data.substr(0, 6000)).ok());
  HeadCountingStore counting(store_.get());
  objectstore::RetryingObjectStore retrying(&counting);
  PrefetchService service(&retrying, cache_.get(),
                          {.threads = 2, .block_size = 1024});

  auto tail = service.Read("obj", 5000, 2000, data.size());
  EXPECT_TRUE(tail.status().IsIOError()) << tail.status().ToString();
  auto whole = service.Read("obj", 0, 10000, data.size());
  EXPECT_TRUE(whole.status().IsIOError()) << whole.status().ToString();
  EXPECT_GT(counting.heads(), 0u);
  auto head = service.Read("obj", 0, 1000, data.size());
  ASSERT_TRUE(head.ok()) << head.status().ToString();
  EXPECT_EQ(*head, data.substr(0, 1000));
}

TEST_F(PrefetchServiceTest, CacheAvoidsRefetch) {
  const std::string data = MakeObject(4096, 2);
  ASSERT_TRUE(store_->Put("obj", data).ok());
  PrefetchService service(store_.get(), cache_.get(),
                          {.threads = 2, .block_size = 1024});

  ASSERT_TRUE(service.Read("obj", 0, 4096).ok());
  const uint64_t first_pass = store_->stats().range_gets.load();
  EXPECT_EQ(first_pass, 1u);  // 4 blocks coalesced into one ranged GET

  ASSERT_TRUE(service.Read("obj", 0, 4096).ok());
  EXPECT_EQ(store_->stats().range_gets.load(), first_pass);  // all cached
}

TEST_F(PrefetchServiceTest, PrefetchWarmsCache) {
  const std::string data = MakeObject(8192, 3);
  ASSERT_TRUE(store_->Put("obj", data).ok());
  PrefetchService service(store_.get(), cache_.get(),
                          {.threads = 8, .block_size = 1024});

  service.Prefetch("obj", {{0, 4096}, {6000, 1000}});
  service.WaitIdle();
  const uint64_t prefetched = store_->stats().range_gets.load();
  EXPECT_EQ(prefetched, 2u);  // two runs: blocks 0-3, blocks 5-6

  auto got = service.Read("obj", 0, 4096);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(*got, data.substr(0, 4096));
  EXPECT_EQ(store_->stats().range_gets.load(), prefetched);  // no new IO
}

TEST_F(PrefetchServiceTest, OverlappingRangesDedup) {
  const std::string data = MakeObject(4096, 4);
  ASSERT_TRUE(store_->Put("obj", data).ok());
  PrefetchService service(store_.get(), cache_.get(),
                          {.threads = 8, .block_size = 1024});
  // Three overlapping ranges all inside blocks 0..2: one coalesced GET.
  service.Prefetch("obj", {{0, 2000}, {500, 1500}, {100, 2500}});
  service.WaitIdle();
  EXPECT_EQ(store_->stats().range_gets.load(), 1u);
}

TEST_F(PrefetchServiceTest, ParallelPrefetchOverlapsLatency) {
  // With simulated per-request latency, prefetching N blocks on T threads
  // should take ~N/T * latency, much less than serial N * latency.
  objectstore::SimulatedStoreOptions sim;
  sim.first_byte_latency_us = 10000;  // 10 ms
  sim.bandwidth_bytes_per_us = 1e9;
  sim.max_concurrent_requests = 64;
  sim.time_scale = 1.0;
  auto base = std::make_unique<objectstore::MemoryObjectStore>();
  ASSERT_TRUE(base->Put("obj", MakeObject(16 * 1024, 5)).ok());
  objectstore::SimulatedObjectStore slow(std::move(base), sim);

  PrefetchService service(&slow, cache_.get(),
                          {.threads = 16, .block_size = 1024});
  const auto start = std::chrono::steady_clock::now();
  // Strided single-block ranges cannot coalesce: 8 distinct requests,
  // which must overlap on the thread pool rather than run serially.
  std::vector<ByteRange> ranges;
  for (uint64_t b = 0; b < 16; b += 2) ranges.push_back({b * 1024, 1});
  service.Prefetch("obj", ranges);
  service.WaitIdle();
  const auto elapsed_ms =
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::steady_clock::now() - start)
          .count();
  // Serial would be >= 160 ms; parallel on 16 threads should be well under.
  EXPECT_LT(elapsed_ms, 100);
  // And the data must be readable without further IO cost.
  auto got = service.Read("obj", 1000, 2000);
  ASSERT_TRUE(got.ok());
}

TEST_F(PrefetchServiceTest, ConcurrentReadersOfSameRunFetchOnce) {
  // Many threads read the same uncached run at once. The in-flight set must
  // collapse them onto a single ranged GET, and every reader must still see
  // byte-exact data. Simulated latency keeps the race window wide open.
  objectstore::SimulatedStoreOptions sim;
  sim.first_byte_latency_us = 5000;  // 5 ms: all threads pile up in-flight
  sim.bandwidth_bytes_per_us = 1e9;
  sim.max_concurrent_requests = 64;
  sim.time_scale = 1.0;
  const std::string data = MakeObject(64 * 1024, 6);
  auto base = std::make_unique<objectstore::MemoryObjectStore>();
  ASSERT_TRUE(base->Put("obj", data).ok());
  objectstore::SimulatedObjectStore slow(std::move(base), sim);

  PrefetchService service(&slow, cache_.get(),
                          {.threads = 8, .block_size = 4096});

  constexpr int kThreads = 16;
  std::atomic<int> mismatches{0};
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      // Same run of blocks for everyone, offsets staggered inside it.
      auto got = service.Read("obj", 100, 16000);
      if (!got.ok()) {
        failures++;
      } else if (*got != data.substr(100, 16000)) {
        mismatches++;
      }
    });
  }
  for (auto& thread : threads) thread.join();

  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(mismatches.load(), 0);
  // One coalesced fetch for the whole run; losers of the race waited on the
  // in-flight entry instead of issuing their own GET.
  EXPECT_EQ(service.fetches_issued(), 1u);
  EXPECT_EQ(slow.stats().range_gets.load(), 1u);
  EXPECT_EQ(service.fetch_errors(), 0u);
}

TEST_F(PrefetchServiceTest, CachedSourceServesLogBlocks) {
  // End-to-end: build a LogBlock, upload, read through the cached source.
  logblock::RowBatch batch(logblock::RequestLogSchema());
  for (uint32_t i = 0; i < 300; ++i) {
    batch.AddRow({logblock::Value::Int64(1), logblock::Value::Int64(i),
                  logblock::Value::String("10.0.0." + std::to_string(i % 5)),
                  logblock::Value::Int64(i % 100),
                  logblock::Value::String("false"),
                  logblock::Value::String("request completed ok")});
  }
  auto built = logblock::BuildLogBlock(batch, 1, {.rows_per_block = 64});
  ASSERT_TRUE(built.ok());
  ASSERT_TRUE(store_->Put("tenant1/block0.tar", built->data).ok());

  PrefetchService service(store_.get(), cache_.get(),
                          {.threads = 4, .block_size = 4096});
  auto source =
      std::make_shared<CachedObjectSource>(&service, "tenant1/block0.tar");
  auto reader = logblock::LogBlockReader::Open(source);
  ASSERT_TRUE(reader.ok()) << reader.status().ToString();
  EXPECT_EQ((*reader)->num_rows(), 300u);

  // Prefetch the ip column's blocks, then read them.
  std::vector<ByteRange> ranges;
  for (size_t b = 0; b < (*reader)->meta().columns[2].blocks.size(); ++b) {
    auto range = (*reader)->ColumnBlockRange(2, b);
    ASSERT_TRUE(range.ok());
    ranges.push_back(*range);
  }
  ASSERT_TRUE(source->Prefetch(ranges).ok());
  service.WaitIdle();
  auto decoded = (*reader)->ReadColumnBlock(2, 0);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->strs[0], "10.0.0.0");
}

TEST_F(PrefetchServiceTest, DirectSourceBypassesCache) {
  ASSERT_TRUE(store_->Put("obj", "0123456789").ok());
  DirectObjectSource source(store_.get(), "obj");
  auto got = source.ReadRange(2, 5);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(*got, "23456");
  EXPECT_TRUE(source.Prefetch({{0, 10}}).ok());  // default no-op
}

// Records GetRange key order and blocks the FIRST fetch until released, so
// a test can enqueue prefetch work while the (single) dispatcher is pinned.
class BlockingRecordingStore : public objectstore::ObjectStore {
 public:
  explicit BlockingRecordingStore(objectstore::ObjectStore* base)
      : base_(base) {}

  Status Put(const std::string& key, const Slice& data) override {
    return base_->Put(key, data);
  }
  Result<std::string> Get(const std::string& key) override {
    return base_->Get(key);
  }
  Result<std::string> GetRange(const std::string& key, uint64_t offset,
                               uint64_t length) override {
    {
      std::unique_lock<std::mutex> lock(mu_);
      keys_.push_back(key);
      const bool first = keys_.size() == 1;
      started_.notify_all();
      if (first) gate_.wait(lock, [&] { return gate_open_; });
    }
    return base_->GetRange(key, offset, length);
  }
  Result<uint64_t> Head(const std::string& key) override {
    return base_->Head(key);
  }
  Result<std::vector<std::string>> List(const std::string& prefix) override {
    return base_->List(prefix);
  }
  Status Delete(const std::string& key) override { return base_->Delete(key); }
  objectstore::ObjectStoreStats& stats() override { return base_->stats(); }

  void WaitForFirstFetch() {
    std::unique_lock<std::mutex> lock(mu_);
    started_.wait(lock, [&] { return !keys_.empty(); });
  }
  void OpenGate() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      gate_open_ = true;
    }
    gate_.notify_all();
  }
  std::vector<std::string> keys() {
    std::lock_guard<std::mutex> lock(mu_);
    return keys_;
  }

 private:
  objectstore::ObjectStore* base_;
  std::mutex mu_;
  std::condition_variable started_, gate_;
  bool gate_open_ = false;
  std::vector<std::string> keys_;
};

TEST_F(PrefetchServiceTest, OwnersAreServedRoundRobin) {
  // A wide query flooding the prefetch queue must not starve a concurrent
  // narrow one: pending runs are queued per owner and dispatched
  // round-robin, so owner 2's single run is served right after owner 1's
  // in-flight fetch — not behind its whole backlog.
  ASSERT_TRUE(store_->Put("A", MakeObject(8192, 7)).ok());
  ASSERT_TRUE(store_->Put("B", MakeObject(1024, 8)).ok());
  BlockingRecordingStore recording(store_.get());

  // One dispatcher thread; coalescing capped at one block so owner 1's
  // request splits into 8 independent runs.
  PrefetchService service(&recording, cache_.get(),
                          {.threads = 1,
                           .block_size = 1024,
                           .max_coalesced_bytes = 1024});

  service.Prefetch(/*owner=*/1, "A", {{0, 8192}});
  recording.WaitForFirstFetch();  // dispatcher now pinned on A's first run
  service.Prefetch(/*owner=*/2, "B", {{0, 1024}});
  recording.OpenGate();
  service.WaitIdle();

  const auto keys = recording.keys();
  ASSERT_EQ(keys.size(), 9u);
  EXPECT_EQ(keys[0], "A");
  EXPECT_EQ(keys[1], "B") << "owner 2 was starved behind owner 1's backlog";
  for (size_t i = 2; i < keys.size(); ++i) EXPECT_EQ(keys[i], "A");

  // Everything actually landed in the cache.
  auto b = service.Read("B", 0, 1024);
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(recording.keys().size(), 9u) << "Read(B) should be a cache hit";
}

TEST_F(PrefetchServiceTest, UntaggedPrefetchStillWorks) {
  // The owner-less overload (legacy call sites) funnels into owner 0.
  const std::string data = MakeObject(4096, 9);
  ASSERT_TRUE(store_->Put("obj", data).ok());
  PrefetchService service(store_.get(), cache_.get(),
                          {.threads = 2, .block_size = 1024});
  service.Prefetch("obj", {{0, 4096}});
  service.WaitIdle();
  const uint64_t fetched = service.fetches_issued();
  EXPECT_GT(fetched, 0u);
  auto got = service.Read("obj", 0, 4096);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(*got, data);
  EXPECT_EQ(service.fetches_issued(), fetched) << "Read should hit the cache";
}

}  // namespace
}  // namespace logstore::prefetch
