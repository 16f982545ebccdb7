// Parallel query execution property tests: every schedule of the engine's
// block scan must answer as the test-only reference evaluator does
// (reference_query.h), and the thread count must be invisible — rows
// (content AND order) and deterministic stats byte-equal at 1, 4 and 8
// threads — across a seeded query matrix, including limit queries, fault
// injection, cancellation after a real error, and many queries sharing one
// engine. A limit query gathers each LogBlock's share of the limit only:
// the bytes it decodes and the ranges it reads stop at the limit cut, and a
// failure past the cut does not fail it.

#include <gtest/gtest.h>

#include <filesystem>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "cluster/data_builder.h"
#include "logblock/format.h"
#include "logblock/logblock_reader.h"
#include "objectstore/fault_injecting_object_store.h"
#include "objectstore/memory_object_store.h"
#include "objectstore/retrying_object_store.h"
#include "objectstore/simulated_object_store.h"
#include "query/engine.h"
#include "reference_query.h"
#include "rowstore/row_store.h"
#include "workload/loggen.h"
#include "workload/querygen.h"

namespace logstore::query {
namespace {

class ParallelQueryTest : public ::testing::TestWithParam<int> {
 protected:
  static constexpr int64_t kHistory = 8ll * 3600 * 1'000'000;

  void SetUp() override {
    store_ = std::make_unique<objectstore::MemoryObjectStore>();
    // Small LogBlocks so each tenant spans many of them: the parallel
    // scheduler has real fan-out and limit queries break mid-list.
    cluster::DataBuilderOptions builder_options;
    builder_options.max_rows_per_logblock = 500;
    builder_options.block_options.rows_per_block = rows_per_block_;
    cluster::DataBuilder builder(store_.get(), &map_, builder_options);
    rowstore::RowStore rows(logblock::RequestLogSchema());
    workload::LogGenerator gen(41);
    for (uint64_t tenant = 0; tenant < 3; ++tenant) {
      data_.push_back({tenant, gen.Generate(tenant, 4000, 0, kHistory)});
      rows.Append(tenant, data_.back().batch);
    }
    ASSERT_TRUE(builder.BuildOnce(&rows).ok());
  }

  EngineOptions Options(int threads) const {
    EngineOptions options;
    options.query_threads = threads;
    options.prefetch_threads = 4;
    options.io_block_size = 4096;
    options.cache_options.memory_capacity_bytes = 8 << 20;
    options.cache_options.ssd_dir.clear();
    return options;
  }

  Result<QueryResult> Run(objectstore::ObjectStore* store,
                          const EngineOptions& options, const LogQuery& query) {
    auto engine = QueryEngine::Open(store, options);
    if (!engine.ok()) return engine.status();
    return (*engine)->Execute(query, map_);
  }

  // Asserts full byte-identity between two schedules: columns, row
  // contents, row ORDER, and the execution stats the merge is supposed to
  // reproduce.
  void ExpectIdentical(const QueryResult& expected, const QueryResult& actual,
                       const std::string& label) {
    EXPECT_EQ(actual.columns, expected.columns) << label;
    ASSERT_EQ(actual.rows.size(), expected.rows.size()) << label;
    for (size_t r = 0; r < expected.rows.size(); ++r) {
      EXPECT_EQ(actual.rows[r], expected.rows[r]) << label << " row " << r;
    }
    EXPECT_EQ(actual.stats.logblocks_sma_skipped,
              expected.stats.logblocks_sma_skipped)
        << label;
    EXPECT_EQ(actual.stats.exec.column_blocks_scanned,
              expected.stats.exec.column_blocks_scanned)
        << label;
    EXPECT_EQ(actual.stats.exec.column_blocks_skipped,
              expected.stats.exec.column_blocks_skipped)
        << label;
    EXPECT_EQ(actual.stats.exec.index_probes, expected.stats.exec.index_probes)
        << label;
    EXPECT_EQ(actual.stats.exec.rows_matched, expected.stats.exec.rows_matched)
        << label;
  }

  // The OSS model of the benchmarks: 2 ms to first byte, 50 MB/s shared.
  static objectstore::SimulatedStoreOptions OssModel() {
    objectstore::SimulatedStoreOptions sim;
    sim.first_byte_latency_us = 2000;
    sim.bandwidth_bytes_per_us = 50.0;
    sim.max_concurrent_requests = 64;
    return sim;
  }

  uint32_t rows_per_block_ = 128;
  std::unique_ptr<objectstore::MemoryObjectStore> store_;
  logblock::LogBlockMap map_;
  std::vector<reference::TenantRows> data_;
};

TEST_P(ParallelQueryTest, MatchesReferenceAtEveryThreadCount) {
  workload::QueryGenerator qgen(static_cast<uint64_t>(GetParam()));
  const uint64_t tenant = static_cast<uint64_t>(GetParam()) % 3;
  for (const auto& base_query : qgen.TenantQuerySet(tenant, 0, kHistory)) {
    // 128/129 and 500/501 cut at and just past a column block and a
    // LogBlock.
    for (uint32_t limit : {0u, 1u, 7u, 100u, 128u, 129u, 500u, 501u}) {
      LogQuery query = base_query;
      query.limit = limit;
      const std::string label = "limit=" + std::to_string(limit);
      auto inline_run = Run(store_.get(), Options(1), query);
      ASSERT_TRUE(inline_run.ok()) << inline_run.status().ToString();
      reference::ExpectMatchesReference(reference::Evaluate(data_, query),
                                        query, *inline_run, label);
      for (int threads : {4, 8}) {
        auto pooled = Run(store_.get(), Options(threads), query);
        ASSERT_TRUE(pooled.ok()) << pooled.status().ToString();
        ExpectIdentical(*inline_run, *pooled,
                        label + " threads=" + std::to_string(threads));
      }
    }
  }
}

TEST_P(ParallelQueryTest, MatchesReferenceUnderTransientFaults) {
  // Transient object-store faults mid-scan are absorbed by the retry layer
  // below the scheduler; results still match the reference and stay
  // identical to a clean inline run, in content and order.
  objectstore::FaultInjectionOptions faults;
  faults.error_rate = 0.05;
  faults.short_read_rate = 0.02;
  faults.seed = 1000 + static_cast<uint64_t>(GetParam());
  objectstore::FaultInjectingObjectStore flaky(store_.get(), faults);
  objectstore::RetryOptions retry;
  retry.max_attempts = 8;
  retry.initial_backoff_us = 100;
  retry.max_backoff_us = 1000;
  objectstore::RetryingObjectStore retrying(&flaky, retry);

  EngineOptions options = Options(8);

  workload::QueryGenerator qgen(static_cast<uint64_t>(GetParam()));
  const uint64_t tenant = static_cast<uint64_t>(GetParam()) % 3;
  for (const auto& base_query : qgen.TenantQuerySet(tenant, 0, kHistory)) {
    for (uint32_t limit : {0u, 7u}) {
      LogQuery query = base_query;
      query.limit = limit;
      const std::string label = "faulty limit=" + std::to_string(limit);
      auto clean = Run(store_.get(), Options(1), query);
      ASSERT_TRUE(clean.ok()) << clean.status().ToString();
      auto faulty = Run(&retrying, options, query);
      ASSERT_TRUE(faulty.ok()) << faulty.status().ToString();
      reference::ExpectMatchesReference(reference::Evaluate(data_, query),
                                        query, *faulty, label);
      ExpectIdentical(*clean, *faulty, label);
    }
  }
  EXPECT_GT(flaky.fault_stats().injected_errors.load(), 0u);
}

TEST_F(ParallelQueryTest, CancellationUnderErrorDoesNotHangOrPoison) {
  // One LogBlock's object is unreachable: the parallel run must return that
  // error (not Aborted, not a hang), cancel the remaining work, and leave
  // the engine fully usable afterwards.
  objectstore::FaultInjectingObjectStore flaky(store_.get(), {});
  const auto blocks = map_.TenantBlocks(1);
  ASSERT_GT(blocks.size(), 2u);
  flaky.BlacklistKey(blocks[blocks.size() / 2].object_key);

  auto engine = QueryEngine::Open(&flaky, Options(8));
  ASSERT_TRUE(engine.ok());

  LogQuery query;
  query.tenant_id = 1;
  query.ts_min = 0;
  query.ts_max = kHistory;
  auto failed = (*engine)->Execute(query, map_);
  ASSERT_FALSE(failed.ok());
  EXPECT_FALSE(failed.status().IsAborted()) << failed.status().ToString();

  // Same engine, fault cleared: the reference answer, identical to a clean
  // inline run.
  flaky.ClearBlacklist();
  auto recovered = (*engine)->Execute(query, map_);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  reference::ExpectMatchesReference(reference::Evaluate(data_, query), query,
                                    *recovered, "recovered");
  auto clean = Run(store_.get(), Options(1), query);
  ASSERT_TRUE(clean.ok());
  ExpectIdentical(*clean, *recovered, "recovered");
}

TEST_F(ParallelQueryTest, FailurePastTheCutDoesNotFailTheQuery) {
  // The tenant's last LogBlock is unreachable, but a limit of 7 is met by
  // its first: at every thread count the query returns the reference
  // answer, because a failure stops only the blocks after the failing one,
  // and the merge never reaches it.
  const auto blocks = map_.TenantBlocks(1);
  ASSERT_GT(blocks.size(), 2u);
  auto faulty_store =
      std::make_unique<objectstore::FaultInjectingObjectStore>(
          store_.get(), objectstore::FaultInjectionOptions{});
  faulty_store->BlacklistKey(blocks.back().object_key);
  objectstore::SimulatedObjectStore oss(std::move(faulty_store), OssModel());

  LogQuery query;
  query.tenant_id = 1;
  query.limit = 7;
  auto clean = Run(store_.get(), Options(1), query);
  ASSERT_TRUE(clean.ok()) << clean.status().ToString();
  reference::ExpectMatchesReference(reference::Evaluate(data_, query), query,
                                    *clean, "clean");
  for (int threads : {1, 4, 8}) {
    for (int run = 0; run < 10; ++run) {
      const std::string label = "threads=" + std::to_string(threads) +
                                " run=" + std::to_string(run);
      auto result = Run(&oss, Options(threads), query);
      ASSERT_TRUE(result.ok()) << label << ": " << result.status().ToString();
      ExpectIdentical(*clean, *result, label);
    }
  }
}

// Records every GetRange that reaches the wrapped store.
class RangeRecordingStore : public objectstore::ObjectStore {
 public:
  struct Range {
    std::string key;
    uint64_t offset = 0;
    uint64_t length = 0;
  };

  explicit RangeRecordingStore(objectstore::ObjectStore* base) : base_(base) {}

  Status Put(const std::string& key, const Slice& data) override {
    return base_->Put(key, data);
  }
  Result<std::string> Get(const std::string& key) override {
    auto size = base_->Head(key);
    if (size.ok()) Record(key, 0, *size);
    return base_->Get(key);
  }
  Result<std::string> GetRange(const std::string& key, uint64_t offset,
                               uint64_t length) override {
    Record(key, offset, length);
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

  std::vector<Range> Take() {
    std::lock_guard<std::mutex> lock(mu_);
    return std::move(ranges_);
  }

 private:
  void Record(const std::string& key, uint64_t offset, uint64_t length) {
    std::lock_guard<std::mutex> lock(mu_);
    ranges_.push_back({key, offset, length});
  }

  objectstore::ObjectStore* base_;
  std::mutex mu_;
  std::vector<Range> ranges_;
};

TEST_F(ParallelQueryTest, NoReadOfTheGatheredColumnPastTheCut) {
  // Eight blocks scan at once on the OSS model and the first block's
  // filter meets the limit: no block past the cut may read any byte of its
  // `log` data member, which only a gather reads. Block 0's gather must.
  const auto blocks = map_.TenantBlocks(1);
  ASSERT_GT(blocks.size(), 2u);
  const EngineOptions options = Options(8);
  std::vector<ByteRange> log_data;  // per block, in map order
  for (const auto& block : blocks) {
    auto bytes = store_->Get(block.object_key);
    ASSERT_TRUE(bytes.ok());
    auto reader = logblock::LogBlockReader::Open(
        std::make_shared<logblock::StringSource>(std::move(bytes).value()));
    ASSERT_TRUE(reader.ok());
    const int log_col = (*reader)->schema().FindColumn("log");
    ASSERT_GE(log_col, 0);
    auto range = (*reader)->MemberRange(
        logblock::DataMemberName(static_cast<size_t>(log_col)));
    ASSERT_TRUE(range.ok());
    log_data.push_back(*range);
    // The aligned block holding the member's first byte lies past the head
    // warm-up and past the meta, so only a read meant for the member (or
    // for the member just before it, which this query never needs) can
    // reach it.
    auto meta = (*reader)->MemberRange(logblock::MetaMemberName());
    ASSERT_TRUE(meta.ok());
    const uint64_t first_io_block = range->offset / options.io_block_size;
    ASSERT_GE(first_io_block, 2u) << "fixture LogBlocks too small";
    ASSERT_GE(first_io_block * options.io_block_size, meta->end())
        << "fixture LogBlocks too small";
  }

  auto recording = std::make_unique<RangeRecordingStore>(store_.get());
  RangeRecordingStore* recorder = recording.get();
  objectstore::SimulatedObjectStore oss(std::move(recording), OssModel());

  LogQuery query;
  query.tenant_id = 1;
  query.select_columns = {"ts", "log"};
  query.limit = 7;
  const reference::Answer expected = reference::Evaluate(data_, query);
  for (int run = 0; run < 10; ++run) {
    const std::string label = "run=" + std::to_string(run);
    auto result = Run(&oss, options, query);
    ASSERT_TRUE(result.ok()) << label << ": " << result.status().ToString();
    reference::ExpectMatchesReference(expected, query, *result, label);

    const std::vector<RangeRecordingStore::Range> ranges = recorder->Take();
    bool read_block0_log = false;
    for (const auto& range : ranges) {
      for (size_t b = 0; b < blocks.size(); ++b) {
        if (range.key != blocks[b].object_key) continue;
        const bool in_log = range.offset < log_data[b].end() &&
                            range.offset + range.length > log_data[b].offset;
        if (b == 0) {
          read_block0_log |= in_log;
        } else {
          EXPECT_FALSE(in_log)
              << label << ": block " << b << " past the cut read ["
              << range.offset << ", " << range.offset + range.length
              << ") of its log data member";
        }
      }
    }
    EXPECT_TRUE(read_block0_log) << label;
  }
}

// Column blocks of 64 rows: a limit can cut inside or at the edge of one.
class LimitShareTest : public ParallelQueryTest {
 protected:
  LimitShareTest() { rows_per_block_ = 64; }
};

TEST_F(LimitShareTest, DecodesOnlyTheColumnBlocksOfReturnedRows) {
  // A query with no predicate decodes nothing in its filter, so all it
  // decodes is its gather: for each LogBlock in map order, the `log`
  // column blocks that hold the block's share of the limit. Worked out
  // here from the stored LogBlocks, block by block.
  const auto blocks = map_.TenantBlocks(1);
  ASSERT_GT(blocks.size(), 2u);
  struct LogColumnBlock {
    uint64_t decompressed_bytes = 0;
    std::vector<std::string> values;
  };
  std::vector<LogColumnBlock> column_blocks;  // map order, then row order
  for (const auto& block : blocks) {
    auto bytes = store_->Get(block.object_key);
    ASSERT_TRUE(bytes.ok());
    auto reader = logblock::LogBlockReader::Open(
        std::make_shared<logblock::StringSource>(std::move(bytes).value()));
    ASSERT_TRUE(reader.ok());
    const size_t log_col =
        static_cast<size_t>((*reader)->schema().FindColumn("log"));
    const auto& meta = (*reader)->meta().columns[log_col];
    for (size_t b = 0; b < meta.blocks.size(); ++b) {
      auto decoded = (*reader)->ReadColumnBlock(log_col, b);
      ASSERT_TRUE(decoded.ok());
      column_blocks.push_back(
          {decoded->decompressed_bytes,
           std::vector<std::string>(decoded->strs.begin(),
                                    decoded->strs.end())});
    }
  }

  LogQuery query;
  query.tenant_id = 1;
  query.select_columns = {"log"};
  for (uint32_t limit : {1u, 63u, 64u, 65u, 499u, 500u, 501u, 700u, 4000u}) {
    query.limit = limit;
    uint64_t want_bytes = 0;
    std::vector<std::vector<logblock::Value>> want_rows;
    for (const LogColumnBlock& block : column_blocks) {
      if (want_rows.size() == limit) break;
      want_bytes += block.decompressed_bytes;
      for (const std::string& value : block.values) {
        if (want_rows.size() == limit) break;
        want_rows.push_back({logblock::Value::String(value)});
      }
    }
    const reference::Answer expected = reference::Evaluate(data_, query);
    for (int threads : {1, 4, 8}) {
      const std::string label = "limit=" + std::to_string(limit) +
                                " threads=" + std::to_string(threads);
      auto result = Run(store_.get(), Options(threads), query);
      ASSERT_TRUE(result.ok()) << label << ": " << result.status().ToString();
      reference::ExpectMatchesReference(expected, query, *result, label);
      EXPECT_EQ(result->rows, want_rows) << label;
      EXPECT_EQ(result->stats.exec.bytes_decoded, want_bytes) << label;
    }
  }
}

TEST_F(ParallelQueryTest, ConcurrentQueriesShareOneEngine) {
  // Many queries race on one engine: one query pool, one block manager
  // (memory + SSD), one prefetch service. Every result must still match
  // its inline baseline, which matches the reference.
  const auto dir = std::filesystem::temp_directory_path() /
                   "logstore_parallel_query_ssd_test";
  std::filesystem::remove_all(dir);

  EngineOptions options = Options(8);
  options.cache_options.memory_capacity_bytes = 256 << 10;  // force SSD spill
  options.cache_options.memory_shards = 2;
  options.cache_options.ssd_dir = dir.string();
  options.cache_options.ssd_capacity_bytes = 64 << 20;
  auto engine = QueryEngine::Open(store_.get(), options);
  ASSERT_TRUE(engine.ok());

  struct Job {
    LogQuery query;
    QueryResult baseline;
  };
  std::vector<Job> jobs;
  for (int seed = 1; seed <= 3; ++seed) {
    workload::QueryGenerator qgen(static_cast<uint64_t>(seed));
    const uint64_t tenant = static_cast<uint64_t>(seed) % 3;
    for (const auto& query : qgen.TenantQuerySet(tenant, 0, kHistory)) {
      auto baseline = Run(store_.get(), Options(1), query);
      ASSERT_TRUE(baseline.ok()) << baseline.status().ToString();
      reference::ExpectMatchesReference(reference::Evaluate(data_, query),
                                        query, *baseline, "baseline");
      jobs.push_back({query, std::move(baseline).value()});
    }
  }

  std::vector<std::thread> threads;
  std::vector<int> failures(8, 0);
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&, t] {
      for (size_t j = static_cast<size_t>(t); j < jobs.size(); j += 8) {
        for (int round = 0; round < 2; ++round) {  // cold then cached
          auto result = (*engine)->Execute(jobs[j].query, map_);
          if (!result.ok() || result->rows != jobs[j].baseline.rows ||
              result->columns != jobs[j].baseline.columns) {
            ++failures[t];
          }
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();
  for (int t = 0; t < 8; ++t) EXPECT_EQ(failures[t], 0) << "thread " << t;

  engine->reset();  // release SSD files before removing the directory
  std::filesystem::remove_all(dir);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ParallelQueryTest, ::testing::Range(1, 5));

}  // namespace
}  // namespace logstore::query
