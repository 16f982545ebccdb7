#include <gtest/gtest.h>

#include <algorithm>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/random.h"
#include "index/sma.h"
#include "logblock/logblock_map.h"
#include "logblock/logblock_reader.h"
#include "logblock/logblock_writer.h"
#include "objectstore/memory_object_store.h"
#include "query/aggregation.h"
#include "query/block_executor.h"
#include "query/engine.h"
#include "query/predicate.h"
#include "reference_query.h"

namespace logstore::query {
namespace {

using logblock::RowBatch;
using logblock::Value;

// Deterministic batch covering the paper's query template:
// row i: ts = i*1000, ip cycles over 8 addresses, latency = i % 500,
// fail = (i % 10 == 0), log mentions "timeout" when i % 50 == 0.
RowBatch MakeBatch(uint32_t rows, uint64_t tenant = 7) {
  RowBatch batch(logblock::RequestLogSchema());
  for (uint32_t i = 0; i < rows; ++i) {
    batch.AddRow({
        Value::Int64(static_cast<int64_t>(tenant)),
        Value::Int64(static_cast<int64_t>(i) * 1000),
        Value::String("192.168.0." + std::to_string(i % 8)),
        Value::Int64(i % 500),
        Value::String(i % 10 == 0 ? "true" : "false"),
        Value::String(i % 50 == 0 ? "request failed with timeout"
                                  : "request served ok"),
    });
  }
  return batch;
}

std::unique_ptr<logblock::LogBlockReader> OpenBlock(const RowBatch& batch,
                                                    uint32_t rows_per_block) {
  auto built =
      logblock::BuildLogBlock(batch, 7, {.rows_per_block = rows_per_block});
  EXPECT_TRUE(built.ok());
  auto reader = logblock::LogBlockReader::Open(
      std::make_shared<logblock::StringSource>(std::move(built->data)));
  EXPECT_TRUE(reader.ok());
  return std::move(reader).value();
}

TEST(PredicateTest, Int64Intervals) {
  EXPECT_EQ(Predicate::Int64Compare("x", CompareOp::kEq, 5).Int64Interval(),
            std::make_pair(int64_t{5}, int64_t{5}));
  EXPECT_EQ(Predicate::Int64Compare("x", CompareOp::kGe, 5).Int64Interval(),
            std::make_pair(int64_t{5}, INT64_MAX));
  EXPECT_EQ(Predicate::Int64Compare("x", CompareOp::kLt, 5).Int64Interval(),
            std::make_pair(INT64_MIN, int64_t{4}));
}

TEST(PredicateTest, ComparisonsPastTheInt64RangeAreEmpty) {
  // No value is below INT64_MIN or above INT64_MAX: the interval is empty
  // (lo > hi) instead of wrapping around to the full range.
  for (const auto& pred :
       {Predicate::Int64Compare("x", CompareOp::kLt, INT64_MIN),
        Predicate::Int64Compare("x", CompareOp::kGt, INT64_MAX)}) {
    const auto [lo, hi] = pred.Int64Interval();
    EXPECT_GT(lo, hi);
  }
  EXPECT_EQ(
      Predicate::Int64Compare("x", CompareOp::kLe, INT64_MIN).Int64Interval(),
      std::make_pair(INT64_MIN, INT64_MIN));
  EXPECT_EQ(
      Predicate::Int64Compare("x", CompareOp::kGe, INT64_MAX).Int64Interval(),
      std::make_pair(INT64_MAX, INT64_MAX));
  index::Int64Sma everything;
  everything.Update(INT64_MIN);
  everything.Update(INT64_MAX);
  EXPECT_TRUE(everything.DisjointWith(INT64_MAX, INT64_MIN));
  EXPECT_FALSE(everything.Within(INT64_MAX, INT64_MIN));
}

TEST(PredicateTest, EvalInt64) {
  const auto ge = Predicate::Int64Compare("x", CompareOp::kGe, 10);
  EXPECT_TRUE(ge.EvalInt64(10));
  EXPECT_FALSE(ge.EvalInt64(9));
  const auto ne = Predicate::Int64Compare("x", CompareOp::kNe, 0);
  EXPECT_TRUE(ne.EvalInt64(1));
  EXPECT_FALSE(ne.EvalInt64(0));
}

TEST(BlockExecutorTest, PaperTemplateQuery) {
  const RowBatch batch = MakeBatch(1000);
  auto reader = OpenBlock(batch, 128);

  // The §5.1 sample: ts range + ip + latency >= X + fail = 'false'.
  LogQuery query;
  query.ts_min = 100'000;
  query.ts_max = 600'000;
  query.predicates = {
      Predicate::StringEq("ip", "192.168.0.1"),
      Predicate::Int64Compare("latency", CompareOp::kGe, 100),
      Predicate::StringEq("fail", "false"),
  };
  query.select_columns = {"log", "ts"};

  auto result = ExecuteOnLogBlock(reader.get(), query);
  ASSERT_TRUE(result.ok()) << result.status().ToString();

  // Brute-force expected rows.
  uint32_t expected = 0;
  for (uint32_t i = 0; i < 1000; ++i) {
    const int64_t ts = static_cast<int64_t>(i) * 1000;
    if (ts >= query.ts_min && ts <= query.ts_max && i % 8 == 1 &&
        (i % 500) >= 100 && i % 10 != 0) {
      ++expected;
    }
  }
  EXPECT_EQ(result->rows.size(), expected);
  EXPECT_GT(expected, 0u);
  for (const auto& row : result->rows) {
    ASSERT_EQ(row.size(), 2u);
    EXPECT_EQ(row[0].type, logblock::ColumnType::kString);
    EXPECT_GE(row[1].i, query.ts_min);
    EXPECT_LE(row[1].i, query.ts_max);
  }
  EXPECT_GT(result->stats.index_probes, 0u);
}

TEST(BlockExecutorTest, SkippingAndScanAgree) {
  const RowBatch batch = MakeBatch(2000);
  auto reader = OpenBlock(batch, 100);

  const std::vector<LogQuery> queries = [] {
    std::vector<LogQuery> qs;
    LogQuery q1;
    q1.predicates = {Predicate::Match("log", "timeout")};
    qs.push_back(q1);
    LogQuery q2;
    q2.ts_min = 500'000;
    q2.predicates = {Predicate::Int64Compare("latency", CompareOp::kLt, 50)};
    qs.push_back(q2);
    LogQuery q3;
    q3.predicates = {Predicate::StringEq("fail", "true"),
                     Predicate::StringEq("ip", "192.168.0.0")};
    qs.push_back(q3);
    LogQuery q4;  // kNe forces residual scan even on indexed column
    q4.predicates = {Predicate::Int64Compare("latency", CompareOp::kNe, 0),
                     Predicate::Int64Compare("tenant_id", CompareOp::kEq, 7)};
    qs.push_back(q4);
    return qs;
  }();

  for (size_t qi = 0; qi < queries.size(); ++qi) {
    auto with = ExecuteOnLogBlock(reader.get(), queries[qi],
                                  {.use_data_skipping = true});
    auto without = ExecuteOnLogBlock(reader.get(), queries[qi],
                                     {.use_data_skipping = false});
    ASSERT_TRUE(with.ok()) << with.status().ToString();
    ASSERT_TRUE(without.ok()) << without.status().ToString();
    EXPECT_EQ(with->rows.size(), without->rows.size()) << "query " << qi;
    for (size_t r = 0; r < with->rows.size(); ++r) {
      for (size_t c = 0; c < with->rows[r].size(); ++c) {
        EXPECT_TRUE(with->rows[r][c] == without->rows[r][c])
            << "query " << qi << " row " << r;
      }
    }
    // Skipping must not scan more blocks than the full scan.
    EXPECT_LE(with->stats.column_blocks_scanned,
              without->stats.column_blocks_scanned);
  }
}

TEST(BlockExecutorTest, ColumnSmaSkipsWholeBlock) {
  const RowBatch batch = MakeBatch(500);
  auto reader = OpenBlock(batch, 100);

  LogQuery query;
  query.predicates = {
      Predicate::Int64Compare("tenant_id", CompareOp::kEq, 999)};  // never
  auto result = ExecuteOnLogBlock(reader.get(), query);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->stats.skipped_by_column_sma);
  EXPECT_TRUE(result->rows.empty());
  EXPECT_EQ(result->stats.column_blocks_scanned, 0u);
  EXPECT_EQ(result->stats.index_probes, 0u);
}

TEST(BlockExecutorTest, BlockSmaSkipsUnindexedColumn) {
  // latency is unindexed; blocks are aligned so that block SMA decides
  // every block of a tight latency range.
  RowBatch batch(logblock::RequestLogSchema());
  for (uint32_t i = 0; i < 1000; ++i) {
    batch.AddRow({Value::Int64(7), Value::Int64(i),
                  Value::String("10.0.0.1"),
                  Value::Int64(i / 100),  // latency: 0,0,..,1,1,..,9
                  Value::String("false"), Value::String("msg")});
  }
  auto reader = OpenBlock(batch, 100);

  LogQuery query;
  query.predicates = {Predicate::Int64Compare("latency", CompareOp::kEq, 5)};
  query.select_columns = {"latency"};
  auto result = ExecuteOnLogBlock(reader.get(), query);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->rows.size(), 100u);
  // Nine latency blocks lie outside the SMA range; block 5 holds only the
  // value 5, so every one of its rows matches unread.
  EXPECT_EQ(result->stats.column_blocks_scanned, 0u);
  EXPECT_EQ(result->stats.column_blocks_skipped, 10u);
  for (const auto& row : result->rows) EXPECT_EQ(row[0].i, 5);
}

TEST(BlockExecutorTest, ComparisonsPastTheInt64RangeMatchNothing) {
  // tenant_id is BKD-indexed (probed when skipping is on); latency is not
  // (SMA-checked and scanned). Either way no row can match.
  const RowBatch batch = MakeBatch(1000);
  auto reader = OpenBlock(batch, 100);
  for (const char* column : {"tenant_id", "latency"}) {
    for (const auto& [op, value] :
         {std::make_pair(CompareOp::kLt, INT64_MIN),
          std::make_pair(CompareOp::kGt, INT64_MAX)}) {
      for (bool skipping : {true, false}) {
        LogQuery query;
        query.predicates = {Predicate::Int64Compare(column, op, value)};
        auto result = ExecuteOnLogBlock(reader.get(), query,
                                        {.use_data_skipping = skipping});
        ASSERT_TRUE(result.ok()) << result.status().ToString();
        EXPECT_EQ(result->rows.size(), 0u)
            << column << " op=" << static_cast<int>(op)
            << " skipping=" << skipping;
      }
    }
  }
}

// The rows ExecuteOnLogBlock returns for `query`, checked against the
// reference evaluator over the same batch (ascending row order both).
void ExpectReferenceRows(const RowBatch& batch,
                         const BlockExecResult& result, LogQuery query) {
  query.tenant_id = 7;
  const reference::Answer expected =
      reference::Evaluate({{7, batch}}, query);
  ASSERT_EQ(result.rows.size(), expected.rows.size());
  for (size_t r = 0; r < expected.rows.size(); ++r) {
    EXPECT_EQ(result.rows[r], expected.rows[r]) << "row " << r;
  }
}

TEST(BlockExecutorTest, BlockSmaInsideTheRangeIsNotScanned) {
  // ts = i * 1000 over 10 blocks of 100 rows. ts >= 250'000 cuts block 2;
  // ts <= 799'000 ends on block 7's last row. Every other block's SMA lies
  // wholly inside or wholly outside the range, so exactly one ts block is
  // read: the one the range cuts.
  const RowBatch batch = MakeBatch(1000);
  auto reader = OpenBlock(batch, 100);
  LogQuery query;
  query.ts_min = 250'000;
  query.ts_max = 799'000;
  query.select_columns = {"ts", "latency"};
  auto result = ExecuteOnLogBlock(reader.get(), query);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->rows.size(), 550u);
  ExpectReferenceRows(batch, *result, query);
  EXPECT_EQ(result->stats.column_blocks_scanned, 1u);
}

TEST(BlockExecutorTest, RangesEndingOnABlockSmaBound) {
  // Block 5 holds ts 500'000..599'000. A range ending one below, on or one
  // past either bound must scan exactly the blocks it cuts (min < ts_min
  // <= max, or min <= ts_max < max) and return the reference's rows, so
  // an off-by-one in the inclusive checks shows in the rows or the count.
  const RowBatch batch = MakeBatch(1000);
  const uint32_t rows_per_block = 100;
  auto reader = OpenBlock(batch, rows_per_block);
  const int64_t block_min = 500'000;
  const int64_t block_max = 599'000;
  for (int64_t bound : {block_min - 1, block_min, block_min + 1,
                        block_max - 1, block_max, block_max + 1}) {
    for (bool bound_is_min : {true, false}) {
      LogQuery query;
      (bound_is_min ? query.ts_min : query.ts_max) = bound;
      query.select_columns = {"ts"};
      uint64_t cut = 0;
      for (uint32_t first = 0; first < 1000; first += rows_per_block) {
        const int64_t min = batch.Int64At(1, first);
        const int64_t max = batch.Int64At(1, first + rows_per_block - 1);
        cut += bound_is_min ? (min < bound && bound <= max)
                            : (min <= bound && bound < max);
      }
      auto result = ExecuteOnLogBlock(reader.get(), query);
      ASSERT_TRUE(result.ok()) << result.status().ToString();
      SCOPED_TRACE((bound_is_min ? "ts >= " : "ts <= ") +
                   std::to_string(bound));
      ExpectReferenceRows(batch, *result, query);
      EXPECT_EQ(result->stats.column_blocks_scanned, cut);
    }
  }
}

TEST(BlockExecutorTest, GatherPicksSparseRows) {
  // Rows at both sides of a block boundary (63, 64), the first and last
  // rows and one in the middle, gathered from 64-row blocks: the
  // projection must read each from the block that holds it.
  const std::vector<uint32_t> picked = {0, 1, 63, 64, 500, 999};
  RowBatch batch(logblock::RequestLogSchema());
  for (uint32_t i = 0; i < 1000; ++i) {
    const bool pick = std::count(picked.begin(), picked.end(), i) > 0;
    batch.AddRow({Value::Int64(7), Value::Int64(i),
                  Value::String("10.0.0." + std::to_string(i % 5)),
                  Value::Int64(pick ? 1 : 0), Value::String("false"),
                  Value::String("line " + std::to_string(i * 7919 % 1000))});
  }
  auto reader = OpenBlock(batch, 64);
  LogQuery query;
  query.predicates = {Predicate::Int64Compare("latency", CompareOp::kEq, 1)};
  query.select_columns = {"log", "ts", "ip"};
  auto result = ExecuteOnLogBlock(reader.get(), query);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(result->rows.size(), picked.size());
  for (size_t r = 0; r < picked.size(); ++r) {
    EXPECT_EQ(result->rows[r][1].i, static_cast<int64_t>(picked[r]));
  }
  ExpectReferenceRows(batch, *result, query);
}

TEST(BlockExecutorTest, LimitTruncatesRows) {
  const RowBatch batch = MakeBatch(500);
  auto reader = OpenBlock(batch, 100);
  LogQuery query;
  query.limit = 7;
  auto result = ExecuteOnLogBlock(reader.get(), query);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->rows.size(), 7u);
}

TEST(BlockExecutorTest, EmptySelectReturnsAllColumns) {
  const RowBatch batch = MakeBatch(10);
  auto reader = OpenBlock(batch, 10);
  LogQuery query;
  auto result = ExecuteOnLogBlock(reader.get(), query);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->rows.size(), 10u);
  EXPECT_EQ(result->rows[0].size(), 6u);
}

TEST(BlockExecutorTest, UnknownColumnRejected) {
  const RowBatch batch = MakeBatch(10);
  auto reader = OpenBlock(batch, 10);
  LogQuery query;
  query.predicates = {Predicate::StringEq("nope", "x")};
  EXPECT_TRUE(ExecuteOnLogBlock(reader.get(), query)
                  .status()
                  .IsInvalidArgument());
  LogQuery query2;
  query2.select_columns = {"nope"};
  EXPECT_TRUE(ExecuteOnLogBlock(reader.get(), query2)
                  .status()
                  .IsInvalidArgument());
}

TEST(BlockExecutorTest, TypeMismatchRejected) {
  const RowBatch batch = MakeBatch(10);
  auto reader = OpenBlock(batch, 10);
  LogQuery query;
  query.predicates = {Predicate::StringEq("latency", "5")};  // int column
  EXPECT_TRUE(ExecuteOnLogBlock(reader.get(), query)
                  .status()
                  .IsInvalidArgument());
  LogQuery query2;
  query2.predicates = {Predicate::Int64Compare("ip", CompareOp::kEq, 1)};
  EXPECT_TRUE(ExecuteOnLogBlock(reader.get(), query2)
                  .status()
                  .IsInvalidArgument());
}

TEST(AggregationTest, GroupCountTopK) {
  std::vector<Value> values = {
      Value::String("a"), Value::String("b"), Value::String("a"),
      Value::String("c"), Value::String("a"), Value::String("b")};
  auto top = GroupCountTopK(values, 2);
  ASSERT_EQ(top.size(), 2u);
  EXPECT_EQ(top[0].key, "a");
  EXPECT_EQ(top[0].count, 3u);
  EXPECT_EQ(top[1].key, "b");
  EXPECT_EQ(top[1].count, 2u);
}

TEST(AggregationTest, GroupCountFormatsInts) {
  std::vector<Value> values = {Value::Int64(5), Value::Int64(5),
                               Value::Int64(9)};
  auto top = GroupCountTopK(values, 10);
  ASSERT_EQ(top.size(), 2u);
  EXPECT_EQ(top[0].key, "5");
}

TEST(AggregationTest, RollupInt64) {
  std::vector<Value> values = {Value::Int64(10), Value::Int64(-5),
                               Value::Int64(25)};
  auto rollup = RollupInt64(values);
  EXPECT_EQ(rollup.count, 3u);
  EXPECT_EQ(rollup.min, -5);
  EXPECT_EQ(rollup.max, 25);
  EXPECT_EQ(rollup.sum, 30);
  EXPECT_DOUBLE_EQ(rollup.mean(), 10.0);
}

class QueryEngineTest : public ::testing::Test {
 protected:
  void SetUp() override {
    store_ = std::make_unique<objectstore::MemoryObjectStore>();
    // Three LogBlocks for tenant 7 covering consecutive hours, plus one
    // block for tenant 8.
    for (int blk = 0; blk < 3; ++blk) {
      RowBatch batch(logblock::RequestLogSchema());
      for (uint32_t i = 0; i < 600; ++i) {
        const int64_t ts = blk * 1'000'000 + i * 1000;
        batch.AddRow({Value::Int64(7), Value::Int64(ts),
                      Value::String("10.0.0." + std::to_string(i % 4)),
                      Value::Int64(i % 300),
                      Value::String(i % 2 == 0 ? "false" : "true"),
                      Value::String("block " + std::to_string(blk))});
      }
      auto built = logblock::BuildLogBlock(batch, 7, {.rows_per_block = 128});
      ASSERT_TRUE(built.ok());
      const std::string key = "tenant7/" + std::to_string(blk) + ".tar";
      ASSERT_TRUE(store_->Put(key, built->data).ok());
      map_.Add({.tenant_id = 7,
                .min_ts = built->meta.min_ts,
                .max_ts = built->meta.max_ts,
                .object_key = key,
                .size_bytes = built->data.size(),
                .row_count = built->meta.row_count});
    }
    RowBatch other(logblock::RequestLogSchema());
    other.AddRow({Value::Int64(8), Value::Int64(0), Value::String("1.1.1.1"),
                  Value::Int64(1), Value::String("false"),
                  Value::String("other tenant")});
    auto built = logblock::BuildLogBlock(other, 8);
    ASSERT_TRUE(built.ok());
    ASSERT_TRUE(store_->Put("tenant8/0.tar", built->data).ok());
    map_.Add({.tenant_id = 8,
              .min_ts = built->meta.min_ts,
              .max_ts = built->meta.max_ts,
              .object_key = "tenant8/0.tar",
              .size_bytes = built->data.size(),
              .row_count = 1});
  }

  EngineOptions SmallCacheOptions() {
    EngineOptions options;
    options.prefetch_threads = 4;
    options.io_block_size = 4096;
    options.cache_options.memory_capacity_bytes = 16 << 20;
    options.cache_options.memory_shards = 4;
    options.cache_options.ssd_dir.clear();
    return options;
  }

  std::unique_ptr<objectstore::MemoryObjectStore> store_;
  logblock::LogBlockMap map_;
};

TEST_F(QueryEngineTest, PrunesByTimeRange) {
  auto engine = QueryEngine::Open(store_.get(), SmallCacheOptions());
  ASSERT_TRUE(engine.ok());

  LogQuery query;
  query.tenant_id = 7;
  query.ts_min = 1'000'000;          // second block only
  query.ts_max = 1'000'000 + 599'000;
  query.select_columns = {"log"};
  auto result = (*engine)->Execute(query, map_);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->stats.logblocks_total, 3u);
  EXPECT_EQ(result->stats.logblocks_pruned, 2u);
  EXPECT_EQ(result->rows.size(), 600u);
  for (const auto& row : result->rows) EXPECT_EQ(row[0].s, "block 1");
}

TEST_F(QueryEngineTest, TenantIsolation) {
  auto engine = QueryEngine::Open(store_.get(), SmallCacheOptions());
  ASSERT_TRUE(engine.ok());
  LogQuery query;
  query.tenant_id = 8;
  auto result = (*engine)->Execute(query, map_);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->rows.size(), 1u);

  query.tenant_id = 12345;  // unknown tenant: no blocks, no error
  result = (*engine)->Execute(query, map_);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->rows.empty());
}

TEST_F(QueryEngineTest, CrossBlockQueryMergesResults) {
  auto engine = QueryEngine::Open(store_.get(), SmallCacheOptions());
  ASSERT_TRUE(engine.ok());
  LogQuery query;
  query.tenant_id = 7;
  query.predicates = {Predicate::StringEq("ip", "10.0.0.2")};
  auto result = (*engine)->Execute(query, map_);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->rows.size(), 3u * 150u);  // 150 matches per block
}

TEST_F(QueryEngineTest, LimitStopsEarly) {
  auto engine = QueryEngine::Open(store_.get(), SmallCacheOptions());
  ASSERT_TRUE(engine.ok());
  LogQuery query;
  query.tenant_id = 7;
  query.limit = 10;
  auto result = (*engine)->Execute(query, map_);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->rows.size(), 10u);
}

TEST_F(QueryEngineTest, CacheReducesRepeatIo) {
  auto engine = QueryEngine::Open(store_.get(), SmallCacheOptions());
  ASSERT_TRUE(engine.ok());
  LogQuery query;
  query.tenant_id = 7;
  query.predicates = {Predicate::Match("log", "block")};
  query.select_columns = {"ts"};

  ASSERT_TRUE((*engine)->Execute(query, map_).ok());
  const uint64_t cold_io = store_->stats().range_gets.load();
  ASSERT_TRUE((*engine)->Execute(query, map_).ok());
  const uint64_t warm_io = store_->stats().range_gets.load() - cold_io;
  EXPECT_LT(warm_io * 4, cold_io) << "cold=" << cold_io << " warm=" << warm_io;
}

TEST_F(QueryEngineTest, DisabledOptimizationsStillCorrect) {
  EngineOptions options = SmallCacheOptions();
  options.use_data_skipping = false;
  options.use_cache = false;
  options.use_prefetch = false;
  auto engine = QueryEngine::Open(store_.get(), options);
  ASSERT_TRUE(engine.ok());

  LogQuery query;
  query.tenant_id = 7;
  query.ts_min = 0;
  query.ts_max = 599'000;
  query.predicates = {Predicate::StringEq("fail", "true")};
  auto result = (*engine)->Execute(query, map_);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->rows.size(), 300u);
}

TEST_F(QueryEngineTest, ColumnExtractionAndAggregation) {
  auto engine = QueryEngine::Open(store_.get(), SmallCacheOptions());
  ASSERT_TRUE(engine.ok());
  LogQuery query;
  query.tenant_id = 7;
  query.select_columns = {"ip", "latency"};
  auto result = (*engine)->Execute(query, map_);
  ASSERT_TRUE(result.ok());

  const auto ips = QueryEngine::Column(*result, "ip");
  ASSERT_EQ(ips.size(), result->rows.size());
  auto top = GroupCountTopK(ips, 2);
  ASSERT_EQ(top.size(), 2u);
  EXPECT_EQ(top[0].count, 450u);  // 600*3/4 per ip

  const auto latency = QueryEngine::Column(*result, "latency");
  EXPECT_EQ(RollupInt64(latency).max, 299);
}

TEST(QueryEngineOpenTest, RefusesMemoryTierThatHoldsNoBlock) {
  // 16 KiB over 16 shards leaves 1 KiB per shard, and every 4 KiB block is
  // larger than that: the tier would cache nothing and never feed the SSD
  // tier. Open must say so instead of running without a cache.
  objectstore::MemoryObjectStore store;
  EngineOptions options;
  options.io_block_size = 4096;
  options.cache_options.memory_capacity_bytes = 16 << 10;
  options.cache_options.memory_shards = 16;
  options.cache_options.ssd_dir.clear();
  auto refused = QueryEngine::Open(&store, options);
  ASSERT_FALSE(refused.ok());
  EXPECT_TRUE(refused.status().IsInvalidArgument())
      << refused.status().ToString();
  EXPECT_NE(refused.status().ToString().find("16384"), std::string::npos)
      << refused.status().ToString();
  EXPECT_NE(refused.status().ToString().find("4096"), std::string::npos)
      << refused.status().ToString();

  // A tier with no shard would divide by zero on its first lookup.
  options.cache_options.memory_capacity_bytes = 64 << 10;
  options.cache_options.memory_shards = 0;
  auto no_shards = QueryEngine::Open(&store, options);
  ASSERT_FALSE(no_shards.ok());
  EXPECT_TRUE(no_shards.status().IsInvalidArgument())
      << no_shards.status().ToString();

  // One block per shard is enough, and so is a tier the caller turned off.
  options.cache_options.memory_shards = 16;
  EXPECT_TRUE(QueryEngine::Open(&store, options).ok());
  options.cache_options.memory_capacity_bytes = 0;
  EXPECT_TRUE(QueryEngine::Open(&store, options).ok());
  options.cache_options.memory_capacity_bytes = 16 << 10;
  options.use_cache = false;
  EXPECT_TRUE(QueryEngine::Open(&store, options).ok());
}

// Parks every read of a gated object until its gate opens, and records the
// order in which objects are first read.
class GatedStore : public objectstore::ObjectStore {
 public:
  explicit GatedStore(objectstore::ObjectStore* base) : base_(base) {}

  Status Put(const std::string& key, const Slice& data) override {
    return base_->Put(key, data);
  }
  Result<std::string> Get(const std::string& key) override {
    Arrive(key);
    return base_->Get(key);
  }
  Result<std::string> GetRange(const std::string& key, uint64_t offset,
                               uint64_t length) override {
    Arrive(key);
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

  void Close(const std::string& key) {
    std::lock_guard<std::mutex> lock(mu_);
    closed_.insert(key);
  }
  void Open(const std::string& key) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      closed_.erase(key);
    }
    cv_.notify_all();
  }
  void WaitForParked(size_t readers) {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [&] { return parked_ == readers; });
  }
  std::vector<std::string> first_reads() {
    std::lock_guard<std::mutex> lock(mu_);
    return first_reads_;
  }

 private:
  void Arrive(const std::string& key) {
    std::unique_lock<std::mutex> lock(mu_);
    if (std::find(first_reads_.begin(), first_reads_.end(), key) ==
        first_reads_.end()) {
      first_reads_.push_back(key);
    }
    if (closed_.count(key) == 0) return;
    ++parked_;
    cv_.notify_all();
    cv_.wait(lock, [&] { return closed_.count(key) == 0; });
    --parked_;
  }

  objectstore::ObjectStore* base_;
  std::mutex mu_;
  std::condition_variable cv_;
  std::set<std::string> closed_;
  size_t parked_ = 0;
  std::vector<std::string> first_reads_;
};

TEST(QueryPoolFairnessTest, NarrowTenantIsReadBeforeWideBacklog) {
  // A wide tenant's query pins both pool threads and queues the rest of its
  // blocks; a narrow tenant's three-block query arrives behind it. The pool
  // serves tenants round-robin, so the narrow tenant's blocks alternate
  // with the wide backlog instead of waiting behind all of it.
  objectstore::MemoryObjectStore base;
  logblock::LogBlockMap map;
  auto add_block = [&](uint64_t tenant, int index) {
    auto built = logblock::BuildLogBlock(MakeBatch(64, tenant), tenant);
    ASSERT_TRUE(built.ok());
    const std::string key =
        "t" + std::to_string(tenant) + "/" + std::to_string(index);
    ASSERT_TRUE(base.Put(key, built->data).ok());
    map.Add({.tenant_id = tenant,
             .min_ts = built->meta.min_ts,
             .max_ts = built->meta.max_ts,
             .object_key = key,
             .size_bytes = built->data.size(),
             .row_count = built->meta.row_count});
  };
  constexpr int kWide = 8;
  constexpr int kNarrow = 3;
  for (int i = 0; i < kWide; ++i) add_block(1, i);
  for (int i = 0; i < kNarrow; ++i) add_block(2, i);

  // Block scans read straight from the store, on the pool threads.
  GatedStore store(&base);
  EngineOptions options;
  options.query_threads = 2;
  options.use_cache = false;
  auto engine = QueryEngine::Open(&store, options);
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  const ThreadPool* pool = (*engine)->query_pool();
  ASSERT_NE(pool, nullptr);
  auto queued = [&](size_t depth) {
    while (pool->queue_depth() != depth) std::this_thread::yield();
  };

  // "t1/0" holds one pool thread for the whole test, so once "t1/1" opens
  // the other thread runs everything left, one block at a time, in the
  // pool's pop order.
  store.Close("t1/0");
  store.Close("t1/1");
  LogQuery wide;
  wide.tenant_id = 1;
  Result<QueryResult> wide_result = Status::Internal("not run");
  std::thread wide_reader([&] { wide_result = (*engine)->Execute(wide, map); });
  store.WaitForParked(2);
  queued(kWide - 2);

  LogQuery narrow;
  narrow.tenant_id = 2;
  Result<QueryResult> narrow_result = Status::Internal("not run");
  std::thread narrow_reader(
      [&] { narrow_result = (*engine)->Execute(narrow, map); });
  queued(kWide - 2 + kNarrow);

  store.Open("t1/1");
  narrow_reader.join();
  store.Open("t1/0");
  wide_reader.join();
  ASSERT_TRUE(narrow_result.ok()) << narrow_result.status().ToString();
  ASSERT_TRUE(wide_result.ok()) << wide_result.status().ToString();
  EXPECT_EQ(narrow_result->rows.size(), 64u * kNarrow);
  EXPECT_EQ(wide_result->rows.size(), 64u * kWide);

  const std::vector<std::string> reads = store.first_reads();
  ASSERT_EQ(reads.size(), static_cast<size_t>(kWide + kNarrow));
  EXPECT_EQ(std::set<std::string>(reads.begin(), reads.begin() + 2),
            (std::set<std::string>{"t1/0", "t1/1"}));
  // Round-robin from the last-served tenant (1): each narrow block goes
  // ahead of the next wide one, and the wide tenant's own blocks keep
  // their order. A FIFO pool would read all six wide blocks first.
  EXPECT_EQ(std::vector<std::string>(reads.begin() + 2, reads.end()),
            (std::vector<std::string>{"t2/0", "t1/2", "t2/1", "t1/3", "t2/2",
                                      "t1/4", "t1/5", "t1/6", "t1/7"}));
}

}  // namespace
}  // namespace logstore::query
