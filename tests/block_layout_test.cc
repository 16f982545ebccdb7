// Answers over each column-block layout, checked against the reference
// evaluator (tests/reference_query.h):
//  - columns with different block boundaries: generator rows at the
//    default rows_per_block, where `log` blocks close at the writer's byte
//    target (about 475 rows), `ip` blocks at about 2,500 rows and the int
//    columns at 4,096 rows; through an inline engine, a pooled engine and
//    Cluster::Query, with every predicate kind, limits 0, 1, 7, 100 and
//    500, and every aggregate;
//  - a committed LogBlock from the writer that closed every column's blocks
//    at the same rows and gave each chunk an all-ones validity bitset
//    (tests/testdata/row_aligned_blocks.logblock, see README.md there).
#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <iterator>
#include <memory>
#include <string>
#include <vector>

#include "cluster/cluster.h"
#include "cluster/data_builder.h"
#include "common/coding.h"
#include "logblock/logblock_reader.h"
#include "objectstore/memory_object_store.h"
#include "query/engine.h"
#include "reference_query.h"
#include "rowstore/row_store.h"
#include "workload/loggen.h"

namespace logstore {
namespace {

using query::Aggregate;
using query::CompareOp;
using query::LogQuery;
using query::Predicate;

constexpr int64_t kHour = 3600ll * 1'000'000;

// Predicate sets covering every kind, on indexed and unindexed columns:
// int compares with each operator (BKD-served and block-SMA-scanned),
// string equality (index-served and, on `log`, scanned), MATCH (index-
// served on `log`, scanned on `ip`), and conjunctions.
std::vector<std::vector<Predicate>> PredicateSets() {
  std::vector<std::vector<Predicate>> sets = {{}};
  for (CompareOp op : {CompareOp::kEq, CompareOp::kNe, CompareOp::kLt,
                       CompareOp::kLe, CompareOp::kGt, CompareOp::kGe}) {
    sets.push_back({Predicate::Int64Compare("latency", op, 120)});
  }
  sets.push_back({Predicate::Int64Compare("ts", CompareOp::kGe, 5 * kHour)});
  sets.push_back({Predicate::Int64Compare("tenant_id", CompareOp::kEq, 2)});
  sets.push_back({Predicate::StringEq("ip", "192.168.1.8")});
  sets.push_back({Predicate::StringEq("fail", "true")});
  sets.push_back({Predicate::StringEq("log", "never a whole line")});
  sets.push_back({Predicate::Match("log", "connection timeout")});
  sets.push_back({Predicate::Match("log", "GET instances")});
  sets.push_back({Predicate::Match("log", "")});
  sets.push_back({Predicate::Match("ip", "192 168 2")});
  sets.push_back({Predicate::StringEq("ip", "192.168.3.16"),
                  Predicate::Int64Compare("latency", CompareOp::kLt, 200)});
  sets.push_back({Predicate::Match("log", "completed"),
                  Predicate::Int64Compare("ts", CompareOp::kLt, 2 * kHour)});
  return sets;
}

std::vector<Aggregate> Aggregates() {
  return {Aggregate::Count(),         Aggregate::Sum("latency"),
          Aggregate::Min("ts"),       Aggregate::Max("latency"),
          Aggregate::GroupCount("ip"), Aggregate::GroupCount("fail")};
}

// Tenants 1 and 2 each write three 3,000-row batches over 9 h, archived in
// two build passes, so each has a 6,000-row and a 3,000-row LogBlock.
class BlockLayoutTest : public ::testing::Test {
 protected:
  static constexpr uint32_t kBatchRows = 3000;

  void SetUp() override {
    cluster::ClusterDeploymentOptions options;
    options.num_workers = 2;
    options.shards_per_worker = 2;
    options.worker.schema = logblock::RequestLogSchema();
    options.engine = EngineOptions(4);
    auto cluster = cluster::Cluster::Open(&cluster_objects_, options);
    ASSERT_TRUE(cluster.ok()) << cluster.status().ToString();
    cluster_ = std::move(cluster).value();

    cluster::DataBuilder builder(&objects_, &map_, {});
    rowstore::RowStore rows(logblock::RequestLogSchema());
    workload::LogGenerator gen(26);
    for (int b = 0; b < 3; ++b) {
      for (uint64_t tenant : {1, 2}) {
        logblock::RowBatch batch = gen.Generate(tenant, kBatchRows,
                                                b * 3 * kHour,
                                                (b + 1) * 3 * kHour);
        rows.Append(tenant, batch);
        ASSERT_TRUE(cluster_->Write(tenant, batch).ok());
        data_.push_back({tenant, std::move(batch)});
      }
      if (b == 0) continue;
      ASSERT_TRUE(builder.BuildOnce(&rows).ok());
      auto built = cluster_->RunBuildPass();
      ASSERT_TRUE(built.ok()) << built.status().ToString();
    }
    ASSERT_EQ(map_.TotalBlocks(), 4u);
  }

  static query::EngineOptions EngineOptions(int query_threads) {
    query::EngineOptions options;
    options.query_threads = query_threads;
    options.prefetch_threads = 2;
    options.cache_options.memory_capacity_bytes = 8 << 20;
    options.cache_options.ssd_dir.clear();
    return options;
  }

  objectstore::MemoryObjectStore objects_;
  logblock::LogBlockMap map_;
  objectstore::MemoryObjectStore cluster_objects_;
  std::unique_ptr<cluster::Cluster> cluster_;
  std::vector<reference::TenantRows> data_;
};

TEST_F(BlockLayoutTest, ColumnsCloseBlocksAtDifferentRows) {
  // The layout the matrix below relies on: in the 6,000-row LogBlock the
  // int columns close at 4,096 rows and the string columns elsewhere.
  const std::vector<logblock::LogBlockEntry> blocks =
      map_.Prune(1, INT64_MIN, INT64_MAX);
  ASSERT_EQ(blocks.size(), 2u);
  auto object = objects_.Get(blocks[0].object_key);
  ASSERT_TRUE(object.ok());
  auto reader = logblock::LogBlockReader::Open(
      std::make_shared<logblock::StringSource>(std::move(object).value()));
  ASSERT_TRUE(reader.ok()) << reader.status().ToString();
  const logblock::LogBlockMeta& meta = (*reader)->meta();
  ASSERT_EQ(meta.row_count, 2 * kBatchRows);
  for (size_t c : {0, 1, 3}) {
    ASSERT_EQ(meta.columns[c].blocks.size(), 2u) << "col " << c;
    EXPECT_EQ(meta.columns[c].blocks[1].first_row, 4096u) << "col " << c;
  }
  for (size_t c : {2, 5}) {  // ip, log
    for (const logblock::ColumnBlockMeta& block : meta.columns[c].blocks) {
      EXPECT_NE(block.first_row, 4096u) << "col " << c;
    }
  }
  EXPECT_GE(meta.columns[5].blocks.size(), 10u);
}

TEST_F(BlockLayoutTest, EveryEngineMatchesTheReference) {
  auto inline_engine = query::QueryEngine::Open(&objects_, EngineOptions(1));
  ASSERT_TRUE(inline_engine.ok());
  auto pooled_engine = query::QueryEngine::Open(&objects_, EngineOptions(4));
  ASSERT_TRUE(pooled_engine.ok());

  auto check = [&](const LogQuery& query, const reference::Answer& expected,
                   const std::string& label) {
    auto inlined = (*inline_engine)->Execute(query, map_);
    ASSERT_TRUE(inlined.ok()) << label << ": " << inlined.status().ToString();
    reference::ExpectMatchesReference(expected, query, *inlined,
                                      label + " (inline)");
    auto pooled = (*pooled_engine)->Execute(query, map_);
    ASSERT_TRUE(pooled.ok()) << label << ": " << pooled.status().ToString();
    reference::ExpectMatchesReference(expected, query, *pooled,
                                      label + " (pooled)");
    auto clustered = cluster_->Query(query);
    ASSERT_TRUE(clustered.ok())
        << label << ": " << clustered.status().ToString();
    reference::ExpectMatchesReference(expected, query, *clustered,
                                      label + " (Cluster)");
  };

  const std::vector<std::vector<Predicate>> sets = PredicateSets();
  for (size_t p = 0; p < sets.size(); ++p) {
    // Each set runs on one of the two tenants; both have the same layout.
    LogQuery query;
    query.tenant_id = 1 + p % 2;
    query.predicates = sets[p];
    if (p % 3 == 1) {  // a ts range that cuts both LogBlocks
      query.ts_min = 2 * kHour + 17;
      query.ts_max = 7 * kHour;
    }
    const std::string base = "tenant " + std::to_string(query.tenant_id) +
                             " predicate set " + std::to_string(p);
    for (const std::vector<std::string>& select :
         {std::vector<std::string>{}, {"log", "ts"}}) {
      query.select_columns = select;
      // The reference keeps every match; the limit is the comparison's.
      const reference::Answer expected = reference::Evaluate(data_, query);
      for (uint32_t limit : {0u, 1u, 7u, 100u, 500u}) {
        query.limit = limit;
        check(query, expected,
              base + " select " + std::to_string(select.size()) + " limit " +
                  std::to_string(limit));
        if (HasFailure()) return;
      }
    }
    query.select_columns.clear();
    query.limit = 0;
    for (const Aggregate& agg : Aggregates()) {
      query.agg = agg;
      check(query, reference::Evaluate(data_, query),
            base + " aggregate " + std::to_string(static_cast<int>(agg.kind)) +
                "(" + agg.column + ")");
      if (HasFailure()) return;
    }
  }
}

std::string ReadFixture(const std::string& name) {
  std::ifstream in(std::string(LOGSTORE_TESTDATA_DIR) + "/" + name,
                   std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

TEST(RowAlignedLogBlockTest, ReadsAndAnswersAsBeforeTheByteTarget) {
  // The fixture holds these rows, written with rows_per_block 64 by the
  // writer that closed every column block at rows_per_block rows and
  // stored an all-ones bitset in each chunk.
  workload::LogGenerator gen(2026);
  const std::vector<reference::TenantRows> data = {
      {9, gen.Generate(9, 300, 0, 6 * kHour)}};
  const logblock::RowBatch& batch = data[0].batch;

  const std::string package = ReadFixture("row_aligned_blocks.logblock");
  ASSERT_EQ(package.size(), 23279u);
  auto reader = logblock::LogBlockReader::Open(
      std::make_shared<logblock::StringSource>(package));
  ASSERT_TRUE(reader.ok()) << reader.status().ToString();
  const logblock::LogBlockMeta& meta = (*reader)->meta();
  ASSERT_EQ(meta.row_count, 300u);
  ASSERT_EQ(meta.tenant_id, 9u);

  // It has the old shape: shared 64-row boundaries and full bitsets.
  for (size_t c = 0; c < meta.columns.size(); ++c) {
    const auto& blocks = meta.columns[c].blocks;
    ASSERT_EQ(blocks.size(), 5u) << "col " << c;
    for (size_t b = 0; b < blocks.size(); ++b) {
      EXPECT_EQ(blocks[b].first_row, 64 * b) << "col " << c;
      auto range = (*reader)->ColumnBlockRange(c, b);
      ASSERT_TRUE(range.ok());
      Slice chunk(package.data() + range->offset, range->size);
      uint32_t bitset_len = 0;
      ASSERT_TRUE(GetVarint32(&chunk, &bitset_len));
      EXPECT_EQ(bitset_len, (blocks[b].row_count + 7) / 8);
      EXPECT_EQ(chunk.ToString().substr(0, bitset_len),
                std::string(bitset_len, '\xff'));
    }
  }

  // Every value reads back.
  for (size_t c = 0; c < meta.columns.size(); ++c) {
    uint32_t row = 0;
    for (size_t b = 0; b < meta.columns[c].blocks.size(); ++b) {
      auto decoded = (*reader)->ReadColumnBlock(c, b);
      ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
      for (uint32_t i = 0; i < decoded->row_count(); ++i, ++row) {
        const logblock::Value value =
            batch.schema().column(c).type == logblock::ColumnType::kInt64
                ? logblock::Value::Int64(decoded->ints[i])
                : logblock::Value::String(std::string(decoded->strs[i]));
        ASSERT_TRUE(value == batch.ValueAt(c, row))
            << "col " << c << " row " << row;
      }
    }
    EXPECT_EQ(row, 300u);
  }

  // Queries through an engine answer as the reference does.
  objectstore::MemoryObjectStore objects;
  ASSERT_TRUE(objects.Put("tenants/9/fixture.tar", package).ok());
  logblock::LogBlockMap map;
  map.Add({.tenant_id = 9,
           .min_ts = meta.min_ts,
           .max_ts = meta.max_ts,
           .object_key = "tenants/9/fixture.tar",
           .size_bytes = package.size(),
           .row_count = meta.row_count});
  query::EngineOptions options;
  options.query_threads = 1;
  options.cache_options.ssd_dir.clear();
  auto engine = query::QueryEngine::Open(&objects, options);
  ASSERT_TRUE(engine.ok());
  for (const std::vector<Predicate>& predicates : PredicateSets()) {
    LogQuery query;
    query.tenant_id = 9;
    query.predicates = predicates;
    const std::string label =
        "predicates " + std::to_string(predicates.size()) + " first " +
        (predicates.empty() ? std::string("none") : predicates[0].column);
    for (uint32_t limit : {0u, 7u}) {
      query.limit = limit;
      auto result = (*engine)->Execute(query, map);
      ASSERT_TRUE(result.ok()) << label << ": " << result.status().ToString();
      reference::ExpectMatchesReference(reference::Evaluate(data, query),
                                        query, *result, label);
    }
    query.limit = 0;
    for (const Aggregate& agg : Aggregates()) {
      query.agg = agg;
      auto result = (*engine)->Execute(query, map);
      ASSERT_TRUE(result.ok()) << label << ": " << result.status().ToString();
      reference::ExpectMatchesReference(reference::Evaluate(data, query),
                                        query, *result, label + " agg");
    }
  }
}

}  // namespace
}  // namespace logstore
