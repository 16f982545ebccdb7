// End-to-end integration tests: the full pipeline (append -> WAL encode ->
// row store -> data builder -> LogBlocks on object store -> engine with
// caches and prefetch -> merged query results) checked against a naive
// golden model on randomized workloads.

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <memory>
#include <thread>
#include <vector>

#include "common/random.h"
#include "core/logstore.h"
#include "index/inverted_index.h"
#include "test_env.h"
#include "workload/loggen.h"

namespace logstore {
namespace {

using logblock::RowBatch;
using logblock::Value;

// A trivial reference implementation of the query semantics.
class GoldenModel {
 public:
  void Append(uint64_t tenant, const RowBatch& rows) {
    for (uint32_t r = 0; r < rows.num_rows(); ++r) {
      std::vector<Value> row;
      for (size_t c = 0; c < rows.schema().num_columns(); ++c) {
        row.push_back(rows.ValueAt(c, r));
      }
      rows_.push_back({tenant, std::move(row)});
    }
  }

  void Expire(uint64_t tenant, int64_t cutoff_ts,
              const logblock::Schema& schema) {
    // Whole-LogBlock expiration granularity differs from row granularity;
    // the golden model is only used on datasets where block boundaries
    // align with the cutoff (we expire everything older than a flush).
    const int ts_col = schema.FindColumn("ts");
    rows_.erase(std::remove_if(rows_.begin(), rows_.end(),
                               [&](const TenantRow& row) {
                                 return row.tenant == tenant &&
                                        row.values[ts_col].i < cutoff_ts;
                               }),
                rows_.end());
  }

  // Applies a LogQuery and returns the multiset of projected "log" values.
  std::multiset<std::string> Query(const query::LogQuery& q,
                                   const logblock::Schema& schema) const {
    std::multiset<std::string> result;
    const int ts_col = schema.FindColumn("ts");
    const int log_col = schema.FindColumn("log");
    for (const TenantRow& row : rows_) {
      if (row.tenant != q.tenant_id) continue;
      const int64_t ts = row.values[ts_col].i;
      if (ts < q.ts_min || ts > q.ts_max) continue;
      bool ok = true;
      for (const auto& pred : q.predicates) {
        const int col = schema.FindColumn(pred.column);
        const Value& v = row.values[col];
        switch (pred.kind) {
          case query::Predicate::Kind::kInt64Compare:
            ok = pred.EvalInt64(v.i);
            break;
          case query::Predicate::Kind::kStringEq:
            ok = v.s == pred.str_value;
            break;
          case query::Predicate::Kind::kMatch: {
            const auto want = index::Tokenize(pred.str_value);
            const auto have = index::Tokenize(v.s);
            for (const auto& token : want) {
              if (std::find(have.begin(), have.end(), token) == have.end()) {
                ok = false;
                break;
              }
            }
            break;
          }
        }
        if (!ok) break;
      }
      if (ok) result.insert(row.values[log_col].s);
    }
    return result;
  }

 private:
  struct TenantRow {
    uint64_t tenant;
    std::vector<Value> values;
  };
  std::vector<TenantRow> rows_;
};

std::multiset<std::string> LogColumn(const query::QueryResult& result) {
  std::multiset<std::string> logs;
  for (size_t c = 0; c < result.columns.size(); ++c) {
    if (result.columns[c] == "log") {
      for (const auto& row : result.rows) logs.insert(row[c].s);
    }
  }
  return logs;
}

class PipelinePropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(PipelinePropertyTest, QueriesMatchGoldenModel) {
  const uint64_t seed = static_cast<uint64_t>(GetParam());
  Random rng(seed);

  LogStoreOptions options;
  options.engine.cache_options.memory_capacity_bytes = 4 << 20;
  options.engine.cache_options.ssd_dir.clear();
  options.engine.io_block_size = 1 + rng.Uniform(8192);  // odd sizes too
  options.builder.block_options.rows_per_block =
      64 + static_cast<uint32_t>(rng.Uniform(512));
  auto db = LogStore::Open(options);
  ASSERT_TRUE(db.ok());

  GoldenModel golden;
  workload::LogGenerator gen(seed * 31);

  // Randomized ingest: several tenants, several batches, flushes
  // interleaved so data is split between row store and LogBlocks.
  const int num_tenants = 2 + static_cast<int>(rng.Uniform(3));
  const int64_t history = 6 * workload::LogGenerator::kWindowMicros;
  for (int batch_idx = 0; batch_idx < 6; ++batch_idx) {
    const uint64_t tenant = rng.Uniform(num_tenants);
    const uint32_t rows = 50 + static_cast<uint32_t>(rng.Uniform(400));
    const int64_t begin =
        static_cast<int64_t>(rng.Uniform(4)) * (history / 4);
    const auto batch = gen.Generate(tenant, rows, begin, begin + history / 4);
    ASSERT_TRUE((*db)->Append(tenant, batch).ok());
    golden.Append(tenant, batch);
    if (rng.OneIn(2)) {
      ASSERT_TRUE((*db)->Flush().ok());
    }
  }

  // Randomized queries spanning all predicate kinds.
  for (int qi = 0; qi < 15; ++qi) {
    query::LogQuery q;
    q.tenant_id = rng.Uniform(num_tenants);
    q.ts_min = static_cast<int64_t>(rng.Uniform(history));
    q.ts_max = q.ts_min + static_cast<int64_t>(rng.Uniform(history));
    q.select_columns = {"log"};
    switch (rng.Uniform(5)) {
      case 0:
        q.predicates.push_back(query::Predicate::StringEq("fail", "true"));
        break;
      case 1:
        q.predicates.push_back(query::Predicate::Int64Compare(
            "latency", query::CompareOp::kGe,
            static_cast<int64_t>(rng.Uniform(2000))));
        break;
      case 2:
        q.predicates.push_back(query::Predicate::Match("log", "timeout"));
        break;
      case 3:
        q.predicates.push_back(query::Predicate::Int64Compare(
            "latency", query::CompareOp::kNe, 0));
        q.predicates.push_back(query::Predicate::StringEq("fail", "false"));
        break;
      default:
        break;  // no extra predicates
    }

    auto result = (*db)->Query(q);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_EQ(LogColumn(*result), golden.Query(q, (*db)->schema()))
        << "seed " << seed << " query " << qi;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PipelinePropertyTest, ::testing::Range(1, 11));

TEST(PipelineIntegrationTest, ExpirationMatchesGoldenModel) {
  LogStoreOptions options;
  options.engine.cache_options.ssd_dir.clear();
  auto db = LogStore::Open(options);
  ASSERT_TRUE(db.ok());
  GoldenModel golden;
  workload::LogGenerator gen(5);

  // Two flushed epochs with disjoint time ranges.
  const auto early = gen.Generate(1, 300, 0, 1000);
  ASSERT_TRUE((*db)->Append(1, early).ok());
  golden.Append(1, early);
  ASSERT_TRUE((*db)->Flush().ok());
  const auto late = gen.Generate(1, 300, 10'000, 11'000);
  ASSERT_TRUE((*db)->Append(1, late).ok());
  golden.Append(1, late);
  ASSERT_TRUE((*db)->Flush().ok());

  ASSERT_TRUE((*db)->Expire(1, 5000).ok());
  golden.Expire(1, 5000, (*db)->schema());

  query::LogQuery q;
  q.tenant_id = 1;
  q.select_columns = {"log"};
  auto result = (*db)->Query(q);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(LogColumn(*result), golden.Query(q, (*db)->schema()));
  EXPECT_EQ(result->rows.size(), 300u);
}

TEST(PipelineIntegrationTest, ConcurrentAppendsAndQueries) {
  LogStoreOptions options;
  options.engine.cache_options.ssd_dir.clear();
  options.autoflush_rows = 500;
  auto db = LogStore::Open(options);
  ASSERT_TRUE(db.ok());

  std::atomic<bool> stop{false};
  std::atomic<int> query_errors{0};
  std::thread reader([&] {
    while (!stop.load()) {
      query::LogQuery q;
      q.tenant_id = 1;
      q.predicates = {query::Predicate::StringEq("fail", "false")};
      q.select_columns = {"ts"};
      auto result = (*db)->Query(q);
      if (!result.ok()) query_errors++;
    }
  });

  workload::LogGenerator gen(6);
  for (int i = 0; i < 40; ++i) {
    ASSERT_TRUE(
        (*db)->Append(1, gen.Generate(1, 100, i * 1000, (i + 1) * 1000)).ok());
  }
  stop = true;
  reader.join();
  EXPECT_EQ(query_errors.load(), 0);

  query::LogQuery q;
  q.tenant_id = 1;
  auto result = (*db)->Query(q);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->rows.size(), 4000u);
}

TEST(PipelineIntegrationTest, SsdCacheLevelServesEvictions) {
  const auto dir = testenv::UniqueTempDir("logstore_e2e_ssd_cache", 0);

  LogStoreOptions options;
  options.simulate_object_latency = true;
  options.simulated.first_byte_latency_us = 100;
  options.simulated.time_scale = 0.0;
  options.engine.io_block_size = 4 << 10;  // 4 KB cache blocks
  options.engine.cache_options.memory_capacity_bytes = 32 << 10;  // tiny
  options.engine.cache_options.memory_shards = 2;
  options.engine.cache_options.ssd_dir = dir.string();
  options.engine.cache_options.ssd_capacity_bytes = 64 << 20;
  auto db = LogStore::Open(options);
  ASSERT_TRUE(db.ok());

  workload::LogGenerator gen(8);
  ASSERT_TRUE((*db)->Append(1, gen.Generate(1, 5000, 0, 100'000)).ok());
  ASSERT_TRUE((*db)->Flush().ok());

  query::LogQuery q;
  q.tenant_id = 1;
  q.select_columns = {"log"};
  ASSERT_TRUE((*db)->Query(q).ok());
  // The tiny memory cache must have spilled blocks to the SSD level.
  EXPECT_GT((*db)->engine()->block_manager()->ssd_used_bytes(), 0u);

  // Re-query: SSD + memory caches avoid most object-store reads.
  auto& stats = (*db)->object_store()->stats();
  const uint64_t before = stats.range_gets.load();
  ASSERT_TRUE((*db)->Query(q).ok());
  const uint64_t warm = stats.range_gets.load() - before;
  EXPECT_LT(warm, before / 2);
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace logstore
