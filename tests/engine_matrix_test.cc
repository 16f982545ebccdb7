// Optimization-independence property: the §5 optimizations (data skipping,
// caches, prefetch) are pure performance features — every combination must
// answer as the test-only reference evaluator does (reference_query.h) and
// return byte-identical rows. This sweeps all 8 configurations over a mixed
// workload, with and without a limit.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "cluster/data_builder.h"
#include "objectstore/memory_object_store.h"
#include "query/engine.h"
#include "reference_query.h"
#include "rowstore/row_store.h"
#include "workload/loggen.h"
#include "workload/querygen.h"

namespace logstore::query {
namespace {

struct EngineConfig {
  bool skipping;
  bool cache;
  bool prefetch;
};

class EngineMatrixTest : public ::testing::TestWithParam<int> {
 protected:
  static constexpr int64_t kHistory = 8ll * 3600 * 1'000'000;

  void SetUp() override {
    store_ = std::make_unique<objectstore::MemoryObjectStore>();
    cluster::DataBuilderOptions builder_options;
    builder_options.max_rows_per_logblock = 3000;
    builder_options.block_options.rows_per_block = 256;
    cluster::DataBuilder builder(store_.get(), &map_, builder_options);
    rowstore::RowStore rows(logblock::RequestLogSchema());
    workload::LogGenerator gen(41);
    for (uint64_t tenant = 0; tenant < 3; ++tenant) {
      data_.push_back({tenant, gen.Generate(tenant, 4000, 0, kHistory)});
      rows.Append(tenant, data_.back().batch);
    }
    ASSERT_TRUE(builder.BuildOnce(&rows).ok());
  }

  QueryResult Run(const EngineConfig& config, const LogQuery& query) {
    EngineOptions options;
    options.use_data_skipping = config.skipping;
    options.use_cache = config.cache;
    options.use_prefetch = config.prefetch;
    options.prefetch_threads = 4;
    options.io_block_size = 4096;
    options.cache_options.memory_capacity_bytes = 8 << 20;
    options.cache_options.ssd_dir.clear();
    auto engine = QueryEngine::Open(store_.get(), options);
    EXPECT_TRUE(engine.ok());
    auto result = (*engine)->Execute(query, map_);
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    return result.ok() ? std::move(result).value() : QueryResult{};
  }

  std::unique_ptr<objectstore::MemoryObjectStore> store_;
  logblock::LogBlockMap map_;
  std::vector<reference::TenantRows> data_;
};

TEST_P(EngineMatrixTest, AllConfigurationsMatchReference) {
  workload::QueryGenerator qgen(static_cast<uint64_t>(GetParam()));
  const uint64_t tenant = static_cast<uint64_t>(GetParam()) % 3;
  for (const auto& base_query : qgen.TenantQuerySet(tenant, 0, kHistory)) {
    for (uint32_t limit : {0u, base_query.limit}) {
      LogQuery query = base_query;
      query.limit = limit;
      const reference::Answer expected = reference::Evaluate(data_, query);
      const QueryResult baseline = Run({false, false, false}, query);
      for (bool skipping : {false, true}) {
        for (bool cache : {false, true}) {
          for (bool prefetch : {false, true}) {
            const std::string label =
                "limit=" + std::to_string(limit) +
                " skip=" + std::to_string(skipping) +
                " cache=" + std::to_string(cache) +
                " prefetch=" + std::to_string(prefetch);
            const QueryResult result = Run({skipping, cache, prefetch}, query);
            reference::ExpectMatchesReference(expected, query, result, label);
            EXPECT_EQ(result.rows, baseline.rows) << label;
          }
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, EngineMatrixTest, ::testing::Range(1, 5));

}  // namespace
}  // namespace logstore::query
