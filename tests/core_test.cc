#include <gtest/gtest.h>

#include <filesystem>
#include <memory>
#include <vector>

#include "common/metrics.h"
#include "core/logstore.h"
#include "objectstore/fault_injecting_object_store.h"
#include "objectstore/file_object_store.h"
#include "query/aggregation.h"
#include "workload/loggen.h"
#include "workload/querygen.h"
#include "workload/zipfian.h"

namespace logstore {
namespace {

using logblock::RowBatch;
using logblock::Value;

RowBatch OneRow(uint64_t tenant, int64_t ts, const std::string& ip,
                int64_t latency, const std::string& fail,
                const std::string& log) {
  RowBatch batch(logblock::RequestLogSchema());
  batch.AddRow({Value::Int64(static_cast<int64_t>(tenant)), Value::Int64(ts),
                Value::String(ip), Value::Int64(latency), Value::String(fail),
                Value::String(log)});
  return batch;
}

LogStoreOptions SmallOptions() {
  LogStoreOptions options;
  options.engine.prefetch_threads = 2;
  options.engine.cache_options.memory_capacity_bytes = 8 << 20;
  options.engine.cache_options.ssd_dir.clear();
  return options;
}

TEST(LogStoreTest, AppendQueryRoundTrip) {
  auto db = LogStore::Open(SmallOptions());
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  ASSERT_TRUE((*db)->Append(1, OneRow(1, 100, "1.1.1.1", 5, "false", "hello"))
                  .ok());

  query::LogQuery query;
  query.tenant_id = 1;
  auto result = (*db)->Query(query);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->rows.size(), 1u);  // visible pre-flush (real-time store)

  ASSERT_TRUE((*db)->Flush().ok());
  result = (*db)->Query(query);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->rows.size(), 1u);  // visible post-flush (LogBlock)
}

TEST(LogStoreTest, SchemaMismatchRejected) {
  auto db = LogStore::Open(SmallOptions());
  ASSERT_TRUE(db.ok());
  RowBatch wrong(logblock::Schema({{"x", logblock::ColumnType::kInt64, true}}));
  wrong.AddRow({Value::Int64(1)});
  EXPECT_TRUE((*db)->Append(1, wrong).IsInvalidArgument());
}

TEST(LogStoreTest, AutoflushArchivesInBackground) {
  LogStoreOptions options = SmallOptions();
  options.autoflush_rows = 100;
  auto db = LogStore::Open(options);
  ASSERT_TRUE(db.ok());
  workload::LogGenerator gen(1);
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE((*db)->Append(1, gen.Generate(1, 30, i * 100, (i + 1) * 100))
                    .ok());
  }
  const auto stats = (*db)->GetStats();
  EXPECT_EQ(stats.rows_appended, 150u);
  EXPECT_GT(stats.rows_archived, 0u);
  EXPECT_GT(stats.logblocks, 0u);
  EXPECT_LT(stats.rows_in_rowstore, 150u);
}

TEST(LogStoreTest, MultiTenantIsolationAndBilling) {
  auto db = LogStore::Open(SmallOptions());
  ASSERT_TRUE(db.ok());
  workload::LogGenerator gen(2);
  ASSERT_TRUE((*db)->Append(1, gen.Generate(1, 1000, 0, 10'000)).ok());
  ASSERT_TRUE((*db)->Append(2, gen.Generate(2, 10, 0, 10'000)).ok());
  ASSERT_TRUE((*db)->Flush().ok());

  EXPECT_GT((*db)->TenantBytes(1), (*db)->TenantBytes(2));
  EXPECT_GT((*db)->TenantBytes(2), 0u);

  query::LogQuery query;
  query.tenant_id = 2;
  auto result = (*db)->Query(query);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->rows.size(), 10u);
}

TEST(LogStoreTest, ExpireFreesTenantStorage) {
  auto db = LogStore::Open(SmallOptions());
  ASSERT_TRUE(db.ok());
  workload::LogGenerator gen(3);
  ASSERT_TRUE((*db)->Append(1, gen.Generate(1, 100, 0, 1000)).ok());
  ASSERT_TRUE((*db)->Flush().ok());
  ASSERT_TRUE((*db)->Append(1, gen.Generate(1, 100, 5000, 6000)).ok());
  ASSERT_TRUE((*db)->Flush().ok());
  EXPECT_EQ((*db)->GetStats().logblocks, 2u);

  auto expired = (*db)->Expire(1, 2000);
  ASSERT_TRUE(expired.ok());
  EXPECT_EQ(*expired, 1);
  EXPECT_EQ((*db)->GetStats().logblocks, 1u);

  query::LogQuery query;
  query.tenant_id = 1;
  auto result = (*db)->Query(query);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->rows.size(), 100u);  // only the recent block remains
}

TEST(LogStoreTest, PaperTemplateEndToEnd) {
  auto db = LogStore::Open(SmallOptions());
  ASSERT_TRUE(db.ok());
  // Rows engineered to hit each predicate of the §5.1 sample query.
  ASSERT_TRUE((*db)->Append(
      12276, OneRow(12276, 500, "192.168.0.1", 150, "false", "match me")).ok());
  ASSERT_TRUE((*db)->Append(
      12276, OneRow(12276, 500, "192.168.0.1", 50, "false", "latency too low")).ok());
  ASSERT_TRUE((*db)->Append(
      12276, OneRow(12276, 500, "192.168.0.2", 150, "false", "wrong ip")).ok());
  ASSERT_TRUE((*db)->Append(
      12276, OneRow(12276, 5000, "192.168.0.1", 150, "false", "out of range")).ok());
  ASSERT_TRUE((*db)->Flush().ok());

  query::LogQuery query;
  query.tenant_id = 12276;
  query.ts_min = 0;
  query.ts_max = 1000;
  query.predicates = {
      query::Predicate::StringEq("ip", "192.168.0.1"),
      query::Predicate::Int64Compare("latency", query::CompareOp::kGe, 100),
      query::Predicate::StringEq("fail", "false"),
  };
  query.select_columns = {"log"};
  auto result = (*db)->Query(query);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->rows.size(), 1u);
  EXPECT_EQ(result->rows[0][0].s, "match me");
}

TEST(LogStoreTest, AnalyticsTopIpAggregation) {
  // §1's motivating BI query: "which IP addresses frequently accessed this
  // API in the past day?"
  auto db = LogStore::Open(SmallOptions());
  ASSERT_TRUE(db.ok());
  for (int i = 0; i < 30; ++i) {
    const std::string ip = i % 3 == 0 ? "9.9.9.9" : "1.1.1.1";
    ASSERT_TRUE(
        (*db)->Append(1, OneRow(1, i, ip, 1, "false", "GET /api")).ok());
  }
  ASSERT_TRUE((*db)->Flush().ok());

  query::LogQuery query;
  query.tenant_id = 1;
  query.select_columns = {"ip"};
  auto result = (*db)->Query(query);
  ASSERT_TRUE(result.ok());
  const auto top = query::GroupCountTopK(
      query::QueryEngine::Column(*result, "ip"), 2);
  ASSERT_EQ(top.size(), 2u);
  EXPECT_EQ(top[0].key, "1.1.1.1");
  EXPECT_EQ(top[0].count, 20u);
  EXPECT_EQ(top[1].count, 10u);
}

TEST(LogStoreTest, FileBackedStorePersistsAndRecovers) {
  const auto dir = std::filesystem::temp_directory_path() / "logstore_core_db";
  std::filesystem::remove_all(dir);
  LogStoreOptions options = SmallOptions();
  options.storage_dir = dir.string();
  {
    auto db = LogStore::Open(options);
    ASSERT_TRUE(db.ok());
    ASSERT_TRUE((*db)->Append(1, OneRow(1, 9, "a", 1, "false", "durable")).ok());
    ASSERT_TRUE((*db)->Flush().ok());
  }
  {
    // Reopen: the catalog checkpoint restores the tenant's LogBlocks and
    // queries see the archived data again.
    auto db = LogStore::Open(options);
    ASSERT_TRUE(db.ok());
    EXPECT_EQ((*db)->GetStats().logblocks, 1u);

    query::LogQuery query;
    query.tenant_id = 1;
    query.select_columns = {"log"};
    auto result = (*db)->Query(query);
    ASSERT_TRUE(result.ok());
    ASSERT_EQ(result->rows.size(), 1u);
    EXPECT_EQ(result->rows[0][0].s, "durable");

    // New flushes never collide with recovered object keys.
    ASSERT_TRUE((*db)->Append(1, OneRow(1, 99, "b", 2, "false", "next")).ok());
    ASSERT_TRUE((*db)->Flush().ok());
    EXPECT_EQ((*db)->GetStats().logblocks, 2u);
  }
  {
    auto db = LogStore::Open(options);
    ASSERT_TRUE(db.ok());
    query::LogQuery query;
    query.tenant_id = 1;
    auto result = (*db)->Query(query);
    ASSERT_TRUE(result.ok());
    EXPECT_EQ(result->rows.size(), 2u);
  }
  std::filesystem::remove_all(dir);
}

TEST(LogStoreTest, ExpirationSurvivesReopen) {
  const auto dir =
      std::filesystem::temp_directory_path() / "logstore_core_expire_db";
  std::filesystem::remove_all(dir);
  LogStoreOptions options = SmallOptions();
  options.storage_dir = dir.string();
  {
    auto db = LogStore::Open(options);
    ASSERT_TRUE(db.ok());
    ASSERT_TRUE((*db)->Append(1, OneRow(1, 10, "a", 1, "false", "old")).ok());
    ASSERT_TRUE((*db)->Flush().ok());
    ASSERT_TRUE((*db)->Append(1, OneRow(1, 500, "a", 1, "false", "new")).ok());
    ASSERT_TRUE((*db)->Flush().ok());
    ASSERT_TRUE((*db)->Expire(1, 100).ok());
  }
  auto db = LogStore::Open(options);
  ASSERT_TRUE(db.ok());
  EXPECT_EQ((*db)->GetStats().logblocks, 1u);
  query::LogQuery query;
  query.tenant_id = 1;
  query.select_columns = {"log"};
  auto result = (*db)->Query(query);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->rows.size(), 1u);
  EXPECT_EQ(result->rows[0][0].s, "new");
  std::filesystem::remove_all(dir);
}

// Expire checkpoints the catalog without the expired blocks before it
// deletes their objects. With the catalog write failing, Expire fails
// before any delete, so a reopened store still reads every block its
// catalog names (deleting first left a catalog naming a deleted object:
// every query of the tenant failed with NotFound after the reopen).
TEST(LogStoreTest, FailedExpireCheckpointDeletesNothing) {
  const auto dir =
      std::filesystem::temp_directory_path() / "logstore_core_expire_order_db";
  std::filesystem::remove_all(dir);
  LogStoreOptions options = SmallOptions();
  options.storage_dir = dir.string();
  options.retry_options.max_attempts = 1;  // the catalog Put fails at once
  {
    LogStoreOptions faulty = options;
    faulty.inject_object_faults = true;
    auto db = LogStore::Open(faulty);
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    ASSERT_TRUE((*db)->Append(1, OneRow(1, 10, "a", 1, "false", "old")).ok());
    ASSERT_TRUE((*db)->Flush().ok());
    auto* faults = dynamic_cast<objectstore::FaultInjectingObjectStore*>(
        (*db)->object_store());
    ASSERT_NE(faults, nullptr);
    faults->BlacklistKey(LogStore::kCatalogKey);
    auto expired = (*db)->Expire(1, 100);
    ASSERT_FALSE(expired.ok());
    EXPECT_TRUE(expired.status().IsUnavailable())
        << expired.status().ToString();
  }
  auto db = LogStore::Open(options);
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  EXPECT_EQ((*db)->GetStats().logblocks, 1u);
  query::LogQuery query;
  query.tenant_id = 1;
  query.select_columns = {"log"};
  auto result = (*db)->Query(query);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(result->rows.size(), 1u);
  EXPECT_EQ(result->rows[0][0].s, "old");
  // The retried expiry then removes the block and its object.
  auto expired = (*db)->Expire(1, 100);
  ASSERT_TRUE(expired.ok()) << expired.status().ToString();
  EXPECT_EQ(*expired, 1);
  result = (*db)->Query(query);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(result->rows.empty());
  std::filesystem::remove_all(dir);
}

// Every object-store call of a Flush, the LogBlock upload and the catalog
// checkpoint alike, goes through the facade's one retry layer and counts in
// the facade's registry, not the process-wide default.
TEST(LogStoreTest, FlushRetriesCountInTheFacadeRegistry) {
  metrics::MetricRegistry registry;
  LogStoreOptions options = SmallOptions();
  options.registry = &registry;
  options.inject_object_faults = true;
  options.fault_options.error_rate = 0.5;
  options.fault_options.seed = 1;
  options.retry_options.max_attempts = 16;
  options.retry_options.initial_backoff_us = 10;
  options.retry_options.max_backoff_us = 100;
  auto db = LogStore::Open(options);
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  ASSERT_TRUE((*db)->Append(1, OneRow(1, 10, "a", 1, "false", "x")).ok());

  auto cell = [&](const char* name) { return registry.Counter(name)->load(); };
  auto default_cells = [] {
    metrics::MetricRegistry* global = metrics::MetricRegistry::Default();
    return std::vector<uint64_t>{
        global->Counter("objectstore.retry.attempts")->load(),
        global->Counter("objectstore.retry.retries")->load(),
        global->Counter("objectstore.retry.giveups")->load()};
  };
  const auto default_before = default_cells();
  const uint64_t faults_before = cell("objectstore.fault.injected_errors");
  const uint64_t retries_before = cell("objectstore.retry.retries");
  auto flushed = (*db)->Flush();
  ASSERT_TRUE(flushed.ok()) << flushed.status().ToString();
  EXPECT_EQ(*flushed, 1);
  const uint64_t faults = cell("objectstore.fault.injected_errors") -
                          faults_before;
  EXPECT_GT(faults, 0u);
  // One retry per injected failure, all of them in the facade's registry.
  EXPECT_EQ(cell("objectstore.retry.retries") - retries_before, faults);
  EXPECT_EQ(cell("objectstore.retry.giveups"), 0u);
  EXPECT_EQ(default_cells(), default_before);
}

// query.* is recorded once per answered query, after the realtime merge:
// rows served from the row store count in query.realtime_rows and
// query.rows_matched.
TEST(LogStoreTest, QueryCellsCountRealtimeRows) {
  metrics::MetricRegistry registry;
  LogStoreOptions options = SmallOptions();
  options.registry = &registry;
  auto db = LogStore::Open(options);
  ASSERT_TRUE(db.ok());
  workload::LogGenerator gen(3);
  ASSERT_TRUE((*db)->Append(1, gen.Generate(1, 30, 0, 1000)).ok());
  ASSERT_TRUE((*db)->Flush().ok());
  ASSERT_TRUE((*db)->Append(1, gen.Generate(1, 50, 1000, 2000)).ok());

  query::LogQuery query;
  query.tenant_id = 1;
  auto result = (*db)->Query(query);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(result->rows.size(), 80u);
  EXPECT_EQ(registry.Counter("query.queries")->load(), 1u);
  EXPECT_EQ(registry.Counter("query.realtime_rows")->load(), 50u);
  EXPECT_EQ(registry.Counter("query.rows_matched")->load(), 80u);

  query.agg = query::Aggregate::Count();
  result = (*db)->Query(query);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->agg.rows, 80u);
  EXPECT_EQ(registry.Counter("query.queries")->load(), 2u);
  EXPECT_EQ(registry.Counter("query.realtime_rows")->load(), 100u);
  EXPECT_EQ(registry.Counter("query.rows_matched")->load(), 160u);
}

TEST(LogStoreTest, RetentionPoliciesApplyPerTenant) {
  auto db = LogStore::Open(SmallOptions());
  ASSERT_TRUE(db.ok());
  // Tenant 1: keep 1000us. Tenant 2: keep everything (no policy).
  (*db)->SetRetention(1, 1000);

  for (uint64_t tenant : {1ull, 2ull}) {
    ASSERT_TRUE(
        (*db)->Append(tenant, OneRow(tenant, 100, "a", 1, "false", "old")).ok());
    ASSERT_TRUE((*db)->Flush().ok());
    ASSERT_TRUE(
        (*db)->Append(tenant, OneRow(tenant, 5000, "a", 1, "false", "new")).ok());
    ASSERT_TRUE((*db)->Flush().ok());
  }

  auto removed = (*db)->ApplyRetentionPolicies(/*now=*/5500);
  ASSERT_TRUE(removed.ok());
  EXPECT_EQ(*removed, 1);  // only tenant 1's old block
  EXPECT_EQ((*db)->metadata()->TenantBlockCount(1), 1u);
  EXPECT_EQ((*db)->metadata()->TenantBlockCount(2), 2u);

  // Clearing the policy stops further expiration.
  (*db)->SetRetention(1, 0);
  removed = (*db)->ApplyRetentionPolicies(/*now=*/100'000);
  ASSERT_TRUE(removed.ok());
  EXPECT_EQ(*removed, 0);
  EXPECT_EQ((*db)->metadata()->TenantBlockCount(1), 1u);
}

TEST(LogStoreTest, SimulatedLatencyIsCharged) {
  LogStoreOptions options = SmallOptions();
  options.simulate_object_latency = true;
  options.simulated.first_byte_latency_us = 100;
  options.simulated.time_scale = 0.0;  // account without sleeping
  auto db = LogStore::Open(options);
  ASSERT_TRUE(db.ok());
  ASSERT_TRUE((*db)->Append(1, OneRow(1, 1, "a", 1, "false", "x")).ok());
  ASSERT_TRUE((*db)->Flush().ok());
  auto* sim = static_cast<objectstore::SimulatedObjectStore*>(
      (*db)->object_store());
  EXPECT_GT(sim->charged_micros(), 0u);
}

TEST(LogStoreTest, GeneratedQuerySetExecutes) {
  auto db = LogStore::Open(SmallOptions());
  ASSERT_TRUE(db.ok());
  workload::LogGenerator gen(6);
  ASSERT_TRUE((*db)->Append(4, gen.Generate(4, 2000, 0, 1'000'000)).ok());
  ASSERT_TRUE((*db)->Flush().ok());

  workload::QueryGenerator qgen(2);
  for (const auto& q : qgen.TenantQuerySet(4, 0, 1'000'000)) {
    auto result = (*db)->Query(q);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
  }
}

}  // namespace
}  // namespace logstore
