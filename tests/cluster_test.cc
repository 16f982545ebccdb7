#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <filesystem>
#include <iterator>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <thread>

#include "cluster/cluster.h"
#include "cluster/controller.h"
#include "cluster/data_builder.h"
#include "common/metrics.h"
#include "objectstore/fault_injecting_object_store.h"
#include "objectstore/memory_object_store.h"
#include "objectstore/retrying_object_store.h"
#include "reference_query.h"
#include "workload/loggen.h"
#include "workload/zipfian.h"

namespace logstore::cluster {
namespace {

using logblock::RowBatch;
using logblock::Value;

RowBatch OneRow(uint64_t tenant, int64_t ts, const std::string& log) {
  RowBatch batch(logblock::RequestLogSchema());
  batch.AddRow({Value::Int64(static_cast<int64_t>(tenant)), Value::Int64(ts),
                Value::String("10.0.0.1"), Value::Int64(5),
                Value::String("false"), Value::String(log)});
  return batch;
}

// Fails the first Put of every key, and the first Delete, once each with a
// transient IOError; every other call passes through to `base`.
class FlakyMutationStore : public objectstore::ObjectStore {
 public:
  explicit FlakyMutationStore(objectstore::ObjectStore* base) : base_(base) {}

  Status Put(const std::string& key, const Slice& data) override {
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (failed_puts_.insert(key).second) {
        return Status::IOError("injected transient Put failure: " + key);
      }
    }
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
    return base_->Head(key);
  }
  Result<std::vector<std::string>> List(const std::string& prefix) override {
    return base_->List(prefix);
  }
  Status Delete(const std::string& key) override {
    if (!delete_failed_.exchange(true)) {
      return Status::IOError("injected transient Delete failure: " + key);
    }
    return base_->Delete(key);
  }
  objectstore::ObjectStoreStats& stats() override { return base_->stats(); }

 private:
  objectstore::ObjectStore* base_;
  std::mutex mu_;
  std::set<std::string> failed_puts_;  // guarded by mu_
  std::atomic<bool> delete_failed_{false};
};

// The `objectstore.retry.*` cells of `registry`, by name.
std::map<std::string, uint64_t> RetryCells(metrics::MetricRegistry* registry) {
  std::map<std::string, uint64_t> cells;
  for (const char* name :
       {"objectstore.retry.attempts", "objectstore.retry.retries",
        "objectstore.retry.giveups", "objectstore.retry.short_reads"}) {
    cells[name] = registry->Counter(name)->load();
  }
  return cells;
}

TEST(DataBuilderTest, BuildsPerTenantBlocks) {
  objectstore::MemoryObjectStore store;
  logblock::LogBlockMap map;
  DataBuilder builder(&store, &map);
  rowstore::RowStore rows(logblock::RequestLogSchema());

  workload::LogGenerator gen(3);
  rows.Append(1, gen.Generate(1, 500, 0, 1000));
  rows.Append(2, gen.Generate(2, 300, 0, 1000));

  auto built = builder.BuildOnce(&rows);
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  EXPECT_EQ(*built, 2);  // one block per tenant
  EXPECT_EQ(map.TenantBlockCount(1), 1u);
  EXPECT_EQ(map.TenantBlockCount(2), 1u);
  EXPECT_EQ(rows.row_count(), 0u);  // checkpoint advanced
  EXPECT_EQ(builder.rows_archived(), 800u);
  EXPECT_GT(builder.bytes_uploaded(), 0u);

  // Tenant objects live under per-tenant prefixes: physical isolation.
  auto keys1 = store.List("tenants/1/");
  ASSERT_TRUE(keys1.ok());
  EXPECT_EQ(keys1->size(), 1u);
}

TEST(DataBuilderTest, LargeTenantSplitsIntoMultipleBlocks) {
  objectstore::MemoryObjectStore store;
  logblock::LogBlockMap map;
  DataBuilderOptions options;
  options.max_rows_per_logblock = 100;
  DataBuilder builder(&store, &map, options);
  rowstore::RowStore rows(logblock::RequestLogSchema());

  workload::LogGenerator gen(4);
  rows.Append(7, gen.Generate(7, 450, 0, 1000));
  auto built = builder.BuildOnce(&rows);
  ASSERT_TRUE(built.ok());
  EXPECT_EQ(*built, 5);  // 450 rows / 100 per block
  EXPECT_EQ(map.TenantBlockCount(7), 5u);
}

TEST(DataBuilderTest, NothingToBuildIsNoop) {
  objectstore::MemoryObjectStore store;
  logblock::LogBlockMap map;
  DataBuilder builder(&store, &map);
  rowstore::RowStore rows(logblock::RequestLogSchema());
  auto built = builder.BuildOnce(&rows);
  ASSERT_TRUE(built.ok());
  EXPECT_EQ(*built, 0);
}

// Rows registered for `tenant` in the LogBlock map.
uint64_t ArchivedRows(const logblock::LogBlockMap& map, uint64_t tenant) {
  uint64_t rows = 0;
  for (const auto& entry : map.TenantBlocks(tenant)) rows += entry.row_count;
  return rows;
}

// Rows [begin, end) of `batch` as a batch of their own.
RowBatch SliceRows(const RowBatch& batch, uint32_t begin, uint32_t end) {
  RowBatch slice(batch.schema());
  for (uint32_t r = begin; r < end; ++r) {
    std::vector<Value> row;
    for (size_t c = 0; c < batch.schema().num_columns(); ++c) {
      row.push_back(batch.ValueAt(c, r));
    }
    slice.AddRow(row);
  }
  return slice;
}

void ExpectSameEntries(const std::vector<logblock::LogBlockEntry>& actual,
                       const std::vector<logblock::LogBlockEntry>& expected) {
  ASSERT_EQ(actual.size(), expected.size());
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(actual[i].tenant_id, expected[i].tenant_id) << i;
    EXPECT_EQ(actual[i].min_ts, expected[i].min_ts) << i;
    EXPECT_EQ(actual[i].max_ts, expected[i].max_ts) << i;
    EXPECT_EQ(actual[i].object_key, expected[i].object_key) << i;
    EXPECT_EQ(actual[i].size_bytes, expected[i].size_bytes) << i;
    EXPECT_EQ(actual[i].row_count, expected[i].row_count) << i;
  }
}

TEST(DataBuilderTest, FailedUploadRegistersNothing) {
  objectstore::MemoryObjectStore backend;
  objectstore::FaultInjectingObjectStore store(&backend, {});
  objectstore::RetryingObjectStore retrying(&store);
  logblock::LogBlockMap map;
  DataBuilder builder(&retrying, &map);
  rowstore::RowStore rows(logblock::RequestLogSchema());
  workload::LogGenerator gen(8);
  rows.Append(1, gen.Generate(1, 1000, 0, 1000));
  rows.Append(2, gen.Generate(2, 1000, 0, 1000));

  // Tenant 2's LogBlock takes sequence 1; its upload gives up after the
  // retries while tenant 1's lands.
  store.BlacklistKey("tenants/2/1.tar");
  auto failed = builder.BuildOnce(&rows);
  ASSERT_FALSE(failed.ok());
  EXPECT_TRUE(failed.status().IsUnavailable()) << failed.status().ToString();
  EXPECT_EQ(map.TotalBlocks(), 0u);
  EXPECT_TRUE(builder.ArchivedKeys().empty());
  EXPECT_EQ(rows.row_count(), 2000u);  // nothing truncated
  EXPECT_EQ(builder.rows_archived(), 0u);
  EXPECT_EQ(builder.blocks_built(), 0u);

  // The retry archives every row once; the failed pass's upload of tenant 1
  // stays on the store, unreferenced.
  store.ClearBlacklist();
  auto retried = builder.BuildOnce(&rows);
  ASSERT_TRUE(retried.ok()) << retried.status().ToString();
  EXPECT_EQ(*retried, 2);
  EXPECT_EQ(ArchivedRows(map, 1), 1000u);
  EXPECT_EQ(ArchivedRows(map, 2), 1000u);
  EXPECT_EQ(rows.row_count(), 0u);
  EXPECT_EQ(builder.rows_archived(), 2000u);
  EXPECT_EQ(backend.object_count(), 3u);
}

TEST(DataBuilderTest, BrownoutFailsPassAfterOneJobPerExecutor) {
  metrics::MetricRegistry registry;
  objectstore::MemoryObjectStore backend;
  objectstore::FaultInjectingObjectStore store(&backend, {});
  store.SetBrownout(0, std::numeric_limits<int64_t>::max());
  objectstore::RetryOptions retry;
  retry.max_attempts = 3;
  retry.initial_backoff_us = 100;
  retry.max_backoff_us = 1000;
  retry.registry = &registry;
  objectstore::RetryingObjectStore retrying(&store, retry);
  logblock::LogBlockMap map;
  DataBuilder builder(&retrying, &map);
  rowstore::RowStore rows(logblock::RequestLogSchema());
  workload::LogGenerator gen(9);
  constexpr uint64_t kTenants = 64;
  for (uint64_t tenant = 0; tenant < kTenants; ++tenant) {
    rows.Append(tenant, gen.Generate(tenant, 20, 0, 1000));
  }

  auto built = builder.BuildOnce(&rows);
  ASSERT_FALSE(built.ok());
  EXPECT_TRUE(built.status().IsUnavailable()) << built.status().ToString();
  EXPECT_EQ(map.TotalBlocks(), 0u);
  EXPECT_EQ(rows.row_count(), kTenants * 20);

  // No job starts after one has failed: each executor (the pool's threads
  // and the calling thread) gives up on at most one LogBlock.
  const uint64_t executors =
      std::max(1u, std::thread::hardware_concurrency()) + 1;
  const uint64_t attempts =
      registry.Counter("objectstore.retry.attempts")->load();
  EXPECT_GE(attempts, 3u);
  EXPECT_LE(attempts, std::min(executors, kTenants) * 3);
  EXPECT_EQ(backend.object_count(), 0u);
}

// The parallel pass writes what one serial BuildLogBlock per planned job
// writes: keys numbered consecutively in snapshot order, byte-equal
// objects, the same map entries, and the same store from any builder.
TEST(DataBuilderTest, ParallelPassMatchesSerialOracle) {
  constexpr uint64_t kTenants = 65;
  constexpr uint64_t kBigTenant = 17;
  constexpr uint32_t kMaxRows = 400;
  DataBuilderOptions options;
  options.max_rows_per_logblock = kMaxRows;
  options.block_options.rows_per_block = 128;
  options.key_salt = "s-";

  workload::LogGenerator gen(12);
  std::map<uint64_t, RowBatch> input;
  for (uint64_t tenant = 0; tenant < kTenants; ++tenant) {
    const uint32_t n = tenant == kBigTenant ? 2 * kMaxRows + 123
                                            : 30 + static_cast<uint32_t>(tenant);
    input.emplace(tenant, gen.Generate(tenant, n, 0, 3'600'000'000));
  }
  // Two rounds of appends interleave the tenants in the row store; each
  // tenant's snapshot batch is still its rows in order.
  auto fill = [&](rowstore::RowStore* rows) {
    for (const auto& [tenant, batch] : input) {
      rows->Append(tenant, SliceRows(batch, 0, batch.num_rows() / 2));
    }
    for (const auto& [tenant, batch] : input) {
      rows->Append(tenant,
                   SliceRows(batch, batch.num_rows() / 2, batch.num_rows()));
    }
  };

  objectstore::MemoryObjectStore store_a;
  objectstore::MemoryObjectStore store_b;
  logblock::LogBlockMap map_a;
  logblock::LogBlockMap map_b;
  DataBuilder builder_a(&store_a, &map_a, options);
  DataBuilder builder_b(&store_b, &map_b, options);
  rowstore::RowStore rows_a(logblock::RequestLogSchema());
  rowstore::RowStore rows_b(logblock::RequestLogSchema());
  fill(&rows_a);
  fill(&rows_b);
  auto built_a = builder_a.BuildOnce(&rows_a);
  auto built_b = builder_b.BuildOnce(&rows_b);
  ASSERT_TRUE(built_a.ok()) << built_a.status().ToString();
  ASSERT_TRUE(built_b.ok()) << built_b.status().ToString();

  // Oracle: one serial BuildLogBlock per job, in snapshot order.
  std::vector<std::string> keys;
  logblock::LogBlockMap expected_map;
  uint64_t seq = 0;
  for (const auto& [tenant, batch] : input) {
    for (uint32_t begin = 0; begin < batch.num_rows(); begin += kMaxRows) {
      const uint32_t end = std::min(begin + kMaxRows, batch.num_rows());
      auto block = logblock::BuildLogBlock(SliceRows(batch, begin, end), tenant,
                                           options.block_options);
      ASSERT_TRUE(block.ok());
      const std::string key = "tenants/" + std::to_string(tenant) + "/s-" +
                              std::to_string(seq++) + ".tar";
      auto stored = store_a.Get(key);
      ASSERT_TRUE(stored.ok()) << key << ": " << stored.status().ToString();
      EXPECT_TRUE(*stored == block->data) << key << " differs from the oracle";
      keys.push_back(key);
      expected_map.Add({.tenant_id = tenant,
                        .min_ts = block->meta.min_ts,
                        .max_ts = block->meta.max_ts,
                        .object_key = key,
                        .size_bytes = block->data.size(),
                        .row_count = block->meta.row_count});
    }
  }
  ASSERT_EQ(keys.size(), kTenants + 2);  // the big tenant makes 3 blocks
  EXPECT_EQ(*built_a, static_cast<int>(keys.size()));
  EXPECT_EQ(builder_a.next_sequence(), keys.size());
  EXPECT_EQ(builder_a.ArchivedKeys(), keys);
  EXPECT_EQ(rows_a.row_count(), 0u);
  EXPECT_EQ(map_a.Tenants(), expected_map.Tenants());
  for (uint64_t tenant : expected_map.Tenants()) {
    ExpectSameEntries(map_a.TenantBlocks(tenant),
                      expected_map.TenantBlocks(tenant));
    ExpectSameEntries(map_b.TenantBlocks(tenant),
                      expected_map.TenantBlocks(tenant));
  }

  // Nothing else was written, and the second builder wrote the same store.
  auto listed_a = store_a.List("");
  auto listed_b = store_b.List("");
  ASSERT_TRUE(listed_a.ok());
  ASSERT_TRUE(listed_b.ok());
  std::vector<std::string> sorted_keys = keys;
  std::sort(sorted_keys.begin(), sorted_keys.end());
  EXPECT_EQ(*listed_a, sorted_keys);
  EXPECT_EQ(*listed_b, sorted_keys);
  for (const std::string& key : keys) {
    EXPECT_TRUE(*store_a.Get(key) == *store_b.Get(key)) << key;
  }
  EXPECT_EQ(builder_b.ArchivedKeys(), keys);
}

// Every upload of a cluster's build pass goes through the cluster's one
// retry layer and counts in the cluster's registry, not the process-wide
// default.
TEST(DataBuilderTest, ClusterBuildPassRetriesCountInTheClusterRegistry) {
  metrics::MetricRegistry registry;
  objectstore::MemoryObjectStore memory;
  FlakyMutationStore store(&memory);
  ClusterDeploymentOptions options;
  options.num_workers = 2;
  options.shards_per_worker = 2;
  options.worker.schema = logblock::RequestLogSchema();
  options.engine.prefetch_threads = 2;
  options.engine.cache_options.ssd_dir.clear();
  options.registry = &registry;
  auto cluster = Cluster::Open(&store, options);
  ASSERT_TRUE(cluster.ok()) << cluster.status().ToString();
  workload::LogGenerator gen(31);
  for (uint64_t tenant = 1; tenant <= 4; ++tenant) {
    ASSERT_TRUE(
        (*cluster)->Write(tenant, gen.Generate(tenant, 50, 0, 1000)).ok());
  }

  const auto default_before = RetryCells(metrics::MetricRegistry::Default());
  auto built = (*cluster)->RunBuildPass();
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  ASSERT_GT(*built, 0);
  const uint64_t blocks = static_cast<uint64_t>(*built);
  EXPECT_EQ(memory.object_count(), blocks);
  // Each upload failed once and was retried once.
  const auto cells = RetryCells(&registry);
  EXPECT_EQ(cells.at("objectstore.retry.attempts"), 2 * blocks);
  EXPECT_EQ(cells.at("objectstore.retry.retries"), blocks);
  EXPECT_EQ(cells.at("objectstore.retry.giveups"), 0u);
  EXPECT_EQ(RetryCells(metrics::MetricRegistry::Default()), default_before);
}

TEST(ControllerTest, InitialRoutesViaConsistentHash) {
  Controller controller(4, 4);
  controller.EnsureTenantRoute(11);
  controller.EnsureTenantRoute(11);  // idempotent
  const auto routes = controller.routes();
  const auto* weights = routes.Get(11);
  ASSERT_NE(weights, nullptr);
  EXPECT_EQ(weights->size(), 1u);
  EXPECT_DOUBLE_EQ(weights->begin()->second, 1.0);
  EXPECT_LT(weights->begin()->first, 16u);
}

TEST(ControllerTest, RebalancesOnHotShard) {
  ControllerOptions options;
  options.policy = BalancePolicy::kMaxFlow;
  options.shard_capacity = 1000;
  options.worker_capacity = 4000;
  options.edge_max_flow = 800;
  Controller controller(2, 2, options);
  controller.EnsureTenantRoute(0);

  const auto routes = controller.routes();
  const uint32_t shard = routes.Get(0)->begin()->first;

  // Tenant 0 floods its shard.
  const auto decision = controller.RunTrafficControl(
      {{0, 3000}}, {{shard, 3000}}, {{controller.WorkerForShard(shard), 3000}});
  EXPECT_TRUE(decision.rebalanced);
  // routes() returns the table by value; keep it alive while we hold a
  // pointer into it.
  const auto updated = controller.routes();
  const auto* weights = updated.Get(0);
  ASSERT_NE(weights, nullptr);
  EXPECT_GE(weights->size(), 4u);  // 3000 / 800 => 4 routes
}

TEST(ControllerTest, NoActionWithoutHotShards) {
  Controller controller(2, 2);
  controller.EnsureTenantRoute(0);
  const auto decision =
      controller.RunTrafficControl({{0, 100}}, {{0, 100}}, {{0, 100}});
  EXPECT_FALSE(decision.rebalanced);
  EXPECT_FALSE(decision.scale_needed);
}

TEST(ControllerTest, RequestsScaleOutWhenSaturated) {
  ControllerOptions options;
  options.shard_capacity = 1000;
  options.worker_capacity = 1000;
  Controller controller(2, 1, options);
  controller.EnsureTenantRoute(0);
  const uint32_t shard = controller.routes().Get(0)->begin()->first;
  const auto decision = controller.RunTrafficControl(
      {{0, 5000}}, {{shard, 5000}},
      {{0, 2500}, {1, 2500}});  // both workers above alpha
  EXPECT_TRUE(decision.scale_needed);
  EXPECT_FALSE(decision.rebalanced);
}

class ClusterTest : public ::testing::Test {
 protected:
  void SetUp() override {
    store_ = std::make_unique<objectstore::MemoryObjectStore>();
    ClusterDeploymentOptions options;
    options.num_workers = 2;
    options.shards_per_worker = 2;
    options.worker.schema = logblock::RequestLogSchema();
    options.worker.replicated = false;
    options.engine.prefetch_threads = 2;
    options.engine.cache_options.memory_capacity_bytes = 8 << 20;
    options.engine.cache_options.ssd_dir.clear();
    auto cluster = Cluster::Open(store_.get(), options);
    ASSERT_TRUE(cluster.ok());
    cluster_ = std::move(cluster).value();
  }

  std::unique_ptr<objectstore::MemoryObjectStore> store_;
  std::unique_ptr<Cluster> cluster_;
};

TEST_F(ClusterTest, WriteIsImmediatelyVisible) {
  ASSERT_TRUE(cluster_->Write(5, OneRow(5, 100, "fresh")).ok());
  query::LogQuery query;
  query.tenant_id = 5;
  auto result = cluster_->Query(query);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(result->rows.size(), 1u);  // served from the real-time store
}

TEST_F(ClusterTest, ArchivedAndRealtimeMerge) {
  ASSERT_TRUE(cluster_->Write(5, OneRow(5, 100, "old")).ok());
  auto built = cluster_->RunBuildPass();
  ASSERT_TRUE(built.ok());
  EXPECT_EQ(*built, 1);
  ASSERT_TRUE(cluster_->Write(5, OneRow(5, 200, "new")).ok());

  query::LogQuery query;
  query.tenant_id = 5;
  query.select_columns = {"log"};
  auto result = cluster_->Query(query);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->rows.size(), 2u);  // one from OSS, one real-time
}

TEST_F(ClusterTest, ExpirationRemovesObjects) {
  ASSERT_TRUE(cluster_->Write(5, OneRow(5, 100, "expiring")).ok());
  ASSERT_TRUE(cluster_->RunBuildPass().ok());
  EXPECT_EQ(store_->object_count(), 1u);

  auto expired = cluster_->ExpireTenantData(5, 1000);
  ASSERT_TRUE(expired.ok());
  EXPECT_EQ(*expired, 1);
  EXPECT_EQ(store_->object_count(), 0u);

  query::LogQuery query;
  query.tenant_id = 5;
  auto result = cluster_->Query(query);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->rows.empty());
}

// Passes every call through, except that once armed it holds the next
// GetRange until Release.
class GatedStore : public objectstore::ObjectStore {
 public:
  explicit GatedStore(objectstore::ObjectStore* base) : base_(base) {}

  void Arm() {
    std::lock_guard<std::mutex> lock(mu_);
    armed_ = true;
  }
  void WaitUntilHeld() {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [&] { return held_; });
  }
  void Release() {
    std::lock_guard<std::mutex> lock(mu_);
    released_ = true;
    cv_.notify_all();
  }

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
      if (armed_) {
        armed_ = false;
        held_ = true;
        cv_.notify_all();
        cv_.wait(lock, [&] { return released_; });
      }
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

 private:
  objectstore::ObjectStore* base_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool armed_ = false;
  bool held_ = false;
  bool released_ = false;
};

// Expiry is a control mutation: a read whose archived scan overlaps the
// deletes is fenced with a retryable kUnavailable, never a NotFound for the
// vanished object, and the retry answers from the post-expiry state.
TEST(ClusterExpiryTest, ExpiryFencesAnOverlappingRead) {
  objectstore::MemoryObjectStore memory;
  GatedStore store(&memory);
  ClusterDeploymentOptions options;
  options.num_workers = 2;
  options.shards_per_worker = 2;
  options.worker.schema = logblock::RequestLogSchema();
  options.engine.prefetch_threads = 2;
  options.engine.cache_options.ssd_dir.clear();
  auto opened = Cluster::Open(&store, options);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  std::unique_ptr<Cluster> cluster = std::move(opened).value();

  workload::LogGenerator gen(29);
  RowBatch archived = gen.Generate(1, 40, 0, 1000);
  ASSERT_TRUE(cluster->Write(1, archived).ok());
  auto built = cluster->RunBuildPass();
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  ASSERT_EQ(*built, 1);
  RowBatch fresh = gen.Generate(1, 7, 5000, 6000);
  ASSERT_TRUE(cluster->Write(1, fresh).ok());

  query::LogQuery query;
  query.tenant_id = 1;
  store.Arm();
  Result<query::QueryResult> overlapped = Status::Internal("not run");
  std::thread reader([&] { overlapped = cluster->Query(query); });
  store.WaitUntilHeld();
  auto expired = cluster->ExpireTenantData(1, 2000);
  ASSERT_TRUE(expired.ok()) << expired.status().ToString();
  EXPECT_EQ(*expired, 1);
  store.Release();
  reader.join();
  ASSERT_FALSE(overlapped.ok());
  EXPECT_TRUE(overlapped.status().IsUnavailable())
      << overlapped.status().ToString();

  auto retried = cluster->Query(query);
  ASSERT_TRUE(retried.ok()) << retried.status().ToString();
  EXPECT_EQ(retried->stats.logblocks_total, 0u);
  reference::ExpectMatchesReference(
      reference::Evaluate({{1, fresh}}, query), query, *retried, "retry");
  EXPECT_EQ(retried->rows.size(), 7u);
}

// Expiry deletes go through the cluster's retry layer: a transient Delete
// failure is retried, so the expired object leaves the store instead of
// staying behind with nothing pointing to it.
TEST(ClusterExpiryTest, TransientDeleteFailureIsRetried) {
  metrics::MetricRegistry registry;
  objectstore::MemoryObjectStore memory;
  FlakyMutationStore store(&memory);
  ClusterDeploymentOptions options;
  options.num_workers = 1;
  options.shards_per_worker = 2;
  options.worker.schema = logblock::RequestLogSchema();
  options.engine.prefetch_threads = 2;
  options.engine.cache_options.ssd_dir.clear();
  options.registry = &registry;
  auto cluster = Cluster::Open(&store, options);
  ASSERT_TRUE(cluster.ok()) << cluster.status().ToString();
  ASSERT_TRUE((*cluster)->Write(5, OneRow(5, 100, "expiring")).ok());
  auto built = (*cluster)->RunBuildPass();
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  ASSERT_EQ(*built, 1);
  ASSERT_EQ(memory.object_count(), 1u);

  const uint64_t retries_before =
      registry.Counter("objectstore.retry.retries")->load();
  auto expired = (*cluster)->ExpireTenantData(5, 1000);
  ASSERT_TRUE(expired.ok()) << expired.status().ToString();
  EXPECT_EQ(*expired, 1);
  EXPECT_EQ(memory.object_count(), 0u);
  EXPECT_EQ(registry.Counter("objectstore.retry.retries")->load(),
            retries_before + 1);
}

// Each write draws once from the broker's Random(12345) and picks its
// shard from the controller's routing table with that draw. Replaying the
// same Random over a copy of the table therefore predicts the shard of
// every write of a single-threaded sequence, including a tenant the
// balancer spread over several shards.
TEST(ClusterRoutingTest, SeededWritesLandOnTheReplayedShards) {
  metrics::MetricRegistry registry;
  objectstore::MemoryObjectStore store;
  ClusterDeploymentOptions options;
  options.num_workers = 2;
  options.shards_per_worker = 2;
  options.worker.schema = logblock::RequestLogSchema();
  options.worker.replicated = false;
  options.engine.prefetch_threads = 2;
  options.engine.cache_options.ssd_dir.clear();
  options.controller.shard_capacity = 1000;
  options.controller.worker_capacity = 4000;
  options.controller.edge_max_flow = 800;
  options.registry = &registry;
  auto opened = Cluster::Open(&store, options);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  Cluster& cluster = **opened;

  // Tenant 0 floods its shard; tenants 1-5 write once each.
  workload::LogGenerator gen(5);
  uint64_t draws = 0;
  for (int i = 0; i < 30; ++i, ++draws) {
    ASSERT_TRUE(cluster.Write(0, gen.Generate(0, 100, i, i + 1)).ok());
  }
  for (uint64_t tenant = 1; tenant <= 5; ++tenant, ++draws) {
    ASSERT_TRUE(cluster.Write(tenant, OneRow(tenant, 1, "warm")).ok());
  }
  ASSERT_TRUE(cluster.RunTrafficControl().rebalanced);
  const flow::RouteTable routes = cluster.controller()->routes();
  ASSERT_GE(routes.Get(0)->size(), 2u);

  const uint32_t num_shards = cluster.controller()->num_shards();
  auto routed_rows = [&] {
    std::vector<uint64_t> rows;
    for (uint32_t s = 0; s < num_shards; ++s) {
      const std::string shard = std::to_string(s);
      rows.push_back(
          registry.Counter("cluster.rows_routed", {{"shard", shard}})->load());
    }
    return rows;
  };
  std::vector<uint64_t> expected = routed_rows();
  Random replay(12345);
  for (uint64_t i = 0; i < draws; ++i) replay.NextDouble();
  Random sizes(77);
  for (int i = 0; i < 300; ++i) {
    const uint64_t tenant = i % 2 == 0 ? 0 : 1 + i % 5;
    const uint32_t rows = 1 + static_cast<uint32_t>(sizes.Uniform(20));
    ASSERT_TRUE(
        cluster.Write(tenant, gen.Generate(tenant, rows, i, i + 1)).ok());
    uint32_t shard = 0;
    ASSERT_TRUE(routes.PickShard(tenant, replay.NextDouble(), &shard));
    expected[shard] += rows;
  }
  EXPECT_EQ(routed_rows(), expected);
}

TEST_F(ClusterTest, TrafficControlCycleRuns) {
  workload::LogGenerator gen(5);
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(cluster_->Write(0, gen.Generate(0, 100, i * 100, (i + 1) * 100))
                    .ok());
  }
  const auto decision = cluster_->RunTrafficControl();
  // With default capacities nothing is hot; the cycle completes cleanly.
  EXPECT_FALSE(decision.scale_needed);
}

TEST(ClusterBuildPassTest, FailedPassIsRetriedWithoutDuplicates) {
  objectstore::MemoryObjectStore backend;
  objectstore::FaultInjectingObjectStore store(&backend, {});
  ClusterDeploymentOptions options;
  options.num_workers = 1;
  options.shards_per_worker = 2;
  options.worker.schema = logblock::RequestLogSchema();
  options.worker.replicated = false;
  options.engine.prefetch_threads = 2;
  options.engine.cache_options.memory_capacity_bytes = 8 << 20;
  options.engine.cache_options.ssd_dir.clear();
  auto cluster = Cluster::Open(&store, options);
  ASSERT_TRUE(cluster.ok()) << cluster.status().ToString();

  workload::LogGenerator gen(10);
  std::map<uint64_t, uint64_t> acked;
  for (int i = 0; i < 4; ++i) {
    for (uint64_t tenant : {1, 2}) {
      ASSERT_TRUE(
          (*cluster)->Write(tenant, gen.Generate(tenant, 250, 0, 1000)).ok());
      acked[tenant] += 250;
    }
  }
  auto count = [&](uint64_t tenant) -> uint64_t {
    query::LogQuery query;
    query.tenant_id = tenant;
    query.agg = query::Aggregate::Count();
    auto result = (*cluster)->Query(query);
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    return result.ok() ? result->agg.rows : 0;
  };

  // Worker 0's first incarnation numbers tenant 2's LogBlock 1.
  store.BlacklistKey("tenants/2/w0-0-1.tar");
  auto failed = (*cluster)->RunBuildPass();
  ASSERT_FALSE(failed.ok());
  EXPECT_EQ((*cluster)->controller()->metadata()->TotalBlocks(), 0u);
  EXPECT_EQ(count(1), acked[1]);
  EXPECT_EQ(count(2), acked[2]);

  store.ClearBlacklist();
  auto retried = (*cluster)->RunBuildPass();
  ASSERT_TRUE(retried.ok()) << retried.status().ToString();
  EXPECT_EQ(*retried, 2);
  EXPECT_EQ(count(1), acked[1]);
  EXPECT_EQ(count(2), acked[2]);
  // The failed pass's upload of tenant 1 is an unreferenced object.
  EXPECT_EQ(backend.object_count(), 3u);
}

TEST(ReplicatedClusterTest, WritesSurviveThroughRaft) {
  namespace fs = std::filesystem;
  const fs::path dir = fs::temp_directory_path() /
                       ("cluster_test_raft_" + std::to_string(::getpid()));
  fs::remove_all(dir);

  objectstore::MemoryObjectStore store;
  ClusterDeploymentOptions options;
  options.num_workers = 1;
  options.shards_per_worker = 1;
  options.worker.schema = logblock::RequestLogSchema();
  options.worker.replicated = true;
  options.worker.wal_dir = dir.string();
  options.worker.raft.election_timeout_min_ms = 50;
  options.worker.raft.election_timeout_max_ms = 100;
  options.worker.raft.heartbeat_interval_ms = 20;
  options.engine.prefetch_threads = 2;
  options.engine.cache_options.ssd_dir.clear();
  auto cluster = Cluster::Open(&store, options);
  ASSERT_TRUE(cluster.ok());

  ASSERT_TRUE((*cluster)->Write(3, OneRow(3, 50, "replicated")).ok());
  query::LogQuery query;
  query.tenant_id = 3;
  auto result = (*cluster)->Query(query);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->rows.size(), 1u);

  cluster->reset();
  fs::remove_all(dir);
}

TEST(ReplicatedClusterTest, DurableWorkerRestartKeepsAckedWrites) {
  namespace fs = std::filesystem;
  const fs::path dir = fs::temp_directory_path() / "cluster_test_durable";
  fs::remove_all(dir);

  objectstore::MemoryObjectStore store;
  ClusterDeploymentOptions options;
  options.num_workers = 1;
  options.shards_per_worker = 1;
  options.worker.schema = logblock::RequestLogSchema();
  options.worker.replicated = true;
  options.worker.wal_dir = dir.string();  // each worker gets a subdirectory
  options.engine.prefetch_threads = 2;
  options.engine.cache_options.ssd_dir.clear();
  auto cluster = Cluster::Open(&store, options);
  ASSERT_TRUE(cluster.ok()) << cluster.status().ToString();

  ASSERT_TRUE((*cluster)->Write(3, OneRow(3, 50, "durable")).ok());
  ASSERT_TRUE((*cluster)->RestartWorker(0).ok());

  // The acked write survives the worker process restart via its WAL.
  query::LogQuery query;
  query.tenant_id = 3;
  auto result = (*cluster)->Query(query);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->rows.size(), 1u);

  cluster->reset();
  fs::remove_all(dir);
}

TEST(ReplicatedClusterTest, RestartWithoutWalDirIsRejected) {
  objectstore::MemoryObjectStore store;
  ClusterDeploymentOptions options;
  options.num_workers = 1;
  options.shards_per_worker = 1;
  options.worker.schema = logblock::RequestLogSchema();
  // Unreplicated: there is no wal_dir to restart the worker over.
  options.engine.prefetch_threads = 2;
  options.engine.cache_options.ssd_dir.clear();
  auto cluster = Cluster::Open(&store, options);
  ASSERT_TRUE(cluster.ok());

  // Restarting a worker with no journal would silently lose acked writes;
  // the cluster refuses instead of pretending.
  EXPECT_FALSE((*cluster)->RestartWorker(0).ok());
}

TEST(ReplicatedClusterTest, ReplicationNeedsAWalDir) {
  objectstore::MemoryObjectStore store;
  ClusterDeploymentOptions options;
  options.num_workers = 1;
  options.shards_per_worker = 1;
  options.worker.schema = logblock::RequestLogSchema();
  options.worker.replicated = true;  // and no wal_dir
  options.engine.prefetch_threads = 2;
  options.engine.cache_options.ssd_dir.clear();
  auto cluster = Cluster::Open(&store, options);
  ASSERT_FALSE(cluster.ok());
  EXPECT_TRUE(cluster.status().IsInvalidArgument())
      << cluster.status().ToString();
}

TEST(ReplicatedClusterTest, WalDirNeedsReplication) {
  // An unreplicated worker never opens a WAL, so a wal_dir would only make
  // RestartWorker look safe: it would restart the worker over a directory
  // that holds none of its acked writes.
  namespace fs = std::filesystem;
  const fs::path dir =
      fs::temp_directory_path() /
      ("cluster_test_unreplicated_" + std::to_string(::getpid()));
  fs::remove_all(dir);

  objectstore::MemoryObjectStore store;
  ClusterDeploymentOptions options;
  options.num_workers = 1;
  options.shards_per_worker = 1;
  options.worker.schema = logblock::RequestLogSchema();
  options.worker.wal_dir = dir.string();  // and replicated = false
  options.engine.prefetch_threads = 2;
  options.engine.cache_options.ssd_dir.clear();
  auto cluster = Cluster::Open(&store, options);
  EXPECT_FALSE(cluster.ok());
  EXPECT_TRUE(cluster.status().IsInvalidArgument())
      << cluster.status().ToString();

  fs::remove_all(dir);
}

TEST(ReplicatedClusterTest, QuiescentBuildPassRetainsNothing) {
  // Node 0 is the only replica that applies writes. Once every replica has
  // applied every write and a build pass has run, no worker may hold a row
  // and no replica a raft entry above the archive watermark.
  namespace fs = std::filesystem;
  const fs::path dir = fs::temp_directory_path() /
                       ("cluster_test_retention_" + std::to_string(::getpid()));
  fs::remove_all(dir);

  objectstore::MemoryObjectStore store;
  ClusterDeploymentOptions options;
  options.num_workers = 2;
  options.shards_per_worker = 2;
  options.worker.schema = logblock::RequestLogSchema();
  options.worker.replicated = true;
  options.worker.wal_dir = dir.string();
  options.worker.wal.sync_policy = consensus::SyncPolicy::kNever;
  options.engine.prefetch_threads = 2;
  options.engine.cache_options.ssd_dir.clear();
  auto opened = Cluster::Open(&store, options);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  std::unique_ptr<Cluster> cluster = std::move(opened).value();

  workload::LogGenerator gen(21);
  std::map<uint64_t, uint64_t> acked;
  for (int round = 0; round < 3; ++round) {
    for (int i = 0; i < 50; ++i) {
      const uint64_t tenant = 1 + i % 4;
      const int64_t ts = (round * 50 + i) * 100;
      ASSERT_TRUE(
          cluster->Write(tenant, gen.Generate(tenant, 100, ts, ts + 100)).ok());
      acked[tenant] += 100;
    }
    // A write is acked once node 0 applied it; let the followers apply it
    // too, so the watermark is not clamped below any replica's log.
    for (uint32_t w = 0; w < cluster->num_workers(); ++w) {
      cluster->worker(w)->PumpRaft(500);
    }
    auto built = cluster->RunBuildPass();
    ASSERT_TRUE(built.ok()) << built.status().ToString();
  }

  for (uint32_t w = 0; w < cluster->num_workers(); ++w) {
    Worker* worker = cluster->worker(w);
    EXPECT_EQ(worker->row_store()->row_count(), 0u) << "worker " << w;
    EXPECT_EQ(worker->row_store()->ApproximateBytes(), 0u) << "worker " << w;
    for (int node = 0; node < 3; ++node) {
      const consensus::RaftNode& raft = worker->raft()->node(node);
      EXPECT_GT(raft.log_base_index(), 0u)
          << "worker " << w << " node " << node << " archived nothing";
      EXPECT_EQ(raft.log_size(), raft.log_base_index())
          << "worker " << w << " node " << node;
    }
  }
  for (const auto& [tenant, rows] : acked) {
    query::LogQuery query;
    query.tenant_id = tenant;
    query.agg = query::Aggregate::Count();
    auto result = cluster->Query(query);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_EQ(result->agg.rows, rows) << "tenant " << tenant;
  }

  cluster.reset();
  fs::remove_all(dir);
}

int ThreadCount() {
  namespace fs = std::filesystem;
  return static_cast<int>(std::distance(
      fs::directory_iterator("/proc/self/task"), fs::directory_iterator()));
}

// The thread count once it holds still: a thread stays listed in
// /proc/self/task for a moment after its join returns.
int SettledThreadCount() {
  int count = ThreadCount();
  for (;;) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    const int again = ThreadCount();
    if (again == count) return count;
    count = again;
  }
}

TEST(ClusterEngineTest, OpenStartsOneEnginesThreadsAtAnySize) {
  // The deployment runs every read on one engine, so Open starts that
  // engine's query pool and prefetch service and nothing per worker.
  const query::EngineOptions defaults;
  const int engine_threads = defaults.query_threads + defaults.prefetch_threads;
  for (uint32_t num_workers : {1u, 4u, 12u}) {
    objectstore::MemoryObjectStore store;
    ClusterDeploymentOptions options;
    options.num_workers = num_workers;
    const int before = SettledThreadCount();
    auto cluster = Cluster::Open(&store, options);
    ASSERT_TRUE(cluster.ok()) << cluster.status().ToString();
    EXPECT_EQ(SettledThreadCount() - before, engine_threads)
        << num_workers << " workers";
  }
}

TEST(ClusterEngineTest, DeadWorkerRefusesReadBeforeAnyBlockIsRead) {
  // The liveness rule runs before the archived scan: between a kill and
  // its failover a read is refused without one object-store read.
  constexpr int64_t kHistory = 3600ll * 1'000'000;
  objectstore::MemoryObjectStore store;
  ClusterDeploymentOptions options;
  options.num_workers = 4;
  options.shards_per_worker = 2;
  options.worker.schema = logblock::RequestLogSchema();
  options.worker.builder.max_rows_per_logblock = 300;
  options.engine.cache_options.ssd_dir.clear();
  auto opened = Cluster::Open(&store, options);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  std::unique_ptr<Cluster> cluster = std::move(opened).value();

  workload::LogGenerator gen(23);
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(cluster->Write(0, gen.Generate(0, 300, 0, kHistory)).ok());
  }
  auto built = cluster->RunBuildPass();
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  ASSERT_GT(*built, 0);

  query::LogQuery query;
  query.tenant_id = 0;
  query.ts_min = 0;
  query.ts_max = kHistory;
  auto object_reads = [&] {
    return store.stats().gets.load() + store.stats().range_gets.load();
  };
  ASSERT_TRUE(cluster->KillWorker(1).ok());
  const uint64_t reads_before = object_reads();
  auto refused = cluster->Query(query);
  ASSERT_FALSE(refused.ok());
  EXPECT_TRUE(refused.status().IsUnavailable()) << refused.status().ToString();
  EXPECT_EQ(object_reads(), reads_before);

  // After the failover the same read scans the archived blocks.
  auto cycle = cluster->RunControlCycle();
  ASSERT_TRUE(cycle.ok()) << cycle.status().ToString();
  auto answered = cluster->Query(query);
  ASSERT_TRUE(answered.ok()) << answered.status().ToString();
  EXPECT_GT(answered->stats.logblocks_total, 0u);
  EXPECT_GT(object_reads(), reads_before);
}

TEST(ClusterEngineTest, WorkerKillKeepsTheSsdTier) {
  // The engine's SSD tier outlives any worker: a kill and its failover
  // leave the directory and its spilled blocks in place, and later reads
  // are served from them.
  namespace fs = std::filesystem;
  constexpr int64_t kHistory = 3600ll * 1'000'000;
  const fs::path ssd_dir =
      fs::temp_directory_path() /
      ("cluster_test_ssd_" + std::to_string(::getpid()));
  fs::remove_all(ssd_dir);
  metrics::MetricRegistry registry;
  objectstore::MemoryObjectStore store;
  ClusterDeploymentOptions options;
  options.num_workers = 4;
  options.shards_per_worker = 2;
  options.worker.schema = logblock::RequestLogSchema();
  options.worker.builder.max_rows_per_logblock = 300;
  options.engine.prefetch_threads = 2;
  options.engine.io_block_size = 4096;
  // 32 KiB per worker: far below the archive, so reads spill to the SSD.
  options.engine.cache_options.memory_capacity_bytes = 32 << 10;
  options.engine.cache_options.ssd_dir = ssd_dir.string();
  options.registry = &registry;
  auto opened = Cluster::Open(&store, options);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  std::unique_ptr<Cluster> cluster = std::move(opened).value();

  workload::LogGenerator gen(17);
  std::vector<reference::TenantRows> written;
  for (uint64_t tenant = 0; tenant < 3; ++tenant) {
    for (int i = 0; i < 8; ++i) {
      written.push_back({tenant, gen.Generate(tenant, 200, 0, kHistory)});
      ASSERT_TRUE(cluster->Write(tenant, written.back().batch).ok());
    }
  }
  auto built = cluster->RunBuildPass();
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  ASSERT_GT(*built, 0);

  auto query_of = [&](uint64_t tenant) {
    query::LogQuery query;
    query.tenant_id = tenant;
    query.ts_min = 0;
    query.ts_max = kHistory;
    return query;
  };
  for (int round = 0;
       round < 8 && cluster->engine()->block_manager()->ssd_used_bytes() == 0;
       ++round) {
    for (uint64_t tenant = 0; tenant < 3; ++tenant) {
      ASSERT_TRUE(cluster->Query(query_of(tenant)).ok());
    }
  }
  ASSERT_GT(cluster->engine()->block_manager()->ssd_used_bytes(), 0u);

  ASSERT_TRUE(cluster->KillWorker(1).ok());
  auto cycle = cluster->RunControlCycle();
  ASSERT_TRUE(cycle.ok()) << cycle.status().ToString();
  ASSERT_EQ(cycle->failovers.size(), 1u);
  EXPECT_TRUE(fs::is_directory(ssd_dir));

  auto ssd_hits = [&] {
    return registry.SnapshotMap()["cache.hits{tier=ssd}"];
  };
  const int64_t hits_before = ssd_hits();
  for (uint64_t tenant = 0; tenant < 3; ++tenant) {
    const query::LogQuery query = query_of(tenant);
    auto result = cluster->Query(query);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    reference::ExpectMatchesReference(reference::Evaluate(written, query),
                                      query, *result,
                                      "tenant " + std::to_string(tenant));
  }
  EXPECT_GT(ssd_hits(), hits_before);

  cluster.reset();
  fs::remove_all(ssd_dir);
}

}  // namespace
}  // namespace logstore::cluster
