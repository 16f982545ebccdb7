// Seeded query-during-failover harness (a TSan target): concurrent
// Cluster::Query against RunControlCycle kill/recover/rejoin loops. The
// read-path contract under test (§12): every concurrent query returns
// either bytes IDENTICAL to the quiescent oracle — content and order — or
// a retryable kUnavailable. Never a partial result, never a crash, never a
// torn merge.
//
// The oracle stays valid across failovers because the deployment is
// durable + replicated (the victim's un-archived tail is re-ingested into
// survivors, so the row multiset is preserved) and the realtime merge
// order is placement-independent (so the row SEQUENCE is preserved too).
//
// Seeds default to a quick smoke count; CI raises CLUSTER_READ_SEEDS.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "cluster/cluster.h"
#include "common/random.h"
#include "objectstore/memory_object_store.h"
#include "test_env.h"

namespace logstore::cluster {
namespace {

namespace fs = std::filesystem;

using logblock::RowBatch;
using logblock::Value;
using testenv::MarkerRow;

int SeedCount() {
  return testenv::SeedCount("CLUSTER_READ_SEEDS", 2);  // CI raises this
}

TEST(ClusterReadFailoverTest, ConcurrentQueriesSeeOracleBytesOrRetryable) {
  constexpr uint32_t kWorkers = 3;
  constexpr int kTenants = 3;
  constexpr int kRounds = 4;

  for (int seed = 1; seed <= SeedCount(); ++seed) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    Random rng(static_cast<uint64_t>(seed) * 7919);

    const fs::path dir = testenv::UniqueTempDir(
        "cluster_read_failover", static_cast<uint64_t>(seed));
    auto store = std::make_unique<objectstore::MemoryObjectStore>();
    ClusterDeploymentOptions options;
    options.num_workers = kWorkers;
    options.shards_per_worker = 2;
    options.worker.schema = logblock::RequestLogSchema();
    options.worker.replicated = true;
    options.worker.wal_dir = dir.string();
    options.worker.builder.max_rows_per_logblock = 40;
    options.engine.query_threads = 4;
    options.engine.prefetch_threads = 2;
    options.engine.io_block_size = 4096;
    options.engine.cache_options.memory_capacity_bytes = 4 << 20;
    options.engine.cache_options.ssd_dir.clear();
    auto opened = Cluster::Open(store.get(), options);
    ASSERT_TRUE(opened.ok()) << opened.status().ToString();
    std::unique_ptr<Cluster> cluster = std::move(opened).value();

    // Acked data: an archived body plus an un-archived realtime tail per
    // tenant, so concurrent queries exercise both the archived-scan and the
    // realtime-merge halves while failovers move the tail between workers.
    for (uint64_t tenant = 0; tenant < kTenants; ++tenant) {
      for (int i = 0; i < 60; ++i) {
        ASSERT_TRUE(cluster
                        ->Write(tenant, MarkerRow(tenant, 1000 * i,
                                                  "t" + std::to_string(tenant) +
                                                      "-a" + std::to_string(i)))
                        .ok());
      }
    }
    auto built = cluster->RunBuildPass();
    ASSERT_TRUE(built.ok()) << built.status().ToString();
    ASSERT_GT(*built, 0);
    for (uint64_t tenant = 0; tenant < kTenants; ++tenant) {
      for (int i = 0; i < 20; ++i) {
        ASSERT_TRUE(cluster
                        ->Write(tenant, MarkerRow(tenant, 100'000 + 1000 * i,
                                                  "t" + std::to_string(tenant) +
                                                      "-r" + std::to_string(i)))
                        .ok());
      }
    }

    // Quiescent oracle: the exact bytes every successful concurrent query
    // must reproduce.
    std::vector<query::LogQuery> queries(kTenants);
    std::vector<query::QueryResult> oracle(kTenants);
    for (int tenant = 0; tenant < kTenants; ++tenant) {
      queries[tenant].tenant_id = static_cast<uint64_t>(tenant);
      queries[tenant].ts_min = 0;
      queries[tenant].ts_max = 1'000'000'000;
      auto result = cluster->Query(queries[tenant]);
      ASSERT_TRUE(result.ok()) << result.status().ToString();
      ASSERT_EQ(result->rows.size(), 80u);
      oracle[tenant] = std::move(result).value();
    }

    std::atomic<bool> stop{false};
    std::atomic<uint64_t> successes{0};
    std::atomic<uint64_t> retryables{0};
    std::atomic<int> violations{0};
    auto reader = [&](int thread_id) {
      uint64_t tenant = static_cast<uint64_t>(thread_id) % kTenants;
      while (!stop.load(std::memory_order_acquire)) {
        auto result = cluster->Query(queries[tenant]);
        if (result.ok()) {
          if (result->rows != oracle[tenant].rows ||
              result->columns != oracle[tenant].columns) {
            ++violations;  // partial/torn result: the bug under test
          }
          ++successes;
        } else if (result.status().IsUnavailable()) {
          ++retryables;  // the documented retry contract
        } else {
          ADD_FAILURE() << "non-retryable failure: "
                        << result.status().ToString();
          ++violations;
        }
        tenant = (tenant + 1) % kTenants;
      }
    };
    std::vector<std::thread> readers;
    for (int t = 0; t < 2; ++t) readers.emplace_back(reader, t);

    // The failure loop: kill a live worker mid-queries, run the control
    // cycle (failover + WAL-tail re-ingest into survivors), let the victim
    // rejoin empty, repeat with a fresh victim.
    for (int round = 0; round < kRounds; ++round) {
      const uint32_t victim = static_cast<uint32_t>(rng.Next() % kWorkers);
      ASSERT_TRUE(cluster->KillWorker(victim).ok()) << "round " << round;
      auto cycle = cluster->RunControlCycle();
      ASSERT_TRUE(cycle.ok())
          << "round " << round << ": " << cycle.status().ToString();
      ASSERT_EQ(cycle->failovers.size(), 1u) << "round " << round;
      EXPECT_FALSE(cycle->failovers[0].tail_lost) << "round " << round;
      ASSERT_TRUE(cluster->RestartWorker(victim).ok()) << "round " << round;
      // A quiescent window between rounds so readers get successful runs
      // against the settled placement, not only retryable refusals.
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }

    stop.store(true, std::memory_order_release);
    for (auto& thread : readers) thread.join();

    EXPECT_EQ(violations.load(), 0);
    EXPECT_GT(successes.load(), 0u);
    // Final quiescent check: after all failovers the bytes still match the
    // original oracle — nothing lost, duplicated, or reordered.
    for (int tenant = 0; tenant < kTenants; ++tenant) {
      auto result = cluster->Query(queries[tenant]);
      ASSERT_TRUE(result.ok()) << result.status().ToString();
      EXPECT_EQ(result->rows, oracle[tenant].rows) << "tenant " << tenant;
      auto single = cluster->QuerySingleEngine(queries[tenant]);
      ASSERT_TRUE(single.ok()) << single.status().ToString();
      EXPECT_EQ(single->rows, oracle[tenant].rows) << "tenant " << tenant;
    }

    cluster.reset();
    store.reset();
    fs::remove_all(dir);
  }
}

}  // namespace
}  // namespace logstore::cluster
