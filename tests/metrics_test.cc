// Unified metrics registry tests (DESIGN.md §14).
//
// Three layers under test: the registry itself (canonical keys, idempotent
// cell resolution, snapshot consistency under concurrent increments), the
// dual-write Counter that lets the legacy per-module stats structs mirror
// into the registry without changing their reset semantics, and the
// end-to-end wiring — one Snapshot() of a registry plumbed through a full
// deployment must surface counters from every stats producer in the
// codebase. The cluster write-path test doubles as the regression fixture
// for the old global-metrics-lock bug: Cluster::Write used to serialize
// every broker write (twice) on one mutex; now concurrent writers touch
// only lock-free cells and the totals must still be exact.

#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "cluster/cluster.h"
#include "common/metrics.h"
#include "core/logstore.h"
#include "objectstore/fault_injecting_object_store.h"
#include "objectstore/memory_object_store.h"
#include "query/engine.h"
#include "workload/loggen.h"

namespace logstore {
namespace {

namespace fs = std::filesystem;
using metrics::MetricRegistry;

// ---------------------------------------------------------------------------
// Registry core.
// ---------------------------------------------------------------------------

TEST(MetricRegistryTest, CanonicalKeySortsLabels) {
  EXPECT_EQ(MetricRegistry::CanonicalKey("cache.hits", {}), "cache.hits");
  EXPECT_EQ(MetricRegistry::CanonicalKey("cache.hits", {{"tier", "ssd"}}),
            "cache.hits{tier=ssd}");
  EXPECT_EQ(MetricRegistry::CanonicalKey("x", {{"z", "1"}, {"a", "2"}}),
            MetricRegistry::CanonicalKey("x", {{"a", "2"}, {"z", "1"}}));
}

TEST(MetricRegistryTest, SameNameAndLabelsResolveToSameCell) {
  MetricRegistry registry;
  auto* a = registry.Counter("m.count", {{"tenant", "7"}});
  auto* b = registry.Counter("m.count", {{"tenant", "7"}});
  EXPECT_EQ(a, b);
  // Different labels (or label order-insensitivity) behave as documented.
  EXPECT_NE(a, registry.Counter("m.count", {{"tenant", "8"}}));
  EXPECT_EQ(registry.Counter("m.x", {{"a", "1"}, {"b", "2"}}),
            registry.Counter("m.x", {{"b", "2"}, {"a", "1"}}));
  EXPECT_EQ(registry.size(), 3u);
}

TEST(MetricRegistryTest, GaugesAreLastWriteWins) {
  MetricRegistry registry;
  auto* depth = registry.Gauge("q.depth");
  depth->store(17);
  depth->store(5);
  const auto snap = registry.SnapshotMap();
  EXPECT_EQ(snap.at("q.depth"), 5);
}

TEST(MetricRegistryTest, ExportersEmitEveryMetric) {
  MetricRegistry registry;
  registry.Counter("a.count")->fetch_add(3);
  registry.Gauge("b.depth", {{"tier", "ssd"}})->store(-2);
  const std::string text = registry.ToText();
  EXPECT_NE(text.find("a.count 3"), std::string::npos);
  EXPECT_NE(text.find("b.depth{tier=ssd} -2"), std::string::npos);
  const std::string json = registry.ToJson();
  EXPECT_NE(json.find("\"a.count\""), std::string::npos);
  EXPECT_NE(json.find("\"b.depth{tier=ssd}\""), std::string::npos);
}

// Concurrent increments + registrations + snapshots: totals exact after
// join, snapshots never torn, counters monotonic across snapshots. Run
// under TSan this is also the registry's data-race proof.
TEST(MetricRegistryTest, SnapshotsAreConsistentUnderConcurrentIncrements) {
  MetricRegistry registry;
  auto* shared = registry.Counter("t.shared");
  constexpr int kThreads = 8;
  constexpr uint64_t kPerThread = 20000;

  std::atomic<bool> stop{false};
  std::thread snapshotter([&] {
    int64_t last = 0;
    while (!stop.load(std::memory_order_acquire)) {
      const auto snap = registry.SnapshotMap();
      const auto it = snap.find("t.shared");
      if (it == snap.end()) continue;
      EXPECT_GE(it->second, last) << "counter went backwards";
      EXPECT_LE(it->second,
                static_cast<int64_t>(kThreads * kPerThread));
      last = it->second;
    }
  });

  std::vector<std::thread> writers;
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([&, t] {
      // Each thread also registers its own cell mid-flight, so snapshots
      // race with registration, not just with increments.
      auto* own = registry.Counter("t.own", {{"thread", std::to_string(t)}});
      for (uint64_t i = 0; i < kPerThread; ++i) {
        shared->fetch_add(1, std::memory_order_relaxed);
        own->fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  for (auto& writer : writers) writer.join();
  stop.store(true, std::memory_order_release);
  snapshotter.join();

  EXPECT_EQ(shared->load(), kThreads * kPerThread);
  const auto snap = registry.SnapshotMap();
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(snap.at("t.own{thread=" + std::to_string(t) + "}"),
              static_cast<int64_t>(kPerThread));
  }
}

// ---------------------------------------------------------------------------
// Dual-write Counter (the legacy-stats bridge).
// ---------------------------------------------------------------------------

TEST(DualWriteCounterTest, MirrorsIncrementsButNotResets) {
  MetricRegistry registry;
  metrics::Counter counter;
  ++counter;  // pre-Bind increment stays local
  counter.Bind(registry.Counter("m.x"));
  counter += 4;
  counter.fetch_add(5);
  EXPECT_EQ(counter.load(), 10u);
  EXPECT_EQ(registry.Counter("m.x")->load(), 9u);

  // Legacy Reset() semantics: assignment rewinds the local value only; the
  // registry cell is cumulative by contract.
  counter = 0;
  EXPECT_EQ(counter.load(), 0u);
  EXPECT_EQ(registry.Counter("m.x")->load(), 9u);
  ++counter;
  EXPECT_EQ(counter.load(), 1u);
  EXPECT_EQ(registry.Counter("m.x")->load(), 10u);
  // Implicit conversion keeps std::atomic call sites source-compatible.
  const uint64_t value = counter;
  EXPECT_EQ(value, 1u);
}

// ---------------------------------------------------------------------------
// End-to-end wiring: one snapshot surfaces every producer.
// ---------------------------------------------------------------------------

bool HasMetricWithPrefix(const std::map<std::string, int64_t>& snap,
                         const std::string& prefix) {
  for (const auto& [key, value] : snap) {
    (void)value;
    if (key.rfind(prefix, 0) == 0) return true;
  }
  return false;
}

TEST(MetricsIntegrationTest, OneSnapshotSurfacesEveryProducer) {
  MetricRegistry registry;
  const fs::path dir =
      fs::temp_directory_path() /
      ("metrics_e2e_" + std::to_string(::getpid()));
  fs::remove_all(dir);

  {
    // A durable replicated deployment: exercises the objectstore, cache,
    // prefetch, query, raft, WAL, monitor and cluster layers.
    auto store = std::make_unique<objectstore::MemoryObjectStore>(&registry);
    cluster::ClusterDeploymentOptions options;
    options.num_workers = 2;
    options.shards_per_worker = 2;
    options.worker.schema = logblock::RequestLogSchema();
    options.worker.replicated = true;
    options.worker.wal_dir = (dir / "cluster").string();
    options.worker.wal.sync_policy = consensus::SyncPolicy::kNever;
    options.worker.builder.max_rows_per_logblock = 100;
    options.engine.prefetch_threads = 1;
    options.engine.cache_options.ssd_dir.clear();
    options.registry = &registry;
    auto opened = cluster::Cluster::Open(store.get(), options);
    ASSERT_TRUE(opened.ok()) << opened.status().ToString();
    auto cluster = std::move(opened).value();

    workload::LogGenerator gen(11);
    for (uint64_t tenant = 1; tenant <= 2; ++tenant) {
      for (int i = 0; i < 4; ++i) {
        ASSERT_TRUE(
            cluster->Write(tenant, gen.Generate(tenant, 50, 0, 1'000'000))
                .ok());
      }
    }
    ASSERT_TRUE(cluster->RunBuildPass().ok());
    query::LogQuery query;
    query.tenant_id = 1;
    // A cluster read records `query.*` exactly once, however many blocks
    // it scanned.
    const int64_t queries_before = registry.SnapshotMap().at("query.queries");
    ASSERT_TRUE(cluster->Query(query).ok());
    EXPECT_EQ(registry.SnapshotMap().at("query.queries"), queries_before + 1);
    ASSERT_TRUE(cluster->Query(query).ok());
    EXPECT_EQ(registry.SnapshotMap().at("query.queries"), queries_before + 2);
    cluster->RunTrafficControl();

    // The FaultStats producer (no cluster layer constructs one).
    objectstore::FaultInjectionOptions fault_options;
    fault_options.registry = &registry;
    objectstore::FaultInjectingObjectStore faulty(
        std::make_unique<objectstore::MemoryObjectStore>(), fault_options);
    ASSERT_TRUE(faulty.Put("k", "v").ok());

    // The LogStore facade (core.*), over its own in-memory store.
    LogStoreOptions db_options;
    db_options.registry = &registry;
    auto db = LogStore::Open(db_options);
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    ASSERT_TRUE((*db)->Append(1, gen.Generate(1, 20, 0, 1'000'000)).ok());
    ASSERT_TRUE((*db)->Flush().ok());
    query::LogQuery db_query;
    db_query.tenant_id = 1;
    ASSERT_TRUE((*db)->Query(db_query).ok());
    (*db)->GetStats();

    const auto snap = registry.SnapshotMap();
    // Every legacy stats producer must be represented in this one map.
    const std::vector<std::string> producers = {
        "objectstore.",       // ObjectStoreStats
        "objectstore.retry.", // RetryStats
        "objectstore.fault.", // FaultStats
        "cache.",             // CacheStats (memory/ssd/object tiers)
        "prefetch.",          // prefetch service
        "query.",             // QueryStats / BlockExecStats
        "raft.",              // raft replication counters
        "wal.",               // DurableLog counters
        "monitor.",           // MonitorStats
        "cluster.",           // broker routing + availability
        "core.",              // LogStore facade
    };
    for (const std::string& prefix : producers) {
      EXPECT_TRUE(HasMetricWithPrefix(snap, prefix))
          << "no metric registered under '" << prefix << "'";
    }
    EXPECT_GE(snap.size(), 40u)
        << "expected a full deployment to register at least 40 distinct "
        << "metrics, got "
        << snap.size() << ":\n"
        << registry.ToText();

    // Spot-check that the wiring carries real traffic, not just bindings.
    EXPECT_GT(snap.at("cluster.rows_routed{tenant=1}"), 0);
    EXPECT_GT(snap.at("wal.records_appended"), 0);
    EXPECT_GT(snap.at("core.rows_appended"), 0);
    EXPECT_GT(snap.at("query.queries"), 0);
    // Cluster reads account under `query.*`, so the only `cluster.*`
    // families are broker routing and availability; no read cells of their
    // own are registered.
    for (const auto& [key, value] : snap) {
      (void)value;
      if (key.rfind("cluster.", 0) != 0) continue;
      EXPECT_TRUE(key.rfind("cluster.rows_routed", 0) == 0 ||
                  key.rfind("cluster.availability.", 0) == 0)
          << "unexpected cluster metric " << key;
    }
  }
  fs::remove_all(dir);
}

// ---------------------------------------------------------------------------
// Cluster write path: exact accounting with no global lock (the regression
// fixture for the metrics_mu_ double-acquisition bug).
// ---------------------------------------------------------------------------

TEST(MetricsIntegrationTest, ConcurrentClusterWritesAccountExactly) {
  MetricRegistry registry;
  auto store = std::make_unique<objectstore::MemoryObjectStore>(&registry);
  cluster::ClusterDeploymentOptions options;
  options.num_workers = 4;
  options.shards_per_worker = 2;
  options.worker.schema = logblock::RequestLogSchema();
  options.registry = &registry;
  auto opened = cluster::Cluster::Open(store.get(), options);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  auto cluster = std::move(opened).value();

  constexpr int kThreads = 8;
  constexpr int kWritesPerThread = 40;
  constexpr uint32_t kRowsPerWrite = 25;
  std::vector<std::thread> writers;
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([&, t] {
      workload::LogGenerator gen(100 + static_cast<uint64_t>(t));
      const uint64_t tenant = static_cast<uint64_t>(t % 4);
      for (int i = 0; i < kWritesPerThread; ++i) {
        EXPECT_TRUE(cluster
                        ->Write(tenant, gen.Generate(tenant, kRowsPerWrite, 0,
                                                     1'000'000))
                        .ok());
      }
    });
  }
  for (auto& writer : writers) writer.join();

  // Every row must be accounted once on each axis: per tenant, per shard,
  // per worker. Under the old global-lock counters this held trivially;
  // with lock-free cells it is the exactness proof (and under TSan, the
  // data-race proof for the whole broker write path).
  const int64_t expected = static_cast<int64_t>(kThreads) * kWritesPerThread *
                           kRowsPerWrite;
  const auto snap = registry.SnapshotMap();
  int64_t by_tenant = 0, by_shard = 0, by_worker = 0;
  for (const auto& [key, value] : snap) {
    if (key.rfind("cluster.rows_routed{tenant=", 0) == 0) by_tenant += value;
    if (key.rfind("cluster.rows_routed{shard=", 0) == 0) by_shard += value;
    if (key.rfind("cluster.rows_routed{worker=", 0) == 0) by_worker += value;
  }
  EXPECT_EQ(by_tenant, expected);
  EXPECT_EQ(by_shard, expected);
  EXPECT_EQ(by_worker, expected);

  // Traffic control consumes deltas: a second cycle with no traffic in
  // between must see none (the baselines advanced with the first).
  cluster->RunTrafficControl();
  const auto before = registry.SnapshotMap();
  cluster->RunTrafficControl();
  EXPECT_EQ(registry.SnapshotMap(), before);
}

}  // namespace
}  // namespace logstore
