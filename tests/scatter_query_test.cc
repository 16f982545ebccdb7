// Cluster read-path property tests: a cluster query must answer as the
// test-only reference evaluator (reference_query.h) does over every row
// written, archived and realtime alike, across a seeded (limit x threads x
// placement) matrix on one shared tenant-fair query pool; its bytes must
// not move when the placement does, with realtime rows merged in a
// deterministic placement-independent order; and a dead worker or an
// object-store brownout must make it retryable, never partial.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "cluster/cluster.h"
#include "common/clock.h"
#include "objectstore/fault_injecting_object_store.h"
#include "objectstore/memory_object_store.h"
#include "query/engine.h"
#include "reference_query.h"
#include "workload/loggen.h"
#include "workload/querygen.h"

namespace logstore::cluster {
namespace {

class ScatterQueryTest : public ::testing::TestWithParam<int> {
 protected:
  static constexpr int64_t kHistory = 2ll * 3600 * 1'000'000;

  struct Deployment {
    std::unique_ptr<objectstore::MemoryObjectStore> store;
    std::unique_ptr<Cluster> cluster;
    std::vector<reference::TenantRows> written;  // every acked batch
    size_t archived_writes = 0;  // written[0, archived_writes) is archived
  };

  // A 4-worker deployment with small LogBlocks (every tenant spans many
  // blocks written through many shards), seeded archived data, and a tail
  // of realtime rows left un-archived.
  Deployment OpenDeployment(int query_threads,
                            bool with_realtime_tail = true) {
    Deployment deployment;
    deployment.store = std::make_unique<objectstore::MemoryObjectStore>();
    ClusterDeploymentOptions options;
    options.num_workers = 4;
    options.shards_per_worker = 2;
    options.worker.schema = logblock::RequestLogSchema();
    options.worker.builder.max_rows_per_logblock = 300;
    options.worker.builder.block_options.rows_per_block = 128;
    options.engine.query_threads = query_threads;
    options.engine.prefetch_threads = 2;
    options.engine.io_block_size = 4096;
    options.engine.cache_options.memory_capacity_bytes = 4 << 20;
    options.engine.cache_options.ssd_dir.clear();
    auto cluster = Cluster::Open(deployment.store.get(), options);
    EXPECT_TRUE(cluster.ok()) << cluster.status().ToString();
    deployment.cluster = std::move(cluster).value();

    workload::LogGenerator gen(90 + static_cast<uint64_t>(GetParam()));
    auto write = [&](uint64_t tenant, uint32_t rows) {
      deployment.written.push_back(
          {tenant, gen.Generate(tenant, rows, 0, kHistory)});
      EXPECT_TRUE(
          deployment.cluster->Write(tenant, deployment.written.back().batch)
              .ok());
    };
    for (uint64_t tenant = 0; tenant < 3; ++tenant) {
      // Many small writes spread rows across the workers' shards.
      for (int i = 0; i < 12; ++i) write(tenant, 200);
    }
    auto built = deployment.cluster->RunBuildPass();
    EXPECT_TRUE(built.ok()) << built.status().ToString();
    EXPECT_GT(*built, 0);
    deployment.archived_writes = deployment.written.size();
    if (with_realtime_tail) {
      for (uint64_t tenant = 0; tenant < 3; ++tenant) {
        for (int i = 0; i < 6; ++i) write(tenant, 25);
      }
    }
    return deployment;
  }

  // Full byte-identity: columns, row contents, row ORDER, and every
  // deterministic stat (elapsed_us excepted — wall clock).
  void ExpectIdentical(const query::QueryResult& expected,
                       const query::QueryResult& actual,
                       const std::string& label) {
    EXPECT_EQ(actual.columns, expected.columns) << label;
    ASSERT_EQ(actual.rows.size(), expected.rows.size()) << label;
    for (size_t r = 0; r < expected.rows.size(); ++r) {
      EXPECT_EQ(actual.rows[r], expected.rows[r]) << label << " row " << r;
    }
    EXPECT_EQ(actual.stats.logblocks_total, expected.stats.logblocks_total)
        << label;
    EXPECT_EQ(actual.stats.logblocks_pruned, expected.stats.logblocks_pruned)
        << label;
    EXPECT_EQ(actual.stats.logblocks_sma_skipped,
              expected.stats.logblocks_sma_skipped)
        << label;
    EXPECT_EQ(actual.stats.realtime_rows, expected.stats.realtime_rows)
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

  void CompareMatrix(const Deployment& deployment, const std::string& phase) {
    workload::QueryGenerator qgen(static_cast<uint64_t>(GetParam()));
    const uint64_t tenant = static_cast<uint64_t>(GetParam()) % 3;
    for (const auto& base_query : qgen.TenantQuerySet(tenant, 0, kHistory)) {
      for (uint32_t limit : {0u, 1u, 7u, 100u}) {
        query::LogQuery query = base_query;
        query.limit = limit;
        const std::string label = phase + " limit=" + std::to_string(limit);
        auto result = deployment.cluster->Query(query);
        ASSERT_TRUE(result.ok()) << result.status().ToString();
        reference::ExpectMatchesReference(
            reference::Evaluate(deployment.written, query), query, *result,
            label);
      }
    }
  }
};

TEST_P(ScatterQueryTest, MatchesReference) {
  for (int threads : {1, 4, 8}) {
    auto deployment = OpenDeployment(threads);
    CompareMatrix(deployment, "threads=" + std::to_string(threads));
  }
}

TEST_P(ScatterQueryTest, AggregationPushdownMatchesReference) {
  // Aggregates fold per-block partial AggResults below the merge (§15): the
  // combined aggregate, realtime tail folded in, must equal the reference
  // over every written row.
  auto deployment = OpenDeployment(4);
  Cluster* cluster = deployment.cluster.get();

  workload::QueryGenerator qgen(static_cast<uint64_t>(GetParam()));
  const uint64_t tenant = static_cast<uint64_t>(GetParam()) % 3;
  for (const auto& base_query : qgen.TenantQuerySet(tenant, 0, kHistory)) {
    const query::Aggregate kinds[] = {
        query::Aggregate::Count(), query::Aggregate::Sum("latency"),
        query::Aggregate::Min("latency"), query::Aggregate::Max("latency"),
        query::Aggregate::GroupCount("ip")};
    for (const query::Aggregate& agg : kinds) {
      query::LogQuery query = base_query;
      query.limit = 0;
      query.select_columns.clear();
      query.agg = agg;
      const std::string label = "agg kind=" +
                                std::to_string(static_cast<int>(agg.kind));
      auto result = cluster->Query(query);
      ASSERT_TRUE(result.ok()) << result.status().ToString();
      reference::ExpectMatchesReference(
          reference::Evaluate(deployment.written, query), query, *result,
          label);

      // A limit on an aggregate is presentation-only: the read must not
      // arm the limit tracker or cut any block's scan.
      query.limit = 5;
      auto limited = cluster->Query(query);
      ASSERT_TRUE(limited.ok()) << limited.status().ToString();
      reference::ExpectSameAgg(result->agg, limited->agg,
                               label + " (limit=5)");
    }
  }
}

TEST_P(ScatterQueryTest, MatchesAcrossPlacementChanges) {
  // Placement axis of the matrix: results must not depend on which worker
  // owns which shard. All rows are archived first (realtime is lost on
  // non-durable failover, which would change the data, not just the
  // placement), then the same query matrix runs against three different
  // placements: initial, after a failover, after a second failover plus a
  // rejoin — with the archived row bytes pinned against the initial run.
  auto deployment = OpenDeployment(4, /*with_realtime_tail=*/false);
  Cluster* cluster = deployment.cluster.get();

  workload::QueryGenerator qgen(static_cast<uint64_t>(GetParam()));
  const uint64_t tenant = static_cast<uint64_t>(GetParam()) % 3;
  struct Pinned {
    query::LogQuery query;
    query::QueryResult result;
  };
  std::vector<Pinned> pinned;
  for (const auto& base_query : qgen.TenantQuerySet(tenant, 0, kHistory)) {
    for (uint32_t limit : {0u, 1u, 7u, 100u}) {
      query::LogQuery query = base_query;
      query.limit = limit;
      auto result = cluster->Query(query);
      ASSERT_TRUE(result.ok()) << result.status().ToString();
      reference::ExpectMatchesReference(
          reference::Evaluate(deployment.written, query), query, *result,
          "initial limit=" + std::to_string(limit));
      pinned.push_back({query, std::move(result).value()});
    }
  }

  auto reverify = [&](const std::string& phase) {
    for (const Pinned& expected : pinned) {
      auto result = cluster->Query(expected.query);
      ASSERT_TRUE(result.ok()) << phase << ": " << result.status().ToString();
      ExpectIdentical(expected.result, *result, phase + " (vs pinned)");
    }
  };

  ASSERT_TRUE(cluster->KillWorker(1).ok());
  auto cycle = cluster->RunControlCycle();
  ASSERT_TRUE(cycle.ok()) << cycle.status().ToString();
  ASSERT_EQ(cycle->failovers.size(), 1u);
  reverify("after failover of worker 1");

  ASSERT_TRUE(cluster->KillWorker(2).ok());
  auto second = cluster->RunControlCycle();
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  reverify("after failover of worker 2");

  ASSERT_TRUE(cluster->RestartWorker(1).ok());  // rejoins empty
  reverify("after rejoin of worker 1");
}

TEST_P(ScatterQueryTest, ArchivedRowsThatFillTheLimitTakeNoRealtimeRow) {
  // A row query's realtime rows merge after its archived rows and stop at
  // the limit, so a read whose archived rows fill the limit skips the
  // realtime scans; one whose limit they do not fill still merges them.
  auto deployment = OpenDeployment(4);
  const std::vector<reference::TenantRows> archived(
      deployment.written.begin(),
      deployment.written.begin() + deployment.archived_writes);
  query::LogQuery query;
  query.tenant_id = static_cast<uint64_t>(GetParam()) % 3;
  query.ts_min = 0;
  query.ts_max = kHistory;
  for (bool with_predicate : {false, true}) {
    query.predicates.clear();
    if (with_predicate) {
      query.predicates.push_back(query::Predicate::Int64Compare(
          "latency", query::CompareOp::kGe, 100));
    }
    query.limit = 0;
    const size_t archived_matches =
        reference::Evaluate(archived, query).rows.size();
    const size_t all_matches =
        reference::Evaluate(deployment.written, query).rows.size();
    ASSERT_GT(archived_matches, 1u);
    ASSERT_GT(all_matches, archived_matches);
    for (uint32_t limit :
         {1u, static_cast<uint32_t>(archived_matches / 2),
          static_cast<uint32_t>(archived_matches),
          static_cast<uint32_t>(archived_matches + 1), 0u}) {
      query.limit = limit;
      const std::string label = "predicate=" + std::to_string(with_predicate) +
                                " limit=" + std::to_string(limit);
      auto result = deployment.cluster->Query(query);
      ASSERT_TRUE(result.ok()) << label << ": " << result.status().ToString();
      reference::ExpectMatchesReference(
          reference::Evaluate(deployment.written, query), query, *result,
          label);
      if (limit != 0 && limit <= archived_matches) {
        // Archived rows only: the answer the reference gives over the
        // archived writes alone.
        EXPECT_EQ(result->stats.realtime_rows, 0u) << label;
        reference::ExpectMatchesReference(reference::Evaluate(archived, query),
                                          query, *result, label);
      } else {
        const size_t want = limit == 0 ? all_matches : limit;
        EXPECT_EQ(result->stats.realtime_rows, want - archived_matches)
            << label;
      }
    }
  }
}

TEST_P(ScatterQueryTest, DeadOwnerIsRetryableNotPartial) {
  auto deployment = OpenDeployment(4);
  Cluster* cluster = deployment.cluster.get();
  query::LogQuery query;
  query.tenant_id = static_cast<uint64_t>(GetParam()) % 3;
  query.ts_min = 0;
  query.ts_max = kHistory;
  auto before = cluster->Query(query);
  ASSERT_TRUE(before.ok());

  // Between a kill and the control cycle, the dead worker still owns its
  // shards: both read paths must refuse (retryable), never return a subset.
  ASSERT_TRUE(cluster->KillWorker(0).ok());
  auto scattered = cluster->Query(query);
  ASSERT_FALSE(scattered.ok());
  EXPECT_TRUE(scattered.status().IsUnavailable())
      << scattered.status().ToString();
  auto single = cluster->QuerySingleEngine(query);
  ASSERT_FALSE(single.ok());
  EXPECT_TRUE(single.status().IsUnavailable()) << single.status().ToString();

  // After the control cycle reassigns the shards, the read succeeds again
  // and still matches the single-engine path (realtime rows of worker 0
  // were lost with its non-durable store; both paths see the same world).
  auto cycle = cluster->RunControlCycle();
  ASSERT_TRUE(cycle.ok()) << cycle.status().ToString();
  auto after_scatter = cluster->Query(query);
  ASSERT_TRUE(after_scatter.ok()) << after_scatter.status().ToString();
  auto after_single = cluster->QuerySingleEngine(query);
  ASSERT_TRUE(after_single.ok()) << after_single.status().ToString();
  ExpectIdentical(*after_single, *after_scatter, "after control cycle");
}

TEST(ScatterBrownoutTest, BrownoutIsRetryableNotPartial) {
  constexpr int64_t kScatterHistory = 2ll * 3600 * 1'000'000;
  // Cluster reads during an object-store brownout (§13): every block that
  // needs a fetch fails, and the broker must surface ONE retryable
  // kUnavailable — never merge the blocks that happened to succeed into a
  // subset result. With the brownout cleared, the same query must come
  // back byte-identical to its pre-brownout answer.
  auto base_store = std::make_unique<objectstore::MemoryObjectStore>();
  objectstore::FaultInjectionOptions fault;
  fault.seed = 99;
  objectstore::FaultInjectingObjectStore store(base_store.get(), fault);

  ClusterDeploymentOptions options;
  options.num_workers = 4;
  options.shards_per_worker = 2;
  options.worker.schema = logblock::RequestLogSchema();
  options.worker.builder.max_rows_per_logblock = 300;
  options.engine.cache_options.memory_capacity_bytes = 4 << 20;
  options.engine.cache_options.ssd_dir.clear();
  // Short read-retry budget: a brownout outlasting the call deadline must
  // surface instead of being retried through.
  options.retry.max_attempts = 2;
  options.retry.initial_backoff_us = 5'000;
  options.retry.max_backoff_us = 20'000;
  options.retry.call_deadline_us = 100'000;
  auto opened = Cluster::Open(&store, options);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  std::unique_ptr<Cluster> cluster = std::move(opened).value();

  workload::LogGenerator gen(99);
  for (uint64_t tenant = 0; tenant < 3; ++tenant) {
    for (int i = 0; i < 12; ++i) {
      ASSERT_TRUE(
          cluster->Write(tenant, gen.Generate(tenant, 200, 0, kScatterHistory))
              .ok());
    }
  }
  auto built = cluster->RunBuildPass();
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  ASSERT_GT(*built, 0);

  query::LogQuery query;
  query.tenant_id = 1;
  query.ts_min = 0;
  query.ts_max = kScatterHistory;
  auto expected = cluster->Query(query);
  ASSERT_TRUE(expected.ok()) << expected.status().ToString();
  ASSERT_GT(expected->rows.size(), 0u);

  // Brownout with no scheduled end (cleared explicitly below): cold caches
  // force every block read to the store.
  const int64_t now_us = SystemClock::Default()->NowMicros();
  store.SetBrownout(now_us, now_us + 3'600'000'000LL);
  cluster->ClearQueryCaches();

  auto scattered = cluster->Query(query);
  ASSERT_FALSE(scattered.ok()) << "brownout-crossing scatter read returned "
                               << scattered->rows.size() << " rows";
  EXPECT_TRUE(scattered.status().IsUnavailable())
      << scattered.status().ToString();
  auto single = cluster->QuerySingleEngine(query);
  ASSERT_FALSE(single.ok());
  EXPECT_TRUE(single.status().IsUnavailable()) << single.status().ToString();
  EXPECT_GT(store.fault_stats().brownout_rejections.load(), 0u);

  // Brownout lifts: byte-identical to the pre-brownout answer on both
  // paths — the refusals above were purely retryable.
  store.SetBrownout(0, 0);
  auto after = cluster->Query(query);
  ASSERT_TRUE(after.ok()) << after.status().ToString();
  EXPECT_EQ(after->columns, expected->columns);
  ASSERT_EQ(after->rows.size(), expected->rows.size());
  for (size_t r = 0; r < expected->rows.size(); ++r) {
    EXPECT_EQ(after->rows[r], expected->rows[r]) << "row " << r;
  }
  auto after_single = cluster->QuerySingleEngine(query);
  ASSERT_TRUE(after_single.ok()) << after_single.status().ToString();
  ASSERT_EQ(after_single->rows.size(), expected->rows.size());
}

TEST(RealtimeMergeTest, OrderIsPlacementIndependentAndAccounted) {
  workload::LogGenerator gen(7);
  logblock::RowBatch a = gen.Generate(1, 40, 0, 1'000'000);
  logblock::RowBatch b = gen.Generate(1, 40, 0, 1'000'000);

  query::LogQuery query;
  query.tenant_id = 1;
  query.ts_min = 0;
  query.ts_max = 1'000'000;

  // The same rows distributed across workers (1,2) and across workers
  // (2,1): identical merged bytes — the order contract is placement-
  // independent.
  query::QueryResult forward;
  ASSERT_TRUE(query::MergeRealtimeRows({{1, a}, {2, b}}, query, &forward).ok());
  query::QueryResult reversed;
  ASSERT_TRUE(query::MergeRealtimeRows({{1, b}, {2, a}}, query, &reversed).ok());
  EXPECT_EQ(forward.columns, reversed.columns);
  ASSERT_EQ(forward.rows.size(), reversed.rows.size());
  EXPECT_EQ(forward.rows, reversed.rows);

  // Realtime rows are accounted, not undercounted: both counters cover
  // every appended row.
  EXPECT_EQ(forward.stats.realtime_rows, 80u);
  EXPECT_EQ(forward.stats.exec.rows_matched, 80u);
  EXPECT_EQ(forward.rows.size(), 80u);

  // Timestamps ascend (the leading sort key), so the realtime section has
  // one defined order regardless of arrival.
  const int ts_col = 1;  // RequestLogSchema: tenant_id, ts, ...
  ASSERT_EQ(forward.columns[ts_col], "ts");
  for (size_t r = 1; r < forward.rows.size(); ++r) {
    EXPECT_LE(forward.rows[r - 1][ts_col].i, forward.rows[r][ts_col].i);
  }

  // The limit trims AFTER the deterministic merge: the first `limit` rows
  // of the merged order, not whichever batch was appended first.
  query::LogQuery limited = query;
  limited.limit = 10;
  query::QueryResult trimmed;
  ASSERT_TRUE(
      query::MergeRealtimeRows({{2, b}, {1, a}}, limited, &trimmed).ok());
  ASSERT_EQ(trimmed.rows.size(), 10u);
  EXPECT_EQ(trimmed.stats.realtime_rows, 10u);
  for (size_t r = 0; r < trimmed.rows.size(); ++r) {
    EXPECT_EQ(trimmed.rows[r], forward.rows[r]) << "row " << r;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ScatterQueryTest, ::testing::Range(1, 4));

}  // namespace
}  // namespace logstore::cluster
