// Random queries over archived and realtime rows, checked against the
// reference evaluator (tests/reference_query.h) through LogStore::Query and
// a two-worker Cluster::Query. Each seed writes three tenants: one whose
// rows are all archived, one whose rows are all still in the row stores,
// and one whose older rows are archived and newer rows are not, so a ts
// range can straddle the two sources. A fourth tenant has no rows.
//
// Valid queries must match the reference; invalid ones (an unknown or
// mistyped column anywhere in the query) must return InvalidArgument for
// every tenant, wherever its rows are. QUERY_FUZZ_SEEDS sets the number of
// seeds (default 3).
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "cluster/cluster.h"
#include "common/random.h"
#include "core/logstore.h"
#include "objectstore/memory_object_store.h"
#include "reference_query.h"
#include "test_env.h"
#include "workload/loggen.h"

namespace logstore {
namespace {

using query::Aggregate;
using query::CompareOp;
using query::LogQuery;
using query::Predicate;

constexpr int64_t kHour = 3600ll * 1'000'000;
constexpr uint64_t kArchived = 1;  // every row archived
constexpr uint64_t kRealtime = 2;  // every row in the row stores
constexpr uint64_t kMixed = 3;     // older rows archived, newer not
constexpr uint64_t kEmpty = 4;     // no rows
constexpr int kBatches = 6;        // per tenant, 4 h of rows each

// The same rows in a LogStore and in a two-worker Cluster, and the rows
// themselves for the reference.
class Deployments {
 public:
  explicit Deployments(uint64_t seed) {
    LogStoreOptions store_options;
    store_options.engine.query_threads = 1;  // inline block scans
    store_options.engine.prefetch_threads = 2;
    store_options.engine.cache_options.memory_capacity_bytes = 8 << 20;
    store_options.engine.cache_options.ssd_dir.clear();
    store_options.builder.max_rows_per_logblock = 250;
    store_options.builder.block_options.rows_per_block = 64;
    auto store = LogStore::Open(store_options);
    EXPECT_TRUE(store.ok()) << store.status().ToString();
    if (!store.ok()) return;
    store_ = std::move(store).value();

    cluster::ClusterDeploymentOptions options;
    options.num_workers = 2;
    options.shards_per_worker = 2;
    options.worker.schema = logblock::RequestLogSchema();
    options.worker.builder.max_rows_per_logblock = 250;
    options.worker.builder.block_options.rows_per_block = 64;
    options.engine.query_threads = 4;  // pooled block scans
    options.engine.prefetch_threads = 2;
    options.engine.cache_options.memory_capacity_bytes = 8 << 20;
    options.engine.cache_options.ssd_dir.clear();
    auto cluster = cluster::Cluster::Open(&objects_, options);
    EXPECT_TRUE(cluster.ok()) << cluster.status().ToString();
    if (!cluster.ok()) return;
    cluster_ = std::move(cluster).value();

    // Tenant kMixed's first `mixed_cut` batches are archived, in one or
    // two build passes; the rest stay realtime. The archived rows are the
    // older ones, so the boundary is a timestamp.
    Random rng(seed);
    workload::LogGenerator gen(seed);
    const int mixed_cut = 1 + static_cast<int>(rng.Uniform(kBatches - 1));
    boundary_ = mixed_cut * 4 * kHour;
    for (int b = 0; b < kBatches; ++b) {
      if (!Write(kArchived, gen, rng, b)) return;
      if (b < mixed_cut && !Write(kMixed, gen, rng, b)) return;
      if (b == mixed_cut / 2 && !Archive()) return;
    }
    if (!Archive()) return;
    for (int b = 0; b < kBatches; ++b) {
      if (!Write(kRealtime, gen, rng, b)) return;
      if (b >= mixed_cut && !Write(kMixed, gen, rng, b)) return;
    }
    ready_ = true;
  }

  bool ready() const { return ready_; }
  int64_t boundary() const { return boundary_; }
  const std::vector<reference::TenantRows>& rows() const { return rows_; }

  Result<query::QueryResult> QueryStore(const LogQuery& query) {
    return store_->Query(query);
  }
  Result<query::QueryResult> QueryCluster(const LogQuery& query) {
    return cluster_->Query(query);
  }

 private:
  bool Write(uint64_t tenant, workload::LogGenerator& gen, Random& rng,
             int b) {
    const uint32_t n = 20 + static_cast<uint32_t>(rng.Uniform(180));
    logblock::RowBatch batch =
        gen.Generate(tenant, n, b * 4 * kHour, (b + 1) * 4 * kHour);
    const Status appended = store_->Append(tenant, batch);
    EXPECT_TRUE(appended.ok()) << appended.ToString();
    const Status written = cluster_->Write(tenant, batch);
    EXPECT_TRUE(written.ok()) << written.ToString();
    rows_.push_back({tenant, std::move(batch)});
    return appended.ok() && written.ok();
  }

  bool Archive() {
    auto flushed = store_->Flush();
    EXPECT_TRUE(flushed.ok()) << flushed.status().ToString();
    auto built = cluster_->RunBuildPass();
    EXPECT_TRUE(built.ok()) << built.status().ToString();
    return flushed.ok() && built.ok();
  }

  objectstore::MemoryObjectStore objects_;
  std::unique_ptr<LogStore> store_;
  std::unique_ptr<cluster::Cluster> cluster_;
  std::vector<reference::TenantRows> rows_;
  int64_t boundary_ = 0;
  bool ready_ = false;
};

const char* const kColumns[] = {"tenant_id", "ts",   "ip",
                                "latency",   "fail", "log"};

int64_t RandomTs(Random* rng, int64_t boundary) {
  switch (rng->Uniform(7)) {
    case 0:
      return boundary;
    case 1:
      return boundary - 1;
    case 2:
      return boundary + 1;
    case 3:
      return boundary - static_cast<int64_t>(rng->Uniform(4 * kHour));
    case 4:
      return boundary + static_cast<int64_t>(rng->Uniform(4 * kHour));
    case 5:
      return rng->OneIn(2) ? 0 : kBatches * 4 * kHour;
    default:
      return static_cast<int64_t>(rng->Uniform(kBatches * 4 * kHour));
  }
}

Predicate RandomPredicate(Random* rng, int64_t boundary) {
  static const CompareOp kOps[] = {CompareOp::kEq, CompareOp::kNe,
                                   CompareOp::kLt, CompareOp::kLe,
                                   CompareOp::kGt, CompareOp::kGe};
  const CompareOp op = kOps[rng->Uniform(6)];
  switch (rng->Uniform(8)) {
    case 0:
      return Predicate::Int64Compare(
          "latency", op, static_cast<int64_t>(rng->Uniform(3000)));
    case 1:
      return Predicate::Int64Compare("ts", op, RandomTs(rng, boundary));
    case 2:
      return Predicate::Int64Compare("tenant_id", op,
                                     static_cast<int64_t>(rng->Uniform(5)));
    case 3:
      return Predicate::StringEq("fail", rng->OneIn(2) ? "true" : "false");
    case 4: {
      const uint64_t ip = rng->Uniform(80);  // 64 and up never occur
      return Predicate::StringEq("ip", "192.168." + std::to_string(ip / 16) +
                                           "." + std::to_string(ip % 16 * 8));
    }
    case 5: {
      static const char* kText[] = {"connection timeout", "GET instances",
                                    "completed",          "absenttoken",
                                    "",                   "POST /api/v1/users",
                                    "FAILED"};
      return Predicate::Match("log", kText[rng->Uniform(7)]);
    }
    case 6:
      return Predicate::Match("ip", rng->OneIn(2) ? "192" : "168 0");
    default:
      return Predicate::StringEq("log", "never a whole line");
  }
}

LogQuery RandomQuery(Random* rng, int64_t boundary) {
  static const uint32_t kLimits[] = {0, 1, 7, 100, 500};
  LogQuery query;
  query.tenant_id = 1 + rng->Uniform(3);
  if (!rng->OneIn(4)) {
    query.ts_min = rng->OneIn(5) ? INT64_MIN : RandomTs(rng, boundary);
    query.ts_max = rng->OneIn(5) ? INT64_MAX : RandomTs(rng, boundary);
  }
  for (uint64_t p = rng->Uniform(3); p > 0; --p) {
    query.predicates.push_back(RandomPredicate(rng, boundary));
  }
  if (!rng->OneIn(3)) {
    for (uint64_t c = 1 + rng->Uniform(4); c > 0; --c) {
      query.select_columns.push_back(kColumns[rng->Uniform(6)]);
    }
  }
  query.limit = kLimits[rng->Uniform(5)];
  switch (rng->Uniform(10)) {
    case 0:
      query.agg = Aggregate::Count();
      break;
    case 1:
      query.agg = Aggregate::Sum(rng->OneIn(2) ? "latency" : "ts");
      break;
    case 2:
      query.agg = Aggregate::Min(rng->OneIn(2) ? "latency" : "ts");
      break;
    case 3:
      query.agg = Aggregate::Max(rng->OneIn(2) ? "latency" : "tenant_id");
      break;
    case 4:
      query.agg = Aggregate::GroupCount(kColumns[2 + rng->Uniform(3)]);
      break;
    default:
      break;  // a row query
  }
  return query;
}

// One of the ways a query names a column the schema does not have, or a
// column of the wrong type.
enum class Defect {
  kUnknownPredicateColumn,
  kStringPredicateOnInt,
  kIntPredicateOnString,
  kMatchOnInt,
  kUnknownSelectColumn,
  kUnknownAggregateColumn,
  kSumOfString,
};
constexpr int kDefects = 7;

void Break(LogQuery* query, Defect defect) {
  switch (defect) {
    case Defect::kUnknownPredicateColumn:
      query->predicates.push_back(Predicate::StringEq("no_such_column", "x"));
      break;
    case Defect::kStringPredicateOnInt:
      query->predicates.push_back(Predicate::StringEq("latency", "5"));
      break;
    case Defect::kIntPredicateOnString:
      query->predicates.push_back(
          Predicate::Int64Compare("ip", CompareOp::kGe, 0));
      break;
    case Defect::kMatchOnInt:
      query->predicates.push_back(Predicate::Match("ts", "5"));
      break;
    case Defect::kUnknownSelectColumn:
      query->select_columns.push_back("no_such_column");
      break;
    case Defect::kUnknownAggregateColumn:
      query->agg = Aggregate::GroupCount("no_such_column");
      break;
    case Defect::kSumOfString:
      query->agg = Aggregate::Sum("ip");
      break;
  }
}

std::string Describe(const LogQuery& query) {
  std::string text = "tenant " + std::to_string(query.tenant_id) + " ts [" +
                     std::to_string(query.ts_min) + ", " +
                     std::to_string(query.ts_max) + "] limit " +
                     std::to_string(query.limit) + " agg " +
                     std::to_string(static_cast<int>(query.agg.kind)) + "(" +
                     query.agg.column + ") select";
  for (const std::string& col : query.select_columns) text += " " + col;
  for (const Predicate& pred : query.predicates) {
    text += " | " + pred.column + " kind " +
            std::to_string(static_cast<int>(pred.kind)) + " op " +
            std::to_string(static_cast<int>(pred.op)) + " " +
            std::to_string(pred.int_value) + " '" + pred.str_value + "'";
  }
  return text;
}

// An unknown predicate column, a type mismatch, an unknown select column
// and an unknown aggregate column each fail the query with InvalidArgument,
// through both deployments, whether the tenant's rows are archived,
// realtime or absent.
TEST(ReadValidationTest, InvalidQueriesFailWhereverTheRowsAre) {
  Deployments deployments(11);
  ASSERT_TRUE(deployments.ready());
  for (uint64_t tenant : {kArchived, kRealtime, kMixed, kEmpty}) {
    for (int d = 0; d < kDefects; ++d) {
      LogQuery query;
      query.tenant_id = tenant;
      Break(&query, static_cast<Defect>(d));
      const std::string label =
          "tenant " + std::to_string(tenant) + " defect " + std::to_string(d);
      auto stored = deployments.QueryStore(query);
      EXPECT_TRUE(stored.status().IsInvalidArgument())
          << label << " LogStore: " << stored.status().ToString();
      auto clustered = deployments.QueryCluster(query);
      EXPECT_TRUE(clustered.status().IsInvalidArgument())
          << label << " Cluster: " << clustered.status().ToString();
    }
  }
}

TEST(QueryFuzzTest, RandomQueriesMatchTheReference) {
  const int seeds = testenv::SeedCount("QUERY_FUZZ_SEEDS", 3);
  for (int seed = 1; seed <= seeds; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Deployments deployments(static_cast<uint64_t>(seed));
    ASSERT_TRUE(deployments.ready());
    Random rng(static_cast<uint64_t>(seed) * 7919);
    for (int q = 0; q < 150; ++q) {
      LogQuery query = RandomQuery(&rng, deployments.boundary());
      if (rng.OneIn(5)) {
        Break(&query, static_cast<Defect>(rng.Uniform(kDefects)));
        if (rng.OneIn(3)) query.tenant_id = kEmpty;
        const std::string label = "invalid query " + std::to_string(q) +
                                  ": " + Describe(query);
        EXPECT_TRUE(deployments.QueryStore(query).status().IsInvalidArgument())
            << label << " (LogStore)";
        EXPECT_TRUE(
            deployments.QueryCluster(query).status().IsInvalidArgument())
            << label << " (Cluster)";
        continue;
      }
      const std::string label =
          "query " + std::to_string(q) + ": " + Describe(query);
      const reference::Answer expected =
          reference::Evaluate(deployments.rows(), query);
      auto stored = deployments.QueryStore(query);
      ASSERT_TRUE(stored.ok()) << label << ": " << stored.status().ToString();
      reference::ExpectMatchesReference(expected, query, *stored,
                                        label + " (LogStore)");
      auto clustered = deployments.QueryCluster(query);
      ASSERT_TRUE(clustered.ok())
          << label << ": " << clustered.status().ToString();
      reference::ExpectMatchesReference(expected, query, *clustered,
                                        label + " (Cluster)");
      if (HasFailure()) return;
    }
  }
}

}  // namespace
}  // namespace logstore
