// Vectorized-execution property tests (§15): the selection-bitmap kernels
// and the bitmap-fold primitives must agree with their per-row reference
// semantics on randomized inputs, and engine results over the kernels must
// match the test-only reference evaluator (reference_query.h) across a
// seeded (predicate mix x limit x threads x data-skipping) matrix, with
// rows and deterministic stats byte-equal between the inline and the
// 8-thread schedules. Aggregation pushdown must match the reference's
// aggregates exactly.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "cluster/data_builder.h"
#include "common/metrics.h"
#include "common/random.h"
#include "index/inverted_index.h"
#include "index/rowid_set.h"
#include "objectstore/memory_object_store.h"
#include "query/aggregation.h"
#include "query/engine.h"
#include "query/vectorized.h"
#include "reference_query.h"
#include "rowstore/row_store.h"
#include "workload/loggen.h"
#include "workload/querygen.h"

namespace logstore::query {
namespace {

// --- Kernel / bitmap-fold unit tests (randomized vs per-row reference) ---

TEST(IntersectBitmapTest, MatchesPerRowReference) {
  Random rng(2024);
  for (int round = 0; round < 200; ++round) {
    const uint32_t num_rows = 1 + static_cast<uint32_t>(rng.Uniform(300));
    const uint32_t first_row = static_cast<uint32_t>(rng.Uniform(num_rows));
    const uint32_t count =
        1 + static_cast<uint32_t>(rng.Uniform(num_rows - first_row + 40));

    index::RowIdSet set(num_rows);
    index::RowIdSet reference(num_rows);
    for (uint32_t r = 0; r < num_rows; ++r) {
      if (rng.Uniform(3) != 0) {
        set.Add(r);
        reference.Add(r);
      }
    }

    std::vector<uint64_t> words((count + 63) / 64, 0);
    for (uint32_t j = 0; j < count; ++j) {
      if (rng.Uniform(2) == 0) words[j / 64] |= 1ull << (j % 64);
    }

    set.IntersectBitmap(first_row, words.data(), count);
    // Reference semantics: remove every covered row whose bit is clear;
    // rows outside [first_row, first_row + count) are untouched.
    for (uint32_t j = 0; j < count; ++j) {
      const uint32_t row = first_row + j;
      if (row >= num_rows) break;
      if (((words[j / 64] >> (j % 64)) & 1) == 0) reference.Remove(row);
    }
    ASSERT_EQ(set.ToVector(), reference.ToVector())
        << "round=" << round << " num_rows=" << num_rows
        << " first_row=" << first_row << " count=" << count;
  }
}

TEST(FilterKernelTest, Int64CompareMatchesPredicateEval) {
  Random rng(7);
  const CompareOp ops[] = {CompareOp::kEq, CompareOp::kNe, CompareOp::kLt,
                           CompareOp::kLe, CompareOp::kGt, CompareOp::kGe};
  for (int round = 0; round < 100; ++round) {
    const uint32_t n = 1 + static_cast<uint32_t>(rng.Uniform(200));
    std::vector<int64_t> values(n);
    for (auto& v : values) v = static_cast<int64_t>(rng.Uniform(16)) - 8;
    const CompareOp op = ops[rng.Uniform(6)];
    const int64_t operand = static_cast<int64_t>(rng.Uniform(16)) - 8;
    const Predicate pred = Predicate::Int64Compare("c", op, operand);

    std::vector<uint64_t> words((n + 63) / 64, ~0ull);  // must be overwritten
    const uint32_t hits = vectorized::FilterInt64Compare(
        values.data(), n, op, operand, words.data());

    uint32_t expected_hits = 0;
    for (uint32_t j = 0; j < n; ++j) {
      const bool want = pred.EvalInt64(values[j]);
      expected_hits += want ? 1 : 0;
      ASSERT_EQ(((words[j / 64] >> (j % 64)) & 1) != 0, want)
          << "round=" << round << " row=" << j;
    }
    EXPECT_EQ(hits, expected_hits);
    // Tail bits past n must be cleared so bitmaps AND/fold without masking.
    if ((n % 64) != 0) {
      EXPECT_EQ(words.back() & (~0ull << (n % 64)), 0ull) << "round=" << round;
    }
  }
}

TEST(FilterKernelTest, StringEqAndMatchTokens) {
  const std::vector<std::string_view> values = {
      "connection timeout on 192.168.0.1", "ok",           "timeout",
      "retry after timeout budget",        "connection ok", ""};
  const uint32_t n = static_cast<uint32_t>(values.size());
  std::vector<uint64_t> words((n + 63) / 64, ~0ull);

  EXPECT_EQ(vectorized::FilterStringEq(values.data(), n, "ok", words.data()),
            1u);
  EXPECT_TRUE((words[0] >> 1) & 1);

  EXPECT_EQ(vectorized::FilterMatchTokens(values.data(), n, {"timeout"},
                                          words.data()),
            3u);
  EXPECT_EQ(words[0] & 0x3full, 0b001101ull);

  EXPECT_EQ(vectorized::FilterMatchTokens(values.data(), n,
                                          {"connection", "timeout"},
                                          words.data()),
            1u);
  EXPECT_EQ(words[0] & 0x3full, 0b000001ull);

  // Empty token list selects every row (the inverted-index probe contract).
  EXPECT_EQ(vectorized::FilterMatchTokens(values.data(), n, {}, words.data()),
            n);
}

// The MATCH kernel scans values in place; its definition is index::Tokenize:
// a row matches iff every query token is among Tokenize(value).
TEST(FilterKernelTest, MatchTokensAgreesWithTokenize) {
  Random rng(1515);
  // Mixed case, digits, punctuation, bytes >= 0x80 and runs of separators.
  const std::string alphabet =
      "abcXYZ019 -._/:=\t\x80\xc3\xa9\xff";
  auto random_text = [&](size_t max_len) {
    std::string text(rng.Uniform(max_len + 1), '\0');
    for (char& c : text) c = alphabet[rng.Uniform(alphabet.size())];
    return text;
  };
  for (int round = 0; round < 300; ++round) {
    const uint32_t n = 1 + static_cast<uint32_t>(rng.Uniform(150));
    std::vector<std::string> owned(n);
    for (auto& v : owned) v = random_text(rng.Uniform(4) == 0 ? 0 : 24);
    const std::vector<std::string_view> values(owned.begin(), owned.end());

    // Query tokens: tokens of some row (so matches happen), random text
    // tokenized like a query, duplicates, and now and then none at all.
    std::vector<std::string> tokens;
    const size_t want = rng.Uniform(4);
    for (size_t t = 0; t < want; ++t) {
      const auto row_tokens = index::Tokenize(owned[rng.Uniform(n)]);
      if (!row_tokens.empty() && rng.Uniform(3) != 0) {
        tokens.push_back(row_tokens[rng.Uniform(row_tokens.size())]);
      } else {
        for (auto& tok : index::Tokenize(random_text(6))) {
          tokens.push_back(std::move(tok));
        }
      }
    }
    if (!tokens.empty() && rng.Uniform(4) == 0) tokens.push_back(tokens[0]);

    std::vector<uint64_t> words((n + 63) / 64, ~0ull);
    const uint32_t hits =
        vectorized::FilterMatchTokens(values.data(), n, tokens, words.data());
    uint32_t expected_hits = 0;
    for (uint32_t j = 0; j < n; ++j) {
      const auto value_tokens = index::Tokenize(owned[j]);
      bool want_row = true;
      for (const std::string& t : tokens) {
        if (std::find(value_tokens.begin(), value_tokens.end(), t) ==
            value_tokens.end()) {
          want_row = false;
        }
      }
      expected_hits += want_row ? 1 : 0;
      ASSERT_EQ(((words[j / 64] >> (j % 64)) & 1) != 0, want_row)
          << "round=" << round << " row=" << j << " value=" << owned[j];
    }
    EXPECT_EQ(hits, expected_hits) << "round=" << round;
    if ((n % 64) != 0) {
      EXPECT_EQ(words.back() & (~0ull << (n % 64)), 0ull) << "round=" << round;
    }
  }
}

// --- Engine-level matrix against the reference evaluator ---

class VectorizedQueryTest : public ::testing::TestWithParam<int> {
 protected:
  static constexpr int64_t kHistory = 8ll * 3600 * 1'000'000;

  void SetUp() override {
    store_ = std::make_unique<objectstore::MemoryObjectStore>();
    // Small LogBlocks and column blocks so the kernels see many partial
    // tail blocks and the candidate bitmaps land at odd word offsets.
    cluster::DataBuilderOptions builder_options;
    builder_options.max_rows_per_logblock = 500;
    builder_options.block_options.rows_per_block = 128;
    cluster::DataBuilder builder(store_.get(), &map_, builder_options);
    rowstore::RowStore rows(logblock::RequestLogSchema());
    workload::LogGenerator gen(41);
    for (uint64_t tenant = 0; tenant < 3; ++tenant) {
      data_.push_back({tenant, gen.Generate(tenant, 4000, 0, kHistory)});
      rows.Append(tenant, data_.back().batch);
    }
    ASSERT_TRUE(builder.BuildOnce(&rows).ok());
  }

  EngineOptions Options(int threads, bool skipping = true) const {
    EngineOptions options;
    options.query_threads = threads;
    options.use_data_skipping = skipping;
    options.prefetch_threads = 4;
    options.io_block_size = 4096;
    options.cache_options.memory_capacity_bytes = 8 << 20;
    options.cache_options.ssd_dir.clear();
    return options;
  }

  Result<QueryResult> Run(const EngineOptions& options, const LogQuery& query) {
    auto engine = QueryEngine::Open(store_.get(), options);
    if (!engine.ok()) return engine.status();
    return (*engine)->Execute(query, map_);
  }

  // Byte-identity across schedules: rows, order, and every deterministic
  // stat (vectorized_kernel_ns is wall clock and stays out).
  void ExpectIdentical(const QueryResult& expected, const QueryResult& actual,
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
    EXPECT_EQ(actual.stats.exec.decode_cache_hits,
              expected.stats.exec.decode_cache_hits)
        << label;
    EXPECT_EQ(actual.stats.exec.bytes_decoded,
              expected.stats.exec.bytes_decoded)
        << label;
    EXPECT_EQ(actual.stats.exec.vectorized_rows_scanned,
              expected.stats.exec.vectorized_rows_scanned)
        << label;
    EXPECT_EQ(actual.stats.exec.vectorized_bitmap_hits,
              expected.stats.exec.vectorized_bitmap_hits)
        << label;
  }

  std::unique_ptr<objectstore::MemoryObjectStore> store_;
  logblock::LogBlockMap map_;
  std::vector<reference::TenantRows> data_;
};

TEST_P(VectorizedQueryTest, MatchesReferenceAcrossSchedules) {
  workload::QueryGenerator qgen(static_cast<uint64_t>(GetParam()));
  const uint64_t tenant = static_cast<uint64_t>(GetParam()) % 3;
  for (const auto& base_query : qgen.TenantQuerySet(tenant, 0, kHistory)) {
    for (bool skipping : {true, false}) {
      // 128/129 and 500/501 cut at and just past a column block and a
      // LogBlock.
      for (uint32_t limit : {0u, 1u, 7u, 100u, 128u, 129u, 500u, 501u}) {
        LogQuery query = base_query;
        query.limit = limit;
        const std::string label = "skipping=" + std::to_string(skipping) +
                                  " limit=" + std::to_string(limit);
        const reference::Answer expected = reference::Evaluate(data_, query);
        auto inline_run = Run(Options(1, skipping), query);
        ASSERT_TRUE(inline_run.ok()) << inline_run.status().ToString();
        reference::ExpectMatchesReference(expected, query, *inline_run,
                                          label + " threads=1");
        auto pooled = Run(Options(8, skipping), query);
        ASSERT_TRUE(pooled.ok()) << pooled.status().ToString();
        ExpectIdentical(*inline_run, *pooled, label + " threads=8");
      }
    }
  }
}

TEST_P(VectorizedQueryTest, VectorizedStatsNonzeroWithoutSkipping) {
  // With skipping off, every residual column block goes through a kernel.
  // (Their equality across schedules is checked by ExpectIdentical.)
  workload::QueryGenerator qgen(static_cast<uint64_t>(GetParam()));
  const uint64_t tenant = static_cast<uint64_t>(GetParam()) % 3;
  for (auto query : qgen.TenantQuerySet(tenant, 0, kHistory)) {
    if (query.predicates.empty()) continue;  // nothing reaches a kernel
    query.limit = 0;
    auto result = Run(Options(1, /*skipping=*/false), query);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_GT(result->stats.exec.vectorized_rows_scanned, 0u);
    EXPECT_GT(result->stats.exec.bytes_decoded, 0u);
  }
}

TEST_F(VectorizedQueryTest, DecodeCacheServesGatherAndRepeatPredicates) {
  // The gather re-touches the column the residual scan just decoded: the
  // per-execution cache must serve it without a second decode. The range
  // ends inside a ts block, so the residual scan decodes that block (the
  // blocks wholly inside the range are never read), and the gather reads
  // the ts of its rows below the end.
  LogQuery query;
  query.tenant_id = 1;
  query.ts_min = 0;
  query.ts_max = kHistory / 2;
  query.select_columns = {"log", "ts"};
  auto result = Run(Options(1), query);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_GT(result->rows.size(), 0u);
  EXPECT_GT(result->stats.exec.decode_cache_hits, 0u);

  // Two predicates on one column: the second predicate's scan reuses the
  // first's decodes (skipping off so both scan every block). The second
  // predicate matches every row, so the query without it decodes the same
  // blocks: fewer scans and cache hits, the same bytes decoded, because a
  // block counts once per decode.
  LogQuery one;
  one.tenant_id = 1;
  one.ts_min = 0;
  one.ts_max = kHistory;
  one.predicates.push_back(
      Predicate::Int64Compare("latency", CompareOp::kGe, 100));
  one.select_columns = {"ts"};
  LogQuery two = one;
  two.predicates.push_back(
      Predicate::Int64Compare("latency", CompareOp::kLt, 100'000));
  metrics::MetricRegistry registry;
  EngineOptions options = Options(1, /*skipping=*/false);
  options.registry = &registry;
  auto single = Run(options, one);
  ASSERT_TRUE(single.ok()) << single.status().ToString();
  auto repeat = Run(options, two);
  ASSERT_TRUE(repeat.ok()) << repeat.status().ToString();
  EXPECT_GT(repeat->stats.exec.decode_cache_hits,
            single->stats.exec.decode_cache_hits);
  EXPECT_GT(repeat->stats.exec.column_blocks_scanned,
            single->stats.exec.column_blocks_scanned);
  EXPECT_GT(single->stats.exec.bytes_decoded, 0u);
  EXPECT_EQ(repeat->stats.exec.bytes_decoded,
            single->stats.exec.bytes_decoded);
  EXPECT_EQ(registry.SnapshotMap().at("query.vectorized.bytes_decoded"),
            static_cast<int64_t>(single->stats.exec.bytes_decoded +
                                 repeat->stats.exec.bytes_decoded));
}

TEST_P(VectorizedQueryTest, AggregationPushdownMatchesReference) {
  workload::QueryGenerator qgen(static_cast<uint64_t>(GetParam()));
  const uint64_t tenant = static_cast<uint64_t>(GetParam()) % 3;
  int queries_with_rows = 0;
  for (const auto& base_query : qgen.TenantQuerySet(tenant, 0, kHistory)) {
    const Aggregate kinds[] = {Aggregate::Count(), Aggregate::Sum("latency"),
                               Aggregate::Min("latency"),
                               Aggregate::Max("latency"),
                               Aggregate::GroupCount("ip")};
    for (const Aggregate& agg : kinds) {
      LogQuery query = base_query;
      query.limit = 0;
      query.select_columns.clear();
      query.agg = agg;
      const reference::Answer expected = reference::Evaluate(data_, query);
      if (expected.agg.rows > 0) ++queries_with_rows;

      // The pushdown must be invisible across schedulers and skipping.
      for (bool skipping : {true, false}) {
        for (int threads : {1, 8}) {
          auto run = Run(Options(threads, skipping), query);
          ASSERT_TRUE(run.ok()) << run.status().ToString();
          reference::ExpectMatchesReference(
              expected, query, *run,
              "agg=" + std::to_string(static_cast<int>(agg.kind)) +
                  " threads=" + std::to_string(threads) +
                  " skipping=" + std::to_string(skipping));
        }
      }

      // The presentation top-k equals the broker-side helper over the
      // matching values.
      if (agg.kind == Aggregate::Kind::kGroupCount) {
        LogQuery rows_query = base_query;
        rows_query.limit = 0;
        rows_query.select_columns = {"ip"};
        std::vector<logblock::Value> ips;
        for (auto& row : reference::Evaluate(data_, rows_query).rows) {
          ips.push_back(std::move(row[0]));
        }
        const auto all_groups = GroupCountTopK(ips, ips.size() + 1);
        const auto topk = expected.agg.TopK(0);
        ASSERT_EQ(topk.size(), all_groups.size());
        for (size_t g = 0; g < topk.size(); ++g) {
          EXPECT_EQ(topk[g].key, all_groups[g].key) << "group " << g;
          EXPECT_EQ(topk[g].count, all_groups[g].count) << "group " << g;
        }
      }
    }
  }
  EXPECT_GT(queries_with_rows, 0);
}

TEST_F(VectorizedQueryTest, LimitNeverCutsAnAggregateScan) {
  // `limit` on an aggregate is presentation-only: the scan covers ALL
  // matching rows, and for kGroupCount the limit is the TopK cut.
  LogQuery query;
  query.tenant_id = 0;
  query.ts_min = 0;
  query.ts_max = kHistory;
  query.predicates.push_back(Predicate::StringEq("fail", "false"));
  query.agg = Aggregate::GroupCount("ip");

  auto unlimited = Run(Options(8), query);
  ASSERT_TRUE(unlimited.ok()) << unlimited.status().ToString();
  ASSERT_GT(unlimited->agg.rows, 7u) << "dataset too small for the test";

  query.limit = 7;
  auto limited = Run(Options(8), query);
  ASSERT_TRUE(limited.ok()) << limited.status().ToString();
  // Same full aggregate (canonical groups included) despite the limit...
  EXPECT_EQ(limited->agg.rows, unlimited->agg.rows);
  ASSERT_EQ(limited->agg.groups.size(), unlimited->agg.groups.size());
  EXPECT_EQ(limited->stats.exec.rows_matched,
            unlimited->stats.exec.rows_matched);
  // ...with the limit applied only by the presentation TopK.
  const auto top = limited->agg.TopK(query.limit);
  ASSERT_LE(top.size(), 7u);
  const auto full = unlimited->agg.TopK(0);
  for (size_t g = 0; g < top.size(); ++g) {
    EXPECT_EQ(top[g].key, full[g].key) << "group " << g;
    EXPECT_EQ(top[g].count, full[g].count) << "group " << g;
  }

  // kCount with a limit: same row count as the unlimited row query.
  LogQuery count_query = query;
  count_query.limit = 1;
  count_query.agg = Aggregate::Count();
  auto counted = Run(Options(8), count_query);
  ASSERT_TRUE(counted.ok());
  EXPECT_EQ(counted->agg.rows, unlimited->agg.rows);
}

INSTANTIATE_TEST_SUITE_P(Seeds, VectorizedQueryTest, ::testing::Range(1, 4));

}  // namespace
}  // namespace logstore::query
