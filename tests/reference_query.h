// Test-only reference evaluator for LogQuery: the oracle every query-path
// matrix compares against. It reads only the RowBatches a test generated,
// one row at a time — no LogBlocks, indexes, caches or engine code — and
// applies the query's meaning directly, in order:
//   1. the tenant filter;
//   2. the inclusive `ts` range;
//   3. the predicates: int compare via Predicate::EvalInt64, string
//      equality, and MATCH (every index::Tokenize token of the query text
//      appears among the value's tokens, so no tokens selects every row);
//   4. projection (select list, or every schema column);
//   5. aggregation, with canonical key-ascending groups.
// The answer keeps EVERY matching row; `limit` is applied by the comparison
// contract in ExpectMatchesReference, because which `limit` rows a query
// returns is the engine's choice.
#ifndef LOGSTORE_TESTS_REFERENCE_QUERY_H_
#define LOGSTORE_TESTS_REFERENCE_QUERY_H_

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "index/inverted_index.h"
#include "logblock/row_batch.h"
#include "query/engine.h"
#include "query/predicate.h"

namespace logstore::reference {

// One batch of rows a test wrote for `tenant`.
struct TenantRows {
  uint64_t tenant = 0;
  logblock::RowBatch batch;
};

struct Answer {
  std::vector<std::string> columns;
  std::vector<std::vector<logblock::Value>> rows;  // every match; no limit
  query::AggResult agg;                            // aggregate queries only
};

inline bool RowMatches(const logblock::RowBatch& batch, uint32_t row,
                       const query::LogQuery& query) {
  const logblock::Schema& schema = batch.schema();
  const int ts_col = schema.FindColumn("ts");
  if (ts_col >= 0) {
    const int64_t ts = batch.Int64At(ts_col, row);
    if (ts < query.ts_min || ts > query.ts_max) return false;
  }
  for (const query::Predicate& pred : query.predicates) {
    const int col = schema.FindColumn(pred.column);
    if (col < 0) {
      ADD_FAILURE() << "reference: unknown column " << pred.column;
      return false;
    }
    switch (pred.kind) {
      case query::Predicate::Kind::kInt64Compare:
        if (!pred.EvalInt64(batch.Int64At(col, row))) return false;
        break;
      case query::Predicate::Kind::kStringEq:
        if (batch.StringAt(col, row) != pred.str_value) return false;
        break;
      case query::Predicate::Kind::kMatch: {
        const std::vector<std::string> have =
            index::Tokenize(batch.StringAt(col, row));
        for (const std::string& token : index::Tokenize(pred.str_value)) {
          if (std::find(have.begin(), have.end(), token) == have.end()) {
            return false;
          }
        }
        break;
      }
    }
  }
  return true;
}

inline Answer Evaluate(const std::vector<TenantRows>& data,
                       const query::LogQuery& query) {
  Answer answer;
  answer.columns = query.select_columns;
  answer.agg.kind = query.agg.kind;
  std::map<std::string, uint64_t> group_counts;
  for (const TenantRows& part : data) {
    if (part.tenant != query.tenant_id) continue;
    const logblock::RowBatch& batch = part.batch;
    const logblock::Schema& schema = batch.schema();
    if (answer.columns.empty()) {
      for (const auto& col : schema.columns()) {
        answer.columns.push_back(col.name);
      }
    }
    for (uint32_t r = 0; r < batch.num_rows(); ++r) {
      if (!RowMatches(batch, r, query)) continue;
      if (!query.is_aggregate()) {
        std::vector<logblock::Value> row;
        for (const std::string& name : answer.columns) {
          row.push_back(batch.ValueAt(schema.FindColumn(name), r));
        }
        answer.rows.push_back(std::move(row));
        continue;
      }
      ++answer.agg.rows;
      if (query.agg.kind == query::Aggregate::Kind::kCount) continue;
      const logblock::Value v =
          batch.ValueAt(schema.FindColumn(query.agg.column), r);
      switch (query.agg.kind) {
        case query::Aggregate::Kind::kSum:
          answer.agg.sum += v.i;
          break;
        case query::Aggregate::Kind::kMin:
          answer.agg.min = std::min(answer.agg.min, v.i);
          break;
        case query::Aggregate::Kind::kMax:
          answer.agg.max = std::max(answer.agg.max, v.i);
          break;
        case query::Aggregate::Kind::kGroupCount:
          ++group_counts[v.type == logblock::ColumnType::kInt64
                             ? std::to_string(v.i)
                             : v.s];
          break;
        case query::Aggregate::Kind::kNone:
        case query::Aggregate::Kind::kCount:
          break;
      }
    }
  }
  for (const auto& [key, count] : group_counts) {
    answer.agg.groups.push_back({key, count});  // std::map: key-ascending
  }
  return answer;
}

// Type-tagged, length-prefixed encoding of a row, so rows compare as
// multiset members with no two distinct rows sharing a key.
inline std::string RowKey(const std::vector<logblock::Value>& row) {
  std::string key;
  for (const logblock::Value& v : row) {
    if (v.type == logblock::ColumnType::kInt64) {
      key += 'i';
      key += std::to_string(v.i);
      key += ';';
    } else {
      key += 's';
      key += std::to_string(v.s.size());
      key += ':';
      key += v.s;
    }
  }
  return key;
}

inline void ExpectSameAgg(const query::AggResult& expected,
                          const query::AggResult& actual,
                          const std::string& label) {
  EXPECT_EQ(actual.kind, expected.kind) << label;
  EXPECT_EQ(actual.rows, expected.rows) << label;
  EXPECT_EQ(actual.sum, expected.sum) << label;
  EXPECT_EQ(actual.min, expected.min) << label;
  EXPECT_EQ(actual.max, expected.max) << label;
  ASSERT_EQ(actual.groups.size(), expected.groups.size()) << label;
  for (size_t g = 0; g < expected.groups.size(); ++g) {
    EXPECT_EQ(actual.groups[g].key, expected.groups[g].key)
        << label << " group " << g;
    EXPECT_EQ(actual.groups[g].count, expected.groups[g].count)
        << label << " group " << g;
  }
}

// The comparison contract between an engine result and the reference:
//  - columns are equal;
//  - an aggregate is exactly equal and returns no rows;
//  - a `limit 0` row query equals the reference as a multiset;
//  - a `limit k` row query returns min(k, matches) rows, together a
//    sub-multiset of the reference;
//  - stats.exec.rows_matched equals the returned row count (for an
//    aggregate, agg.rows).
inline void ExpectMatchesReference(const Answer& expected,
                                   const query::LogQuery& query,
                                   const query::QueryResult& actual,
                                   const std::string& label) {
  EXPECT_EQ(actual.columns, expected.columns) << label;
  if (query.is_aggregate()) {
    EXPECT_TRUE(actual.rows.empty()) << label;
    ExpectSameAgg(expected.agg, actual.agg, label);
    EXPECT_EQ(actual.stats.exec.rows_matched, actual.agg.rows) << label;
    return;
  }
  const size_t want = query.limit == 0
                          ? expected.rows.size()
                          : std::min<size_t>(query.limit, expected.rows.size());
  EXPECT_EQ(actual.rows.size(), want) << label;
  EXPECT_EQ(actual.stats.exec.rows_matched, actual.rows.size()) << label;
  std::map<std::string, int64_t> unmatched;  // reference minus actual
  for (const auto& row : expected.rows) ++unmatched[RowKey(row)];
  for (size_t r = 0; r < actual.rows.size(); ++r) {
    if (--unmatched[RowKey(actual.rows[r])] < 0) {
      ADD_FAILURE() << label << ": row " << r
                    << " is not in the reference answer (or is returned "
                       "more often than it matches)";
      return;
    }
  }
}

}  // namespace logstore::reference

#endif  // LOGSTORE_TESTS_REFERENCE_QUERY_H_
